"""``python -m repro`` — figure CLI plus ``bench`` and ``inspect``.

``python -m repro 4.1 4.5`` regenerates figures (same interface as
``python -m repro.harness.cli``); ``python -m repro bench ...`` runs the
wall-clock benchmark harness (see :mod:`repro.harness.bench`);
``python -m repro inspect ...`` renders live heartbeat snapshots of
in-flight runs (see :mod:`repro.obs.inspect`).  Figure and bench cells
all execute through :func:`repro.api.run`.
"""

import sys


def main() -> int:
    argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        from .harness.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "inspect":
        from .obs.inspect import main as inspect_main

        return inspect_main(argv[1:])
    from .harness.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
