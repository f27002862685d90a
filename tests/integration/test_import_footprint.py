"""What ``import repro`` and one run load.

Every process that runs a cell pays for the modules ``import repro``
pulls in, in resident memory and start-up time, so the package keeps
heavyweight standard-library machinery off that path: neither ``socket``
nor ``multiprocessing`` has a user in the package.  A run needs the cost
model from the harness but none of the figure machinery.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import repro\n"
    "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
)


def test_import_repro_loads_no_socket_or_multiprocessing():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    loaded = set(out.split())
    assert "repro" in loaded
    assert "socket" not in loaded
    assert not {m for m in loaded if m.split(".")[0] == "multiprocessing"}


RUN_PROBE = (
    "import sys\n"
    "import repro\n"
    "repro.run('jess', 1, 'cg')\n"
    "print('\\n'.join(sorted(sys.modules)))\n"
)


def test_a_run_loads_the_cost_model_but_not_the_figures():
    out = subprocess.run(
        [sys.executable, "-c", RUN_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    loaded = set(out.split())
    assert "repro.harness.costmodel" in loaded
    assert "repro.harness.figures" not in loaded
    assert "repro.harness.tables" not in loaded
