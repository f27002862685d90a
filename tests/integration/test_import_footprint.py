"""What ``import repro`` loads.

Every process that runs a cell pays for the modules ``import repro``
pulls in, in resident memory and start-up time, so the package keeps
heavyweight standard-library machinery off that path: ``socket`` belongs
to the serve harness and ``multiprocessing`` to the worker pool, and each
is imported only by the code that uses it.
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
