#!/usr/bin/env python3
"""Live inspection walkthrough: watch a run from a different process.

Launches a long-running jess workload in a child process with heartbeat
snapshots armed (``heartbeat_every=1000`` executed opcodes), then attaches
to it from *this* process with the real CLI::

    python -m repro inspect <PID> --watch --count 3

and prints three successive snapshots as they land in the spool.  Nothing
is shared but the spool directory — the child never pauses, and the
watcher never touches the child's memory.

Run:  python examples/inspect_walkthrough.py
"""

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time

CHILD = textwrap.dedent("""
    import sys
    from repro import api
    # Re-run the workload forever so the parent always finds us in flight.
    while True:
        api.run("jess", 1, "cg", heartbeat_every=1000,
                heartbeat_spool=sys.argv[1])
""")


def main():
    spool = tempfile.mkdtemp(prefix="repro-inspect-demo-")
    env = dict(os.environ)
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, spool],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    print(f"child pid {child.pid} running jess:1:cg with heartbeats "
          f"every 1000 ops\nspool: {spool}\n")
    try:
        # Wait for the first run file to appear, then attach.
        deadline = time.time() + 60
        while time.time() < deadline:
            if any(name.startswith("run-") for name in os.listdir(spool)):
                break
            if child.poll() is not None:
                raise SystemExit("child died before heartbeating")
            time.sleep(0.05)

        print(f"$ python -m repro inspect {child.pid} --watch --count 3 "
              f"--spool {spool}\n")
        watch = subprocess.run(
            [sys.executable, "-m", "repro", "inspect", str(child.pid),
             "--watch", "--count", "3", "--json", "--spool", spool,
             "--interval", "0.05", "--timeout", "30"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if watch.returncode != 0:
            raise SystemExit(f"inspect --watch failed: {watch.stderr}")
        snapshots = [json.loads(line)
                     for line in watch.stdout.strip().splitlines()]
        for snap in snapshots:
            labels = snap.get("labels") or {}
            cell = (f"{labels.get('workload')}:{labels.get('size')}"
                    f":{labels.get('system')}")
            heap = snap.get("heap") or {}
            print(f"snapshot seq={snap['seq']:>4} phase={snap['phase']:5} "
                  f"ops={snap['ops']:>8} cell={cell} "
                  f"heap={100 * heap.get('occupancy', 0):.1f}%")
        seqs = [(s["pid"], s["seq"], s["time"]) for s in snapshots]
        assert len(snapshots) == 3, snapshots
        # Three distinct snapshots.  Seqs increase within one run file,
        # but the child loops the workload forever, so the watcher may
        # cross into the next run's file, where seq restarts — strict
        # monotonicity across all three would be a race, not a guarantee,
        # and two runs' files can each yield the same seq.  The watcher
        # tells snapshots apart by (run file, seq); the JSON carries no
        # file name, so the capture time stands in for it.
        assert len(set(seqs)) == 3, seqs
        assert all(s["phase"] in ("live", "final") for s in snapshots)
        print("\nthree successive snapshots from a live child: OK")
    finally:
        child.kill()
        child.wait()


if __name__ == "__main__":
    main()
