#!/usr/bin/env python3
"""Build the served-path benchmark and run it pinned to one CPU.

    python3 servebench/run.py --workload serve_light --seed 1 --seconds 45 --trace 0

Run from the repository root. This builds the harness (this package) and
the repository's `fpdm-spaced` broker into one target directory
(`CARGO_TARGET_DIR` if set, else `servebench/target`), using every CPU.
It then pins itself to a single CPU (the highest-numbered one it may
use) and runs the harness, which inherits the affinity and passes it on
to the broker and helper processes it starts: on a small machine,
unpinned cross-CPU wake-ups dominate the run-to-run spread. The harness
runs in a process group of its own; when it exits, anything of that
group still alive is killed and waited for.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target: str, *args: str) -> bool:
    cmd = ["cargo", "build", "--release", "--quiet", "--target-dir", target, *args]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def reap_group(pgid: int) -> None:
    """Kill what is left of process group `pgid` and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    built = build(
        target, "--manifest-path", os.path.join(HERE, "Cargo.toml")
    ) and build(
        target, "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
        "-p", "plinda", "--bin", "fpdm-spaced",
    )
    if not built:
        print("servebench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "servebench")
    broker = os.path.join(target, "release", "fpdm-spaced")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    harness = subprocess.Popen(
        [exe, *sys.argv[1:], "--broker", broker], start_new_session=True
    )
    try:
        return harness.wait()
    finally:
        if harness.poll() is None:
            harness.kill()
            harness.wait()
        reap_group(harness.pid)


if __name__ == "__main__":
    sys.exit(main())
