#!/usr/bin/env python3
"""Build and run the serving-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package (its own
Cargo workspace, depending on the repository's crates by path) in release
mode, then runs it with the same arguments, pinned to one CPU. The
benchmark prints its result as the last line of standard output. The exit
code is the benchmark's: 0 when every output was correct, non-zero otherwise
or when the build fails.

Why one CPU: the fan-out runs its components on as many threads as the
process may use, spawned per call. On a small shared host a call then waits
for its slowest thread to be scheduled, and that wait, not the program, sets
the latency of a run. Pinned, the process sees one CPU and runs each call's
components in order on the calling thread, so a busy host slows a run in
proportion instead of by whole scheduler slices.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def pin_to_one_cpu():
    """Restrict this process, and the benchmark it starts, to one CPU: the
    highest-numbered one it may use, as CPU 0 tends to take more of the
    host's interrupts. A no-op where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    pin_to_one_cpu()
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
