#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `perfbench/target`), then runs it with the same arguments. The
last line of stdout is the result: `{"correct", "attempted", "failed",
"metrics"}`. Build output goes to stderr. Exits non-zero, printing no
result, when the build fails (for example outside a full checkout).
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(target, "perfbench-work")
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:], "--work-dir", work_dir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def on_term(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_term)
    sys.exit(main())
