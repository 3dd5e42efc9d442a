#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
simulator libraries and the perfbench binary into .bench_build/ (a few
minutes); later runs only check that the build is up to date. Build output
goes to standard error; the benchmark's last line of standard output is its
JSON result. The exit status is the benchmark's, or 1 when the build fails.
"""
import fcntl
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def run(cmd, **kwargs):
    """Run cmd in its own process group and wait for it. If this script is
    told to stop, the whole group is stopped first; the script then exits
    once the child has ended."""
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    stopped = []

    def stop(signum, _frame):
        stopped.append(signum)
        os.killpg(child.pid, signal.SIGTERM)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    code = child.wait()
    if stopped:
        sys.exit(128 + stopped[0])
    return code


def build():
    """Configure once, then build incrementally; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
        for cmd in steps:
            if run(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                return False
    return True


def main():
    if not build():
        return 1
    return run([BINARY] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
