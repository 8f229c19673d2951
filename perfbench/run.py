#!/usr/bin/env python3
"""Builds the drill-down benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the WAL, the
disk table and the span file of a run go to $CARGO_TARGET_DIR/perfbench-work.
Build output and check failures go to standard error; the last line of
standard output is the result object printed by the perfbench binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_checker_test"])
    steps.append([os.path.join(build_dir, "perfbench_checker_test")])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    build_dir = os.path.join(target, "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    if not build(build_dir):
        return 3
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--work-dir", work_dir]
    # A fixed mmap threshold: glibc otherwise raises it after the first
    # large free, so freed search buffers stay resident in per-thread
    # arenas and peak RSS varied by a fifth between runs of one seed.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
