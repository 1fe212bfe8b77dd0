#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload small_graphs|large_graph \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench on first use, then runs one measurement in a fresh
working directory under .bench_build/runs. The last line of standard
output is the JSON result. Traced runs leave their spans in
.bench_build/spans-<workload>.jsonl.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("small_graphs", "large_graph")
RUN_TIMEOUT_S = 175


def clean_env(tmpdir):
    """The library at its defaults: no PYGB_* or GBTL_* overrides, and
    temporary files (compiler scratch included) kept inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYGB_", "GBTL_"))}
    env["TMPDIR"] = tmpdir
    return env


def build():
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = clean_env(tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, env=env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    workdir = os.path.join(BUILD_ROOT, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    env = clean_env(tmp)
    env["PYGB_CACHE_DIR"] = os.path.join(workdir, "modules")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The benchmark leads its own process group. A compiler it started
        # runs in a group of its own and is bounded by the library's
        # compile deadline.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        rc = 3
    spans = os.path.join(workdir, "spans.jsonl")
    if os.path.exists(spans):
        shutil.copy(spans, os.path.join(BUILD_ROOT, f"spans-{args.workload}.jsonl"))
    shutil.rmtree(workdir, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
