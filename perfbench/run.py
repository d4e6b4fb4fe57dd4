#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload topk|reach|publish --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --quick     # all workloads, tiny scale, both modes

The benchmark binary prints its report on stdout and, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. Build output goes
to stderr. The build tree (and the snapshots a run writes) live under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, inside the
checkout. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("topk", "reach", "publish")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, base, "perfbench")
    # Everything the benchmark writes stays inside the checkout.
    if os.path.commonpath([os.path.realpath(path), ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build", "perfbench")
    return path


def check_call(argv):
    # Build chatter goes to stderr so the last stdout line stays the result.
    subprocess.run(argv, check=True, stdout=sys.stderr, cwd=ROOT)


def build():
    """Configures once, then brings the binary up to date; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no src/ next to perfbench/: nothing to build")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE not in f.read():
                shutil.rmtree(out)  # configured for another source tree
    # Compiler and library temporaries stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not os.path.exists(cache):
        argv = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            argv += ["-G", "Ninja"]
        check_call(argv)
    check_call(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    return os.path.join(out, "perfbench")


def run_binary(binary, args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    argv = [binary, "--work-dir=" + work] + args
    child = subprocess.Popen(argv, cwd=ROOT,
                             stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return child.returncode, (out.decode() if capture else None)


def quick(binary):
    """Tiny-scale pass over every workload, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_binary(binary, [
                "--quick", "--workload=" + workload, "--seed=7",
                "--seconds=1", "--trace=" + trace], capture=True)
            sys.stdout.write(out)
            try:
                result = json.loads(out.strip().splitlines()[-1])
                good = (code == 0 and result["correct"] and
                        result["failed"] == 0 and result["metrics"])
            except (ValueError, IndexError, KeyError):
                good = False
            log("quick %s trace=%s: %s" % (workload, trace,
                                           "ok" if good else "FAILED"))
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny-scale self-test of every workload")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required")

    # A terminated run still stops and reaps the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 2
    if args.quick:
        return quick(binary)
    code, _ = run_binary(binary, [
        "--workload=" + args.workload, "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds, "--trace=%d" % args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
