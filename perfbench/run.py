#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload syscall-null --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library sources of
the checkout plus the benchmark program) in Release mode under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Later runs
only rebuild what changed. The program's output is passed through; its
last line is the JSON result. The exit code is the program's, or 1 when
the build fails or the program produces no result.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("syscall-null", "syscall-io", "kv-server", "remote-replica")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def adopt_orphans():
    """Become the reaper of every process the program forks: the engine
    puts its variants in process groups of their own, so a program that
    dies early could otherwise leave them running."""
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_orphans():
    """Kill and wait for every process still parented to this one."""
    me = str(os.getpid())
    while True:
        kids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if fields[1] == me:
                kids.append(int(entry))
        if not kids:
            return
        for pid in kids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in kids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def build(root, build_dir):
    """Configure (once) and build the program; return its path or None."""
    if not (root / "src").is_dir():
        log(f"no library sources under {root / 'src'}")
        return None
    out = build_dir / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-8000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(root, build_dir)
    if binary is None:
        return 1

    workdir = build_dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--workdir", str(workdir)]
    adopt_orphans()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        reap_orphans()
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict) or "metrics" not in result:
            raise ValueError
    except ValueError:
        sys.stdout.write(res.stdout)
        log(f"benchmark program printed no result (exit {res.returncode})")
        return 1
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
