#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Builds `perfbench/` (a cargo package of its own that links the
simulator crates from source), then runs one measurement. The last
line of standard output is the result object; `--out FILE` also writes
it, with the run's fingerprint, for `perfbench/compare.py`.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("closed_loop", "sync_poll", "fleet_2shard", "reproduce_quick")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark in release mode; returns the binary's path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", MANIFEST,
        "--message-format=json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if proc.returncode != 0:
        fail("build failed")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            exe = msg["executable"]
    if not exe:
        fail("build produced no perfbench binary")
    return exe


def source_digest(root):
    """SHA-256 over the simulator's sources, for the run fingerprint."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    """The git commit when the checkout is a repository, plus a source digest."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        rev = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        git = rev.stdout.strip() if rev.returncode == 0 else "none"
    except OSError:
        git = "none"
    return f"{git}+src:{source_digest(root)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--out", help="also write fingerprint + result to this file")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    for need in ("BENCH_quick.json", os.path.join("perfbench", "expected.txt")):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"run from the repository root: {need} is missing")
    exe = build()
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--commit", commit(root),
    ]
    if args.out:
        cmd += ["--out", args.out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
