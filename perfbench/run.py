#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload solver-deep --seed 1 --seconds 20 --trace 0

Everything the build and the run write goes under .bench_build/ at the
repository root: the Go build cache, the binaries, server stores and
span traces. The last line on standard output is the result JSON; a
failed build or run prints no result and exits non-zero.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s; the build gets whatever it needs (the
# first build in a fresh checkout compiles the standard library).
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    for d in ("gocache", "gomodcache", "tmp", "config", "bin", "work"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    return env


def build(env):
    """Builds the benchmark and satserved; returns False on failure."""
    bin_dir = os.path.join(BUILD, "bin")
    for out, pkg in (("perfbench", "."), ("satserved", "repro/cmd/satserved")):
        cmd = ["go", "build", "-o", os.path.join(bin_dir, out), pkg]
        try:
            r = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            print(f"perfbench: build of {pkg} failed", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    if not build(env):
        return 1
    cmd = [
        os.path.join(BUILD, "bin", "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-satserved", os.path.join(BUILD, "bin", "satserved"),
        "-work", os.path.join(BUILD, "work"),
    ]
    # Own process group, so a timeout also stops the server child.
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return 1
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if p.poll() is None:
            p.wait()


if __name__ == "__main__":
    sys.exit(main())
