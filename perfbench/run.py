#!/usr/bin/env python3
"""Builds nearpeerd and the benchmark from this checkout, then runs it.

    python3 perfbench/run.py --workload query_1r|churn_1r|fed_4r|all \
        --seed N --seconds S --trace 0|1

Run from the root of the checkout. Both programs build in release mode
into $CARGO_TARGET_DIR (default .bench_build); results and traced spans
land in .bench_out/. The last stdout line is the JSON result object
(for --workload all, one object keyed by workload). The exit code is
non-zero when the build fails, any answer fails verification, or the
load generator fell behind its schedule.
"""

import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["query_1r", "churn_1r", "fed_4r"]
ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def build(target: Path) -> bool:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "nearpeer-bench", "--bin", "nearpeerd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_sha() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                               text=True, check=True).stdout.strip()
        return sha + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def run_one(binary: Path, args: list, extra: list) -> subprocess.CompletedProcess:
    # Own process group, so a daemon left behind by a killed run is
    # still reaped below.
    proc = subprocess.Popen([str(binary), *args, *extra], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return subprocess.CompletedProcess(proc.args, proc.returncode, out)


def main() -> int:
    args = sys.argv[1:]
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    extra = [
        "--daemon", str(target / "release" / "nearpeerd"),
        "--out", str(ROOT / ".bench_out"),
        "--git", git_sha(),
        "--command", shlex.join(["python3", "perfbench/run.py", *args]),
    ]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        i = args.index("--workload")
        rest = args[:i] + args[i + 2:]
        results, code = {}, 0
        for name in WORKLOADS:
            done = run_one(binary, ["--workload", name, *rest], extra)
            sys.stdout.write(done.stdout)
            lines = done.stdout.strip().splitlines()
            results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            code = code or done.returncode
        print(json.dumps(results))
        return code
    done = run_one(binary, args, extra)
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
