#!/usr/bin/env python3
"""Build nnnbench once per checkout, then run it.

From the repository root:

    python3 bench/e2e/run.py --workload campus --seed 1 --seconds 10 --trace 0
    python3 bench/e2e/run.py --all            # every workload, then a table

Arguments other than --all go to nnnbench unchanged (see README.md).
The build lives in $CARGO_TARGET_DIR if set (relative paths are taken
from the repository root), else in .bench_build/. It is configured on
first use and brought up to date on every run, under a lock so that
concurrent runs never build at once. Build output goes to stderr, so
the last line of stdout stays nnnbench's JSON result.
"""

import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configure (first time) and build nnnbench; returns the binary."""
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
                # A half-configured tree would skip configuring next time.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail("cmake configure failed")
        step = ["cmake", "--build", str(out), "--target", "nnnbench",
                "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
            fail("build failed")
    return out / "nnnbench"


def source_id():
    """The git commit, or (outside a git checkout) a hash of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "bench/e2e"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def run(binary, args, out):
    args = list(args)
    if "--commit" not in args:
        args += ["--commit", source_id()]
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed') or 1}"
        args += ["--trace-out", str(traces / f"{name}.json")]
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args).returncode


def run_all(binary, args, out):
    names = subprocess.run([str(binary), "--list"], capture_output=True,
                           text=True, check=True).stdout.split()
    rows, status = [], 0
    for name in names:
        result = subprocess.run(
            [str(binary), "--workload", name, "--commit", source_id()] + args,
            capture_output=True, text=True)
        print(result.stdout, end="", flush=True)
        status = status or result.returncode
        last = result.stdout.strip().splitlines()[-1:] or ["{}"]
        try:
            metrics = json.loads(last[0]).get("metrics", {})
        except json.JSONDecodeError:
            metrics = {}
        for metric, value in metrics.items():
            rows.append((name, metric, value["value"], value["unit"]))
    print(f"\n{'workload':<14} {'metric':<26} {'value':>14}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<26} {value:>14.6g}  {unit}")
    return status


def main():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources under {ROOT}")
    args = sys.argv[1:]
    out = build_dir()
    binary = build(out)
    if "--all" in args:
        args.remove("--all")
        return run_all(binary, args, out)
    return run(binary, args, out)


if __name__ == "__main__":
    sys.exit(main())
