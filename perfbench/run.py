#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload paper_study|yield_screen|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the mpsram library, the mpsram_serve
daemon and the benchmark binary (Release) into .bench_build, or into
$CARGO_TARGET_DIR when that is set, then runs the workload.  The last line
of standard output is the result JSON; build logs go to standard error.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Environment pins that would silently change what a workload computes.
PINNED_ENV = ("MPSRAM_SIM_ACCURACY", "MPSRAM_SOLVER_POLICY", "MPSRAM_CACHE",
              "MPSRAM_CACHE_DIR")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir, env):
    """Configure once, then bring the two binaries up to date."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=log, stderr=log, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "mpsram_perfbench", "mpsram_serve", "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=log, stderr=log, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_study", "yield_screen", "serve_mix"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the mpsram sources (CMakeLists.txt, src/) are "
              "missing beside perfbench/; nothing to measure",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    for name in PINNED_ENV:
        if env.pop(name, None) is not None:
            print(f"perfbench: cleared {name} for this run", file=sys.stderr)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    rel = os.path.relpath(build_dir, ROOT)
    cmd = [os.path.join(build_dir, "mpsram_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           # Relative to the checkout root: the daemon's socket path must
           # fit in a sockaddr_un however deep the checkout sits.
           "--serve-binary", os.path.join(rel, "mpsram", "mpsram_serve"),
           "--work-dir", os.path.join(rel, "work"),
           "--commit", source_id()]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
