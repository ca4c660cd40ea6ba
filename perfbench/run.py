#!/usr/bin/env python3
"""Builds the PowerLog benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
`perfbench/` (which pulls in the library from `src/`) under
`$CARGO_TARGET_DIR/perfbench`, default `.bench_build/perfbench`, in the
repository's default RelWithDebInfo configuration; later calls only let the
build tool confirm it is up to date. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Traces of `--trace 1` runs are
written to `.bench_out/`.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
SOURCE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(SOURCE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j4"],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    args = [str(binary), *argv]
    if "--selftest" not in argv:
        args += ["--out-dir", str(out_dir)]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
