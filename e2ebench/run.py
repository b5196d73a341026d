#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <replay_day|db_testbed|broker_testbed>
                            --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or
.bench_build when it is unset. The arguments go unchanged to the e2ebench
binary, which checks them; traced runs write their spans under
<build>/spans/. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero without a result when the
program's sources are missing or do not build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_quiet(cmd):
    """Runs a build step; shows its output on stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("e2ebench: build step failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    src = os.path.join(HERE, "..", "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        sys.exit("e2ebench: the program's sources (src/) are not here; "
                 "run from the root of a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", "e2ebench"])
    return out


def main(argv):
    out = build()
    cmd = [os.path.join(out, "e2ebench")] + argv + [
        "--spans-dir", os.path.join(out, "spans")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
