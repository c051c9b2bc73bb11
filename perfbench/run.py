#!/usr/bin/env python3
"""Build and run the end-to-end protocol benchmark (see README.md).

    python3 perfbench/run.py --workload bulk_load --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
`perfbench` binary under .bench_build/perfbench (RelWithDebInfo); later calls
rebuild incrementally. Build output goes to stderr; the binary's report goes
to stdout and ends with the one-line JSON result.

--selftest runs every workload at its m = 4 smoke size, untraced and traced,
twice at the same seed, and checks that both runs pass the oracle and the
fidelity checks and print the same outcome digest.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("bulk_load", "wide_bus", "disputes")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "protocol" / "runner.hpp").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "perfbench"])
    for step in steps:
        # Keep stdout for the report: the build talks on stderr only.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_binary(args):
    """Runs perfbench with `args`; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def selftest():
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            digests = []
            for _ in range(2):
                code, out = run_binary(["--workload", workload, "--seed", "7", "--seconds",
                                        "0.5", "--trace", trace, "--smoke"])
                lines = out.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                digest = [l.split("=", 1)[1] for l in lines if "outcome_digest=" in l]
                digests.append(digest[0] if digest else None)
                if code != 0 or not result.get("correct") or result.get("failed") != 0:
                    ok = False
                    sys.stderr.write(out)
            same = digests[0] is not None and digests[0] == digests[1]
            ok = ok and same
            print(f"selftest {workload} trace={trace}: digest {digests[0]} "
                  f"{'repeats' if same else 'DIFFERS'}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its m = 4 smoke size")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        return selftest()
    flags = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", args.trace]
    if args.smoke:
        flags.append("--smoke")
    code, out = run_binary(flags)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
