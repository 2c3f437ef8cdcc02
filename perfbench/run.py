#!/usr/bin/env python3
"""The pnoc benchmark: builds the simulator from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-pins        # regenerate perfbench/pins.json

Run it from the root of a pnoc checkout.  The first run configures and
builds perfbench/CMakeLists.txt into .bench_build/ (the simulator library,
pnoc_serve and the perfbench driver); later runs only rebuild what changed.
Build output goes to stderr; stdout is the driver's report, whose last line
is the result object {"correct", "attempted", "failed", "metrics"}.
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("lowload_uniform", "hotspot_saturation", "served_grid")
# The pinned seeds: the default one, and one held out from tuning so a
# simulator-only change is shown not to move any simulated statistic.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261016
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir=BUILD_DIR, source_dir=None):
    """Configures and builds the benchmark; returns the driver path.

    The default build is configured once.  A build of another checkout
    (`source_dir`) is configured every time, so a reused build directory
    never measures the sources of an earlier call.
    """
    if source_dir is not None or not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if source_dir is not None:
            cmd.append("-DPNOC_SOURCE_DIR=" + os.path.abspath(source_dir))
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace, pins=PINS, work_dir=None):
    """Runs the driver once; returns (exit code, stdout text)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir",
           work_dir or os.path.join(os.path.dirname(driver), "work")]
    if pins:
        cmd += ["--pins", pins]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds + 150)
    return proc.returncode, proc.stdout


def parse_result(stdout):
    """The result object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def pin_entry(stdout):
    """The {"key", "units"} entry of the driver's `pin` line."""
    for line in stdout.splitlines():
        if line.startswith("pin "):
            return json.loads(line[4:])
    raise RuntimeError("driver printed no pin line")


def write_pins(driver):
    pins = {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            code, out = run_driver(driver, workload, seed, 1, 0, pins=None)
            result = parse_result(out)
            if code != 0 or result is None or not result["correct"]:
                raise RuntimeError("%s seed %d failed; not pinning" % (workload, seed))
            entry = pin_entry(out)
            pins[entry["key"]] = {"units": entry["units"]}
    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "pins": pins}
    with open(PINS, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s (%d entries)" % (PINS, len(pins)))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=PINS, help="pinned digests/work (default: %(default)s)")
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate the pins for the default and held-out seeds")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no pnoc sources next to %s; run from a pnoc checkout" % HERE,
              file=sys.stderr)
        return 2
    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2
    if args.write_pins:
        write_pins(driver)
        return 0
    code, out = run_driver(driver, args.workload, args.seed, args.seconds, args.trace,
                           pins=args.pins)
    sys.stdout.write(out)
    if code != 0 or parse_result(out) is None:
        print("perfbench: driver exited %d without a result" % code, file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
