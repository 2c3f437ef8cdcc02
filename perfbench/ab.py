#!/usr/bin/env python3
"""Paired A/B runs of the pnoc benchmark on two checkouts.

    python3 perfbench/ab.py --a <parent checkout> --b <change checkout>
                            [--workloads lowload_uniform,...] [--pairs 10]
                            [--seconds 30] [--trace 0] [--no-null]

Both sides are built with THIS checkout's benchmark code (perfbench/ is the
same on both sides; only the measured sources differ) into
.bench_build/ab-a and .bench_build/ab-b.  Pair i runs every workload once on
each side with seed first_seed+i, alternating which side runs first.  Then a
null experiment runs A against itself the same way, so the spread between
the parent's own runs is measured under the same conditions.

For each workload and metric it prints each side's median and quartiles,
B's median over A's, and the fraction of pairs B won (ties count for
neither).  A gain is claimed only when B wins at least 9 of 10 pairs and the
medians differ by more than A's interquartile distance; the verdict column
applies that rule.  It also compares the exact work blocks of A and B seed
by seed: any difference is listed, since a speed-only change must leave them
identical (engine work may only shrink).
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build/run helpers)


def load_directions():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def one_run(driver, workload, seed, seconds, trace):
    code, out = run.run_driver(driver, workload, seed, seconds, trace)
    result = run.parse_result(out)
    if code != 0 or result is None:
        raise RuntimeError("%s (seed %d) produced no result" % (workload, seed))
    work = next((line[5:] for line in out.splitlines() if line.startswith("work ")), None)
    return result, work


def paired(drivers, workloads, pairs, first_seed, seconds, trace):
    """values[side][workload][metric] -> list; work[side][(workload, seed)]."""
    values = {side: {w: {} for w in workloads} for side in drivers}
    work = {side: {} for side in drivers}
    failed = {side: 0 for side in drivers}
    sides = list(drivers)
    for i in range(pairs):
        seed = first_seed + i
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for side in order:
                result, block = one_run(drivers[side], workload, seed, seconds, trace)
                failed[side] += result["failed"]
                work[side][(workload, seed)] = block
                for name, entry in result["metrics"].items():
                    values[side][workload].setdefault(name, []).append(entry["value"])
        print("pair %d/%d done" % (i + 1, pairs), file=sys.stderr)
    return values, work, failed


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def report(title, values, work, failed, directions, side_a, side_b):
    print("\n== %s ==" % title)
    print("failed operations: %s %d, %s %d" % (side_a, failed[side_a], side_b, failed[side_b]))
    header = "%-20s %-36s %-32s %-32s %8s %6s  %s" % (
        "workload", "metric", side_a + " median [q1, q3]", side_b + " median [q1, q3]",
        "b/a", "b wins", "verdict")
    print(header)
    for workload in values[side_a]:
        for metric in sorted(values[side_a][workload]):
            a = values[side_a][workload][metric]
            b = values[side_b][workload][metric]
            qa, qb = quartiles(a), quartiles(b)
            higher = directions.get(metric, "lower") == "higher"
            wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            spread = qa[2] - qa[0]
            gain = wins >= 0.9 * len(a) and abs(qb[1] - qa[1]) > spread
            print("%-20s %-36s %-32s %-32s %8.4f %6s  %s" % (
                workload, metric,
                "%.5g [%.5g, %.5g]" % (qa[1], qa[0], qa[2]),
                "%.5g [%.5g, %.5g]" % (qb[1], qb[0], qb[2]),
                ratio, "%d/%d" % (wins, len(a)), "gain" if gain else "-"))
    diffs = [key for key in work[side_a] if work[side_a][key] != work[side_b].get(key)]
    if not diffs:
        print("exact work blocks: identical on every (workload, seed)")
    for workload, seed in diffs:
        wa = json.loads(work[side_a][(workload, seed)])
        wb = json.loads(work[side_b][(workload, seed)])
        changed = ["%s %d->%d" % (k, wa[k], wb.get(k, -1)) for k in wa if wa[k] != wb.get(k)]
        print("exact work differs: %s seed %d: %s" % (workload, seed, ", ".join(changed)))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="parent checkout (pnoc sources)")
    parser.add_argument("--b", required=True, help="change checkout (pnoc sources)")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--no-null", action="store_true", help="skip the A-vs-A experiment")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = set(workloads) - set(run.WORKLOADS)
    if unknown:
        parser.error("unknown workload(s): %s" % ", ".join(sorted(unknown)))
    if args.pairs < 10:
        print("warning: fewer than 10 pairs cannot support a gain claim", file=sys.stderr)

    drivers = {
        "A": run.build(os.path.join(run.BUILD_DIR, "ab-a"), args.a),
        "B": run.build(os.path.join(run.BUILD_DIR, "ab-b"), args.b),
    }
    directions = load_directions()
    values, work, failed = paired(drivers, workloads, args.pairs, args.first_seed,
                                  args.seconds, args.trace)
    report("A = %s, B = %s" % (args.a, args.b), values, work, failed, directions, "A", "B")
    if not args.no_null:
        null = {"A": drivers["A"], "A'": drivers["A"]}
        values, work, failed = paired(null, workloads, args.pairs, args.first_seed,
                                      args.seconds, args.trace)
        report("null experiment: A against itself", values, work, failed, directions, "A", "A'")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
