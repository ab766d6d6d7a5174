#!/usr/bin/env python3
"""Paired perfbench runs of two revisions, alternating, from git archive copies.

    python3 scripts/paired_bench.py [--parent HEAD~1] [--change HEAD] \\
        [--workloads export analyze surface] [--pairs 10] [--seconds 20] \\
        [--seed 80] [--out BENCH_<n>.json]

Each revision's committed files are copied with `git archive` into
`<work>/parent` and `<work>/change`, two paths of equal length (the
benchmark's peak RSS depends on the checkout path's length).  Pair i runs
the benchmark command of BENCHMARK.json with `--workload W --seed
<seed + i> --seconds S --trace 0` once in each copy, the parent first on
even pairs and the change first on odd ones.  For every end-to-end metric
it prints the median [q1, q3] of each side's run results, "change
better in k of n" (the pairs whose change result is strictly better) and
a verdict: "gain shown" when k >= 0.9 n, the change's median is better
than the parent's by more than the parent's q3 - q1, and the change has
no more failed ops than the parent; "worse" when its median is worse than
the parent's by more than the metric's relative `bound` in BENCHMARK.json;
"unresolved" when the parent's q3 - q1 is wider than that bound, unless
every change run is better than every parent run; "no gain shown"
otherwise.
`--out` writes, per workload, the change's result of the first pair as
`{command, seed, seconds, usable_cpus, result}`, the layout of every
BENCH_<pr>.json.  The copies are removed at the end unless `--work` names
a directory to keep them in.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")   # equal lengths, so both checkouts' paths are as long


def archive(rev, dest):
    """The committed files of `rev` at the new directory `dest`."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def perfbench(checkout, argv):
    """The result object, the last stdout line, of one benchmark run in `checkout`."""
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(median, q1, q3); q1 = q3 = the value for a single one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(metric, better, parent, change, more_failed):
    """The module docstring's verdict on one metric, from the count of
    pairs the change won, each side's values and whether the change had
    more failed ops."""
    sign = 1 if metric["better"] == "lower" else -1
    p_median, p_q1, p_q3 = quartiles(parent)
    gain = sign * (p_median - quartiles(change)[0])
    bound = metric["bound"] * abs(p_median)
    if 10 * better >= 9 * len(change) and gain > p_q3 - p_q1 and not more_failed:
        return "gain shown"
    if -gain > bound:
        return "worse"
    if p_q3 - p_q1 > bound and max(sign * c for c in change) >= min(sign * p for p in parent):
        return "unresolved"
    return "no gain shown"


def summary(metrics, results):
    """Lines comparing the sides' results of one workload, pair by pair."""
    lines, failed = [], {}
    for side in SIDES:
        failed[side] = sum(r["failed"] for r in results[side])
        correct = all(r["correct"] for r in results[side])
        lines.append(f"  {side}: correct {correct}, {failed[side]} failed ops")
    more_failed = failed["change"] > failed["parent"]
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        better = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
        stats = {side: "%.4g [%.4g, %.4g]" % quartiles(values[side]) for side in SIDES}
        lines.append(f"  {name} ({metric['unit']}): {stats['parent']} -> {stats['change']}, "
                     f"change better in {better} of {len(values['change'])}: "
                     f"{verdict(metric, better, values['parent'], values['change'], more_failed)}")
    return lines


def run(argv=None, archive=archive, perfbench=perfbench):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD~1")
    p.add_argument("--change", default="HEAD")
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--seed", type=int, default=80)
    p.add_argument("--out", type=Path)
    p.add_argument("--work", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    work = args.work or Path(tempfile.mkdtemp(prefix="paired_bench."))
    try:
        for side, rev in zip(SIDES, (args.parent, args.change)):
            archive(rev, work / side)
        record = {}
        for workload in workloads:
            results = {side: [] for side in SIDES}
            for i in range(args.pairs):
                seed = args.seed + i
                argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
                        "--seconds", str(args.seconds), "--trace", "0"]
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    results[side].append(perfbench(work / side, argv))
                if i == 0:
                    record[workload] = {"command": " ".join(argv), "seed": seed,
                                        "seconds": args.seconds,
                                        "usable_cpus": len(os.sched_getaffinity(0)),
                                        "result": results["change"][0]}
            print(f"{workload}: {args.pairs} pairs from seed {args.seed}, {args.seconds} s runs, "
                  f"{args.parent} -> {args.change}")
            print("\n".join(summary(bench["end_to_end"], results)), flush=True)
        if args.out:
            args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    finally:
        if args.work is None:
            shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(run())
