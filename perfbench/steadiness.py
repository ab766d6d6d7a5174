#!/usr/bin/env python3
"""Run the benchmark twice over seeds 1-10 and print how steady each metric is.

    python3 perfbench/steadiness.py

Runs every workload of BENCHMARK.json once per seed in SEEDS, each time in a
fresh run.py process with the benchmark's own arguments and run_seconds, and
the whole sweep SETS times; then one traced run per workload at TRACE_SEED.
Prints the tables of BASELINE.md: for every end-to-end metric each set's
median and quartiles over the seeds, the spread (q3 - q1) / median, the
change of the median from the first set to the last and the metric's bound;
for every workload fail_ratio and dim_abs_err per seed; and the three layers
with the most self time.  Raw results go to perfbench/out/steadiness.json.
"""
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETS = 2
SEEDS = range(1, 11)
TRACE_SEED = 1


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{workload}-seed{seed}" / "result.json").read_text())
    return result, detail, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    report = {"seconds": seconds, "seeds": list(SEEDS), "sets": [], "layers": {}}
    for set_no in range(1, SETS + 1):
        sweep = {}
        for workload in workloads:
            runs = []
            for seed in SEEDS:
                result, detail, elapsed = bench(workload, seed, seconds, 0)
                runs.append({"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             "dim_abs_err": detail["dim_abs_err"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"set {set_no} {workload} seed {seed}: {elapsed:.1f} s, "
                      + ", ".join(f"{k} {v:.4g}" for k, v in runs[-1]["metrics"].items())
                      + f", failed {result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
            stats = {name: spread([r["metrics"][name] for r in runs]) for name in bounds}
            sweep[workload] = {"runs": runs, "stats": stats}
        report["sets"].append(sweep)
    for workload in workloads:
        result, detail, _ = bench(workload, TRACE_SEED, seconds, 1)
        own = {k[:-len(".self_s")]: v["value"] for k, v in result["metrics"].items()
               if k.endswith(".self_s")}
        report["layers"][workload] = {
            "top_self_s": sorted(own.items(), key=lambda kv: -kv[1])[:3],
            "overhead_s": result["metrics"]["trace.overhead_s"]["value"],
            "untraced_s": statistics.median(detail["samples"]["untraced_s"]),
            "correct": result["correct"]}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steadiness.json").write_text(json.dumps(report, indent=2) + "\n")

    first, last = report["sets"][0], report["sets"][-1]
    head = ["workload", "metric"]
    for set_no in range(1, SETS + 1):
        head += [f"set {set_no} median [q1, q3]", "spread"]
    print("| " + " | ".join(head + ["last vs first", "bound"]) + " |")
    print("|" + "---|" * (len(head) + 2))
    for workload in workloads:
        for name in bounds:
            cells = [workload, f"{name} ({units[name]})"]
            for sweep in report["sets"]:
                s = sweep[workload]["stats"][name]
                cells += [f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]", f"{s['spread']:.3f}"]
            a = first[workload]["stats"][name]["median"]
            b = last[workload]["stats"][name]["median"]
            print("| " + " | ".join(cells + [f"{(b - a) / a:+.3f}", str(bounds[name])]) + " |")
    print()
    for workload in workloads:
        runs = [r for sweep in report["sets"] for r in sweep[workload]["runs"]]
        errors = [[r["dim_abs_err"] for r in sweep[workload]["runs"]] for sweep in report["sets"]]
        shown = "n/a" if errors[0][0] is None else ", ".join(f"{e:.6f}" for e in errors[0])
        print(f"- `{workload}`: fail_ratio {sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}; dim_abs_err identical across sets: "
              f"{all(e == errors[0] for e in errors)}; per seed {SEEDS[0]}-{SEEDS[-1]}: {shown}")
    print()
    for workload, body in report["layers"].items():
        top = ", ".join(f"`{name}` {value:.3f} s" for name, value in body["top_self_s"])
        print(f"- `{workload}`: {top}; trace.overhead_s {body['overhead_s']:+.3f} s "
              f"on a {body['untraced_s']:.3f} s untraced pass; correct {body['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
