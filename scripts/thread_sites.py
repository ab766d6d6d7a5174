#!/usr/bin/env python3
"""Time each threaded or forked site on one CPU and on every usable CPU.

    python3 scripts/thread_sites.py [--pairs 6]

The sites are refinement (`refine_attractor`), `eval_surface`,
`io.write_pgm`, `estimate_surface_dimension` (whose box counter runs on
the caller's thread, a control), `io.write_curve_csv` and `io.write_obj`.
Their inputs are built from perfbench's seed-0 configs
(`perfbench.workloads.generate`): refinement of the `analyze` workload's
first model, the `surface` workload's 2048 x 2048 field, and the `export`
workload's curve and 384 x 384 surface.  Each site's inputs are built
once, before its first timing.

Pair i times every site once on one CPU and once on all usable CPUs, one
CPU first on even pairs, all first on odd ones; a timing is the median
of CALLS calls.  Only this process is pinned, by os.sched_setaffinity(0,
...), which `shares.usable_cpus` reads and the threads and forks it
starts inherit; its CPU set is restored on exit.  Per site it prints the
median [q1, q3] of each side, the pairs where all CPUs were faster, and
the verdict of `paired_bench.verdict` with one CPU as the parent, all
CPUs as the change and the benchmark's `wall_s` bound: "gain shown"
means the site's threads or forks pay on this host.  Linux only.
"""
import argparse
import functools
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "scripts")]

from fractalis import config, io, merged_curve, refine_attractor, surface  # noqa: E402
from paired_bench import quartiles, verdict  # noqa: E402
from perfbench import workloads  # noqa: E402

SEED = 0
CALLS = 7


def site_calls(directory):
    """{site: prepare}: prepare() returns the call to time, building the
    site's inputs on its first use; a writer writes into `directory`."""
    docs = {w: workloads.generate(w, SEED) for w in ("export", "analyze", "surface")}

    @functools.cache
    def curve(workload, name):
        model_cfg = config.parse_config(docs[workload][name]).curve
        return model_cfg.build(), model_cfg.depth

    @functools.cache
    def field(workload):
        cfg = config.parse_config(docs[workload]["surface.json"])

        def layers(entries):
            samples = surface.CurveSamples.from_model
            return tuple(surface.SurfaceLayer(samples(mc.build(), mc.depth), coeff)
                         for mc, coeff in entries)
        spec = surface.SurfaceSpec(layers(cfg.x_curves), layers(cfg.y_curves))
        return spec, cfg.resolution, surface.eval_surface(spec, cfg.resolution)

    @functools.cache
    def curve_rows():
        return merged_curve(refine_attractor(*curve("export", "curve.json")))

    return {
        "refine_attractor": lambda: functools.partial(
            refine_attractor, *curve("analyze", "model1.json")),
        "eval_surface": lambda: functools.partial(surface.eval_surface, *field("surface")[:2]),
        "write_pgm": lambda: functools.partial(
            io.write_pgm, directory / "surface.pgm", field("surface")[2]),
        "estimate_surface_dimension": lambda: functools.partial(
            surface.estimate_surface_dimension, field("surface")[2], workloads.SURFACE_DELTAS),
        "write_curve_csv": lambda: functools.partial(
            io.write_curve_csv, directory / "curve.csv", *curve_rows()),
        "write_obj": lambda: functools.partial(
            io.write_obj, directory / "surface.obj", field("export")[2]),
    }


def median_time(prepare):
    """Median wall seconds of CALLS calls of the call prepare() returns."""
    call, times = prepare(), []
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(argv=None, pin=os.sched_setaffinity, timer=median_time):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pairs", type=int, default=6)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric = next(m for m in bench["end_to_end"] if m["name"] == "wall_s")
    cpus = os.sched_getaffinity(0)
    sides = {"1 CPU": {min(cpus)}, f"{len(cpus)} CPUs": cpus}
    one, every = sides
    print(f"{args.pairs} pairs, medians of {CALLS} calls, perfbench seed {SEED}, "
          f"usable CPUs {sorted(cpus)}", flush=True)
    with tempfile.TemporaryDirectory(prefix="thread_sites.") as tmp:
        calls = site_calls(Path(tmp))
        times = {site: {side: [] for side in sides} for site in calls}
        try:
            for i in range(args.pairs):
                for site, prepare in calls.items():
                    for side in (one, every) if i % 2 == 0 else (every, one):
                        pin(0, sides[side])
                        times[site][side].append(timer(prepare))
        finally:
            pin(0, cpus)
    for site, runs in times.items():
        better = sum(c < s for s, c in zip(runs[one], runs[every]))
        stats = {side: "%.4g [%.4g, %.4g] s" % quartiles(runs[side]) for side in sides}
        judged = verdict(metric, better, runs[one], runs[every], False)
        print(f"{site}: {one} {stats[one]} -> {every} {stats[every]}, {every} faster in "
              f"{better} of {args.pairs}: {judged}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
