#!/usr/bin/env python3
"""fractalis benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload {export,analyze,surface} --seed N \\
        --seconds S --trace {0,1}

Generates the workload's configs from the seed into
perfbench/out/<workload>-seed<N>/inputs, checks their preconditions, runs one
checked reference pass (discarded from the timings), then measures until
about S seconds after start, so the whole run takes about S seconds:

  --trace 0  end-to-end metrics.  Each step takes one setup sample (a fresh
             interpreter that imports fractalis and parse_configs the
             inputs: setup_s), one warm in-process pass (wall_s) and the
             same pass in a fresh interpreter (cold_s, peak_rss_mb).
  --trace 1  per-layer metrics.  Untraced passes alternate with passes in
             which spans.Tracer wraps the library's layers; trace.overhead_s
             is the traced median minus the untraced median.

Every op of every pass counts as attempted; it fails on an exception, a
non-zero exit, a failed output check on the reference pass, or artifacts
that differ from the reference pass's.  A summary with medians, quartiles
and sample counts goes to stdout and to result.json in the run directory;
the last stdout line is the JSON result {correct, attempted, failed, metrics}.
Exit code 2 without a result means the benchmark could not run.
"""
import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"      # written by record_expected.py

BLAS_THREADS = 1          # at most nproc; one thread keeps timings steady
MIN_SAMPLES = 3           # samples of each kind, even past the deadline
CHILD_TIMEOUT_S = 150

# before numpy is imported anywhere, here, in the fresh interpreters or by an importer
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END = {"wall_s": "s", "cold_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def digest_tree(directory):
    """sha256 over every file under each op directory, keyed by op id."""
    out = {}
    for op_dir in sorted(p for p in directory.iterdir() if p.is_dir()):
        h = hashlib.sha256()
        for path in sorted(op_dir.rglob("*")):
            h.update(path.relative_to(op_dir).as_posix().encode() + b"\0")
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        out[op_dir.name] = h.hexdigest()
    return out


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args):
    """(seconds, exit code, peak RSS in MB) of one fresh interpreter, killed after CHILD_TIMEOUT_S."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *map(str, args)],
                            env=child_env(), stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "machine": platform.machine()}


class Run:
    """One workload at one seed: its inputs, pass bookkeeping and failure counts."""

    def __init__(self, workload, seed, docs):
        import workloads

        self.wl = workloads
        self.workload, self.docs = workload, docs
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
        self.recorded = recorded[workload].get(str(seed))   # None: seed not recorded
        self.dir = fresh_dir(OUT / f"{workload}-seed{seed}")
        self.inputs = self.dir / "inputs"
        workloads.write_inputs(docs, self.inputs)
        self.attempted = self.failed = 0
        self.problems = []         # "<pass> <op>: message"
        self.reference = None      # op id -> artifact digest of the checked pass
        self.unfit = set()         # op ids whose reference artifacts failed a check
        self.outcomes = {}         # op id -> estimate or curve digest of the reference pass

    def _count(self, label, results, out):
        digests = digest_tree(out)
        for r in results:
            self.attempted += 1
            error = r["error"]
            if error is None and digests.get(r["op"]) != self.reference.get(r["op"]):
                error = "artifacts differ from the checked reference pass"
            elif error is None and r["op"] in self.unfit:
                error = "same artifacts as the reference pass, which failed its checks"
            if error:
                self.failed += 1
                self.problems.append(f"{label} {r['op']}: {error}")

    def reference_pass(self):
        """Run, fully check and fingerprint one pass; its time is discarded."""
        out = fresh_dir(self.dir / "reference")
        results = self.wl.run_pass(self.workload, self.inputs, out)
        found, self.outcomes = self.wl.check_outputs(self.workload, self.docs, out)
        if self.recorded is not None:
            for op, outcome in self.outcomes.items():
                if outcome != self.recorded.get(op):
                    found[op].append(f"outcome {outcome} differs from the recorded "
                                     f"{self.recorded.get(op)} (expected.json)")
        self.reference = digest_tree(out)
        for r in results:
            if r["error"] is None and found[r["op"]]:
                r["error"] = "; ".join(found[r["op"]])
        self._count("reference", results, out)
        self.unfit = {op for op, problems in found.items() if problems}

    def warm_pass(self, label="warm"):
        out = fresh_dir(self.dir / "warm")
        start = time.perf_counter()
        results = self.wl.run_pass(self.workload, self.inputs, out)
        elapsed = time.perf_counter() - start
        self._count(label, results, out)
        return elapsed

    def cold_pass(self):
        out = fresh_dir(self.dir / "cold")
        status = self.dir / "cold-status.json"
        status.unlink(missing_ok=True)
        elapsed, code, rss = run_child(["pass", self.workload, self.inputs, out, status])
        if code == 0 and status.exists():
            results = json.loads(status.read_text(encoding="utf-8"))
        else:
            results = [{"op": op, "error": f"fresh interpreter exited with {code}"}
                       for op, _, _ in self.wl.PASSES[self.workload]]
        self._count("cold", results, out)
        return elapsed, rss

    def setup_sample(self):
        elapsed, code, _ = run_child(["setup", self.inputs])
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"setup: fresh interpreter exited with {code}")
        return elapsed


def sample_until(deadline, step):
    """Call step() until the next call would end past the deadline (at least MIN_SAMPLES times)."""
    for n in itertools.count(1):
        begin = time.perf_counter()
        step()
        now = time.perf_counter()
        if n >= MIN_SAMPLES and now + (now - begin) > deadline:
            return


def measure_end_to_end(run, deadline):
    """Interleave setup samples, warm passes and cold passes across the whole window."""
    run_child(["setup", run.inputs])          # compiles bytecode; not a sample
    run.reference_pass()
    samples = {name: [] for name in END_TO_END}

    def step():
        samples["setup_s"].append(run.setup_sample())
        samples["wall_s"].append(run.warm_pass())
        elapsed, peak = run.cold_pass()
        samples["cold_s"].append(elapsed)
        samples["peak_rss_mb"].append(peak)
    sample_until(deadline, step)
    return samples


def measure_layers(run, deadline):
    import spans

    run.reference_pass()
    tracer = spans.Tracer()
    plain, traced = [], []

    def step():
        plain.append(run.warm_pass("untraced"))
        with tracer.installed():
            tracer.pass_id = len(traced)
            traced.append(run.warm_pass("traced"))
    sample_until(deadline, step)
    per_pass = spans.pass_metrics(tracer.spans)
    for pass_id in range(len(traced)):      # each traced pass's coverage is one more op
        calls = per_pass.get(pass_id, {})
        missed = [n for n in spans.EXPECTED[run.workload] if not calls.get(f"{n}.calls")]
        ran = [n for n in spans.ABSENT.get(run.workload, ()) if calls.get(f"{n}.calls")]
        run.attempted += 1
        if missed or ran:
            run.failed += 1
            run.problems.append(f"traced pass {pass_id}: never called (missed binding?) {missed}, "
                                f"should not run {ran}")
    metrics = spans.median_metrics(per_pass)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    with open(run.dir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({"bindings": tracer.bindings, "spans": tracer.records()}, fh)
    samples = {"untraced_s": plain, "traced_s": traced}
    return metrics, {m: spans.METRICS[m] for m in metrics}, samples


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    started = time.perf_counter()
    if not (ROOT / "src" / "fractalis" / "__init__.py").is_file():
        print(f"error: no fractalis sources at {ROOT / 'src'}; run from a fractalis checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    args = parse_args(argv)
    deadline = started + args.seconds
    docs = workloads.generate(args.workload, args.seed)
    problems = workloads.check_preconditions(args.workload, docs)
    if problems:
        print("error: generated inputs are unfit to time:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, docs)
    env = environment()

    if args.trace:
        metrics, units, samples = measure_layers(run, deadline)
        summary = {"samples": samples}
    else:
        samples = measure_end_to_end(run, deadline)
        stats = {name: quartiles(values) for name, values in samples.items()}
        metrics = {name: s["median"] for name, s in stats.items()}
        units = END_TO_END
        summary = {"samples": samples, "stats": stats}

    dim_abs_err = workloads.dim_abs_err(args.workload, run.outcomes)
    summary.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "dim_abs_err": dim_abs_err, "outcomes": run.outcomes,
        "outcomes_recorded": run.recorded is not None,
        "attempted": run.attempted, "failed": run.failed, "fail_ratio": run.failed / run.attempted, "problems": run.problems,
    })
    (run.dir / "result.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    print(f"fractalis benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, inputs in {run.inputs.relative_to(ROOT)}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {units[name]}")
    else:
        for name, s in summary["stats"].items():
            print(f"  {name:<12} median {s['median']:.4f} {units[name]}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    if dim_abs_err is not None:
        print(f"  dim_abs_err  {dim_abs_err!r} (dimensionless, |estimate - closed form|)")
    elif not any(c in ("analyze", "estimate") for _, c, _ in workloads.PASSES[args.workload]):
        print("  dim_abs_err  n/a (no dimension estimate on this workload)")
    else:
        print("  dim_abs_err  missing (an estimate failed)")
    if run.recorded is None:
        print(f"  outcomes     not compared: seed {args.seed} is not recorded in expected.json")
    else:
        print("  outcomes     compared with the ones recorded for this seed in expected.json")
    print(f"  fail_ratio   {run.failed}/{run.attempted} = {run.failed / run.attempted:.4g} "
          "(failed / attempted ops)")
    for line in run.problems[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
