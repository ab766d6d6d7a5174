"""Self-tests of the benchmark: inputs, checks, trace arithmetic and bindings.

    python3 -m pytest -q perfbench/tests

The pass tests run every workload once untraced and once traced (about a
minute in all).  Scratch files go to perfbench/out/selftest/.
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import record_expected  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch(request):
    path = HERE / "out" / "selftest" / re.sub(r"[^\w.-]", "_", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload, scratch):
    workloads.write_inputs(workloads.generate(workload, 7), scratch / "a")
    workloads.write_inputs(workloads.generate(workload, 7), scratch / "b")
    workloads.write_inputs(workloads.generate(workload, 8), scratch / "c")
    names = sorted(p.name for p in (scratch / "a").iterdir())
    assert names == sorted(p.name for p in (scratch / "b").iterdir())
    assert all((scratch / "a" / n).read_bytes() == (scratch / "b" / n).read_bytes() for n in names)
    assert any((scratch / "a" / n).read_bytes() != (scratch / "c" / n).read_bytes() for n in names)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_meet_their_preconditions(workload):
    for seed in range(20):
        assert workloads.check_preconditions(workload, workloads.generate(workload, seed)) == []


def test_preconditions_catch_unfit_inputs():
    wide = workloads.generate("analyze", 1)["wide.json"]
    # domain 0 (regions 0 and 1) feeds only regions 0 and 1: reducible, so no closed form
    n = workloads.WIDE_REGIONS
    reducible = dict(wide, region_domains=[0, 0] + [1 + k % (n // 2 - 1) for k in range(n - 2)])
    assert "connection pattern is reducible" in workloads.curve_problems(reducible)
    shallow = json.loads(json.dumps(workloads.generate("surface", 1)))
    shallow["surface.json"]["x_curves"][0]["curve"]["depth"] = workloads.SURFACE_DEPTH - 1
    assert any("1/(4*resolution)" in p for p in workloads.check_preconditions("surface", shallow))


def test_closed_form_and_point_prediction():
    doc = workloads.generate("analyze", 1)["model1.json"]
    doc = dict(doc, scaling={"kind": "constant", "value": 0.6})
    assert workloads.closed_form(doc) == pytest.approx(1.0 + math.log(2.4, 4), abs=1e-12)
    export = workloads.generate("export", 1)["curve.json"]
    counts = workloads.predicted_points(export, workloads.EXPORT_DEPTH)
    assert sum(counts) - 3 == 4 * 2 ** workloads.EXPORT_DEPTH + 1


# ---------------------------------------------------------------------------
# trace arithmetic
# ---------------------------------------------------------------------------

def test_self_time_on_a_synthetic_call_tree():
    # pass 0: root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    # pass 1: a lone b [0, 0.5]
    tree = [
        ("cli.main", 0.0, 10.0, -1, 0, None),
        ("rifs.build_model", 1.0, 4.0, 0, 0, None),
        ("catalog.abs_extrema", 2.0, 3.0, 1, 0, None),
        ("io.write_json", 5.0, 9.0, 0, 0, {"bytes": 100}),
        ("io.write_json", 0.0, 0.5, -1, 1, {"bytes": 40}),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 0.5]
    per_pass = spans.pass_metrics(tree)
    assert per_pass[0]["cli.main.self_s"] == 3.0
    assert per_pass[0]["rifs.build_model.self_s"] == 2.0
    assert per_pass[0]["io.write_json.bytes"] == 100
    assert per_pass[1]["io.write_json.calls"] == 1
    assert per_pass[1]["cli.main.calls"] == 0
    medians = spans.median_metrics(per_pass)
    assert medians["io.write_json.self_s"] == (4.0 + 0.5) / 2
    assert set(medians) | {"trace.overhead_s"} == set(spans.METRICS)


def test_tracer_records_nesting_and_restores_bindings():
    from fractalis import catalog, cli, dimension, rifs

    tracer = spans.Tracer()
    originals = (rifs.refine_attractor, dimension.refine_attractor, cli.main,
                 catalog.abs_extrema, dimension.abs_extrema)
    with tracer.installed():
        tracer.pass_id = 0
        assert dimension.refine_attractor is rifs.refine_attractor is not originals[0]
        spec = catalog.Constant(0.5)
        dimension.abs_extrema(spec, (0.0, 1.0))
    assert (rifs.refine_attractor, dimension.refine_attractor, cli.main,
            catalog.abs_extrema, dimension.abs_extrema) == originals
    assert [s[0] for s in tracer.spans] == ["catalog.abs_extrema"]
    assert {"fractalis.rifs.refine_attractor", "fractalis.dimension.refine_attractor",
            "fractalis.surface.refine_attractor", "fractalis.cli.refine_attractor"} <= set(
        tracer.bindings["rifs.refine_attractor"])
    assert {"fractalis.catalog.abs_extrema", "fractalis.rifs.abs_extrema",
            "fractalis.dimension.abs_extrema"} <= set(tracer.bindings["catalog.abs_extrema"])


# ---------------------------------------------------------------------------
# whole passes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_untraced_and_reaches_its_layers(workload, scratch):
    docs = workloads.generate(workload, 3)
    workloads.write_inputs(docs, scratch / "inputs")
    plain = workloads.run_pass(workload, scratch / "inputs", scratch / "plain")
    assert all(r["error"] is None for r in plain), plain
    problems, outcomes = workloads.check_outputs(workload, docs, scratch / "plain")
    assert problems == {op: [] for op, _, _ in workloads.PASSES[workload]}
    recorded = json.loads(run.EXPECTED.read_text())[workload]
    assert outcomes == recorded["3"]
    estimating = [op for op, c, _ in workloads.PASSES[workload] if c in ("analyze", "estimate")]
    assert all(outcomes[op]["abs_err"] < 0.5 for op in estimating)

    tracer = spans.Tracer()
    with tracer.installed():
        tracer.pass_id = 0
        traced = workloads.run_pass(workload, scratch / "inputs", scratch / "traced")
    assert traced == plain
    assert run.digest_tree(scratch / "traced") == run.digest_tree(scratch / "plain")

    calls = spans.pass_metrics(tracer.spans)[0]
    missed = [n for n in spans.EXPECTED[workload] if not calls[f"{n}.calls"]]
    assert missed == [], f"never called on {workload}: {missed}"
    ran = [n for n in spans.ABSENT.get(workload, ()) if calls[f"{n}.calls"]]
    assert ran == [], f"should not run on {workload}: {ran}"


def test_output_checks_reject_a_damaged_curve(scratch):
    docs = workloads.generate("export", 2)
    workloads.write_inputs(docs, scratch / "inputs")
    workloads.run_pass("export", scratch / "inputs", scratch / "out")
    csv = scratch / "out" / "curve" / "curve.csv"
    lines = csv.read_bytes().split(b"\n")
    x, y = lines[10].split(b",")
    lines[10] = x + b"," + repr(float(y) + 1e-9).encode()
    csv.write_bytes(b"\n".join(lines))
    problems, _ = workloads.check_outputs("export", docs, scratch / "out")
    assert problems["curve"] == ["curve.csv does not parse back to refine_attractor's arrays"]
    assert problems["surface"] == []


def test_an_outcome_that_differs_from_the_recorded_one_fails_its_op():
    docs = workloads.generate("analyze", 4)
    bench = run.Run("analyze", 4, docs)
    bench.recorded = json.loads(json.dumps(bench.recorded))
    bench.recorded["model2"]["estimate"] += 1e-12
    bench.reference_pass()
    assert (bench.attempted, bench.failed) == (3, 1)
    assert "differs from the recorded" in bench.problems[0]
    bench.warm_pass()
    assert (bench.attempted, bench.failed) == (6, 2)


def test_recorded_outcomes_cover_every_workload():
    recorded = json.loads(run.EXPECTED.read_text())
    assert sorted(recorded) == sorted(workloads.WORKLOADS)
    assert all(sorted(map(int, seeds)) == list(record_expected.SEEDS) for seeds in recorded.values())


# ---------------------------------------------------------------------------
# the benchmark's own contract
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.METRICS.items())
    assert spec["paths"] == ["perfbench"]


def test_run_fails_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
