"""Smoke runs of the scripts under scripts/, so a library API change that
breaks them fails here instead of at their next manual use."""
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dimension_sweep_runs(capsys):
    assert load("dimension_sweep").run(["--depth", "6", "--factors", "0.6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].split()[0] == "0.60"


def test_render_figures_fast_runs(tmp_path, capsys):
    assert load("render_figures").run(["--fast", "--out-dir", str(tmp_path)]) == 0
    fixtures = sorted(p.stem for p in (SCRIPTS.parent / "fixtures").glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == fixtures


def test_paired_bench_alternates_and_records(tmp_path, capsys):
    """A stub copy and a stub benchmark: no benchmark runs here."""
    copies, calls = [], []

    def archive(rev, dest):
        copies.append((rev, dest.name))
        dest.mkdir(parents=True)

    def perfbench(checkout, argv):
        calls.append((checkout.name, argv[argv.index("--seed") + 1]))
        wall = 1.0 if checkout.name == "parent" else 0.9
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": wall, "unit": "s"}
                            for name in ("wall_s", "cold_s", "setup_s", "peak_rss_mb")}}

    out = tmp_path / "BENCH.json"
    argv = ["--parent", "A", "--change", "B", "--workloads", "export", "--pairs", "3",
            "--seconds", "2", "--seed", "5", "--out", str(out), "--work", str(tmp_path / "w")]
    assert load("paired_bench").run(argv, archive=archive, perfbench=perfbench) == 0
    assert copies == [("A", "parent"), ("B", "change")]
    assert calls == [("parent", "5"), ("change", "5"), ("change", "6"), ("parent", "6"),
                     ("parent", "7"), ("change", "7")]
    text = capsys.readouterr().out
    assert "wall_s (s): 1 [1, 1] -> 0.9 [0.9, 0.9], change better in 3 of 3" in text
    record = json.loads(out.read_text())
    assert list(record) == ["export"]
    assert record["export"]["command"] == ("python3 perfbench/run.py --workload export "
                                           "--seed 5 --seconds 2 --trace 0")
    assert record["export"]["seed"] == 5 and record["export"]["result"]["correct"]


def test_paired_bench_verdicts(tmp_path, capsys):
    """Each verdict from a stub benchmark: wall_s better in every pair and
    by more than the parent's spread, cold_s 30 % worse (bound 25 %),
    setup_s better in 8 pairs of 10 and peak_rss_mb better by less than
    the parent's spread."""
    def perfbench(checkout, argv):
        i = int(argv[argv.index("--seed") + 1])
        base = 1.0 + 0.01 * (i % 5)   # the parent's runs: q3 - q1 = 0.02
        change = {"wall_s": base - 0.1, "cold_s": 1.3 * base,
                  "setup_s": base - 0.1 if i < 8 else base + 0.1, "peak_rss_mb": base - 0.01}
        values = change if checkout.name == "change" else dict.fromkeys(change, base)
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}

    argv = ["--workloads", "analyze", "--pairs", "10", "--seed", "0", "--work", str(tmp_path)]
    assert load("paired_bench").run(argv, archive=lambda rev, dest: dest.mkdir(),
                                    perfbench=perfbench) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["wall_s"].endswith("change better in 10 of 10: gain shown")
    assert lines["cold_s"].endswith("change better in 0 of 10: worse")
    assert lines["setup_s"].endswith("change better in 8 of 10: no gain shown")
    assert lines["peak_rss_mb"].endswith("change better in 10 of 10: no gain shown")
