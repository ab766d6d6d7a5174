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
    """Each verdict from a stub benchmark.  First, with narrow parent runs:
    wall_s better in every pair and by more than the parent's spread,
    cold_s 30 % worse (bound 25 %), setup_s better in 8 pairs of 10 and
    peak_rss_mb better by less than the parent's spread.  Then, with one
    more failed op at the change: wall_s as before, and cold_s, setup_s and
    peak_rss_mb whose parent runs spread wider than the bound: slightly
    better, every change run better than every parent run, and unchanged."""
    def verdicts(values_of, change_failed):
        def perfbench(checkout, argv):
            i = int(argv[argv.index("--seed") + 1])
            values = values_of(checkout.name, i)
            failed = change_failed if checkout.name == "change" and i == 0 else 0
            return {"correct": True, "attempted": 3, "failed": failed,
                    "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}

        argv = ["--workloads", "analyze", "--pairs", "10", "--seed", "0", "--work",
                str(tmp_path / str(change_failed))]
        assert load("paired_bench").run(argv, archive=lambda rev, dest: dest.mkdir(parents=True),
                                        perfbench=perfbench) == 0
        return {line.split()[0]: line.split("change better in ")[1]
                for line in capsys.readouterr().out.splitlines() if "change better in" in line}

    def narrow(side, i):
        base = 1.0 + 0.01 * (i % 5)   # the parent's runs: q3 - q1 = 0.02
        change = {"wall_s": base - 0.1, "cold_s": 1.3 * base,
                  "setup_s": base - 0.1 if i < 8 else base + 0.1, "peak_rss_mb": base - 0.01}
        return change if side == "change" else dict.fromkeys(change, base)

    assert verdicts(narrow, 0) == {
        "wall_s": "10 of 10: gain shown", "cold_s": "0 of 10: worse",
        "setup_s": "8 of 10: no gain shown", "peak_rss_mb": "10 of 10: no gain shown"}

    def wide(side, i):
        base = 1.0 + 0.01 * (i % 5)
        spread = 1.0 + 0.25 * (i % 5)   # q3 - q1 = 0.625, over 25 % of the median 1.5
        if side == "parent":
            return {"wall_s": base, "cold_s": spread, "setup_s": spread, "peak_rss_mb": spread}
        return {"wall_s": base - 0.1, "cold_s": spread - 0.01, "setup_s": 0.99,
                "peak_rss_mb": spread}

    assert verdicts(wide, 1) == {
        "wall_s": "10 of 10: no gain shown", "cold_s": "10 of 10: unresolved",
        "setup_s": "10 of 10: no gain shown", "peak_rss_mb": "0 of 10: unresolved"}
