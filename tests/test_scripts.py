"""Smoke runs of the scripts under scripts/, so a library API change that
breaks them fails here instead of at their next manual use."""
import importlib.util
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
