import json
import math
import time
from pathlib import Path

import pytest

from fractalis.cli import main
from fractalis.config import ConfigError, parse_config

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
ALL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.json"))

DATA = [[0.0, 20.0], [0.25, 30.0], [0.5, 10.0], [0.75, 50.0], [1.0, 10.0]]


def curve_config(**over):
    cfg = {
        "mode": "curve",
        "data": DATA,
        "domains": [[0, 2], [2, 4]],
        "region_domains": [0, 1, 0, 1],
        "scaling": {"kind": "constant", "value": 0.9},
        "depth": 4,
    }
    cfg.update(over)
    return cfg


def fig4c_without_depths():
    cfg = json.loads((FIXTURES / "fig4c.json").read_text())
    for entry in cfg["x_curves"] + cfg["y_curves"]:
        del entry["curve"]["depth"]
    return cfg


def run(tmp_path, cfg, command=None, extra=()):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return main([command or cfg["mode"], "--config", str(path),
                 "--out-dir", str(out), *extra]), out


class TestParsing:
    def test_all_fixtures_parse(self):
        assert len(ALL_FIXTURES) == 10
        for name in ALL_FIXTURES:
            cfg = parse_config(json.loads((FIXTURES / f"{name}.json").read_text()))
            assert cfg.mode in ("curve", "surface", "analyze")

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="scaling"):
            parse_config({"mode": "curve", "data": DATA, "domains": [[0, 4]],
                          "region_domains": [0, 0, 0, 0]})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"mode": "render"})

    def test_bad_function_kind_named(self):
        with pytest.raises(ConfigError, match="scaling"):
            parse_config(curve_config(scaling={"kind": "nope"}))

    @pytest.mark.parametrize("value", [2.5, 9.0, True, False, "x", None, [4]])
    def test_depth_must_be_an_integer(self, tmp_path, capsys, value):
        code, _ = run(tmp_path, curve_config(depth=value))
        assert code == 2
        assert "config.depth: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [256.5, True, "x", None])
    def test_resolution_must_be_an_integer(self, tmp_path, capsys, value):
        cfg = json.loads((FIXTURES / "fig3a.json").read_text())
        cfg["resolution"] = value
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert "resolution: expected an integer" in capsys.readouterr().err

    def test_surface_curve_depth_named(self, tmp_path, capsys):
        cfg = json.loads((FIXTURES / "fig3a.json").read_text())
        cfg["y_curves"][0]["curve"]["depth"] = 1.5
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert "y_curves[0].curve.depth: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
    def test_obj_must_be_a_boolean(self, tmp_path, capsys, value):
        cfg = json.loads((FIXTURES / "fig3a.json").read_text())
        cfg["obj"] = value
        code, out = run(tmp_path, cfg)
        assert code == 2
        assert "obj: expected a boolean" in capsys.readouterr().err
        assert not (out / "surface.obj").exists()

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
    def test_surface_flip_must_be_booleans(self, tmp_path, capsys, value):
        cfg = json.loads((FIXTURES / "fig3a.json").read_text())
        curve = cfg["x_curves"][0]["curve"]
        curve["flip"] = [False] * len(curve["region_domains"])
        curve["flip"][2] = value
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert "x_curves[0].curve.flip[2]: expected a boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_curve_flip_must_be_booleans(self, tmp_path, capsys, value):
        code, _ = run(tmp_path, curve_config(flip=[False, value, False, False]))
        assert code == 2
        assert "config.flip[1]: expected a boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["no", True, None, {"0": True}])
    def test_flip_must_be_a_list(self, tmp_path, capsys, value):
        code, _ = run(tmp_path, curve_config(flip=value))
        assert code == 2
        assert "config.flip: expected a list of booleans" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["r_lo", "r_hi"])
    @pytest.mark.parametrize("value", [2.9, 6.0, True, "3", None])
    def test_scales_must_be_integers(self, tmp_path, capsys, key, value):
        cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
        cfg["scales"] = {"r_lo": 2, "r_hi": 6, key: value}
        code, out = run(tmp_path, cfg)
        assert code == 2
        assert f"scales.{key}: expected an integer" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_constants_rejected(self, tmp_path, capsys, constant):
        # json reads these as non-finite floats, which used to reach the model
        text = (FIXTURES / "uniform_s06.json").read_text()
        path = tmp_path / "cfg.json"
        path.write_text(text.replace('"value": 0.6', f'"value": {constant}'))
        code = main(["analyze", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config {path}: {constant} is not a finite JSON number" in err
        assert not (tmp_path / "out").exists()

    def test_failing_surface_curve_named(self, tmp_path, capsys):
        cfg = json.loads((FIXTURES / "fig3a.json").read_text())
        cfg["y_curves"][0]["curve"]["scaling"] = {"kind": "constant", "value": 1.5}
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert ("error: y_curves[0].curve: region 0: |scaling| * range Lipschitz reaches 1.5"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode", ["curve", "analyze"])
    def test_failing_curve_named(self, tmp_path, capsys, mode):
        cfg = curve_config(mode=mode, scaling={"kind": "constant", "value": 1.5})
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert ("error: config: region 0: |scaling| * range Lipschitz reaches 1.5"
                in capsys.readouterr().err)


class TestCurveCommand:
    def test_fixture_endpoints(self, tmp_path):
        code = main(["curve", "--config", str(FIXTURES / "fig1a.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "0,20"
        assert lines[-1] == "1,10"

    def test_depth_zero_exact_nodes(self, tmp_path):
        code, out = run(tmp_path, curve_config(), extra=["--depth", "0"])
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines == ["0,20", "0.25,30", "0.5,10", "0.75,50", "1,10"]

    def test_malformed_assignment_exits_2(self, tmp_path):
        code, _ = run(tmp_path, curve_config(region_domains=[0, 1, 0]))
        assert code == 2

    def test_narrow_domain_exits_2(self, tmp_path):
        code, _ = run(tmp_path, curve_config(domains=[[0, 1], [1, 4]]))
        assert code == 2

    def test_report_contents(self, tmp_path):
        code, out = run(tmp_path, curve_config())
        rep = json.loads((out / "report.json").read_text())
        assert rep["depth"] == 4
        assert rep["points_total"] == 4 * 2 ** 4 + 1
        assert rep["connection_matrix"] == [[1, 1, 0, 0], [0, 0, 1, 1],
                                            [1, 1, 0, 0], [0, 0, 1, 1]]
        assert rep["contraction"]["contractive"] is True

    def test_deterministic_outputs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, out1 = run(tmp_path / "a", curve_config())
        _, out2 = run(tmp_path / "b", curve_config())
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_mode_mismatch_exits_2(self, tmp_path):
        code, _ = run(tmp_path, curve_config(), command="analyze")
        assert code == 2

    def test_negative_depth_flag_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, curve_config(), extra=["--depth", "-1"])
        assert code == 2
        assert "--depth" in capsys.readouterr().err


class TestPointLimit:
    """A depth above the point limit exits 2 before refining, naming its field."""

    def test_analyze_depth_flag(self, tmp_path, capsys):
        start = time.monotonic()
        code = main(["analyze", "--config", str(FIXTURES / "uniform_s06.json"),
                     "--out-dir", str(tmp_path), "--depth", "20"])
        assert time.monotonic() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert f"--depth: depth 20 needs more than {2 ** 26} points (67108865 at depth 12)" in err
        assert not any(tmp_path.iterdir())

    def test_config_depth(self, tmp_path, capsys):
        code, _ = run(tmp_path, curve_config(depth=40))
        assert code == 2
        assert "config.depth: depth 40 needs more than" in capsys.readouterr().err

    def test_surface_curve_depth(self, tmp_path, capsys):
        cfg = json.loads((FIXTURES / "fig4c.json").read_text())
        cfg["x_curves"][0]["curve"]["depth"] = 40
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert "x_curves[0].curve.depth: depth 40" in capsys.readouterr().err

    def test_surface_resolution_beyond_limit(self, tmp_path, capsys):
        cfg = fig4c_without_depths()
        code, _ = run(tmp_path, cfg, extra=["--resolution", "100000000"])
        assert code == 2
        assert "resolution (x_curves[0]): depth 24 needs more than" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_uniform_s06_report(self, tmp_path):
        code = main(["analyze", "--config", str(FIXTURES / "uniform_s06.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "dimension.json").read_text())
        expect = 1 + math.log(2.4, 4)
        assert rep["exact"] == pytest.approx(expect, abs=1e-9)
        assert abs(rep["estimate"] - expect) < 0.1
        csv = (tmp_path / "boxcounts.csv").read_text().splitlines()
        assert len(csv) == 5
        for line, (d, c) in zip(csv, zip(rep["series"]["deltas"],
                                         rep["series"]["counts"])):
            sd, sc = line.split(",")
            assert float(sd) == d and int(sc) == c

    def test_nonuniform_estimate_still_emitted(self, tmp_path):
        cfg = curve_config(mode="analyze",
                           data=[[0.0, 0.0], [0.2, 1.0], [0.5, 0.0], [1.0, 1.0]],
                           domains=[[0, 3]], region_domains=[0, 0, 0],
                           scaling={"kind": "constant", "value": 0.3})
        del cfg["depth"]  # analyze default: refine until the scales saturate
        code, out = run(tmp_path, cfg)
        assert code == 0
        rep = json.loads((out / "dimension.json").read_text())
        assert rep["exact"] is None and rep["lower_bound"] is None
        assert rep["estimate"] is not None
        assert any("unavailable" in n and "uniform" in n for n in rep["notes"])


class TestSurfaceCommand:
    def test_fig3a_outputs(self, tmp_path):
        code = main(["surface", "--config", str(FIXTURES / "fig3a.json"),
                     "--out-dir", str(tmp_path), "--resolution", "64",
                     "--depth", "6"])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        data = (tmp_path / "surface.pgm").read_bytes()
        assert data.startswith(b"P5\n65 65\n65535\n")
        header = data.index(b"65535\n") + 6
        first = int.from_bytes(data[header:header + 2], "big")
        lo, hi = rep["height_min"], rep["height_max"]
        assert first == round(65535 * (26.0 - lo) / (hi - lo))
        assert (tmp_path / "surface.obj").exists()

    def test_flat_spec_uniform_gray(self, tmp_path):
        flat_curve = {
            "data": [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0], [1.0, 0.0]],
            "domains": [[0, 2], [2, 4]],
            "region_domains": [0, 1, 0, 1],
            "scaling": {"kind": "constant", "value": 0.0},
            "base": {"kind": "constant", "value": 0.0},
            "interpolant": {"kind": "constant", "value": 0.0},
            "depth": 6,
        }
        cfg = {"mode": "surface", "resolution": 16,
               "x_curves": [{"curve": flat_curve,
                             "coeff": {"of_x": {"kind": "constant", "value": 1.0}}}]}
        code, out = run(tmp_path, cfg)
        assert code == 0
        data = (out / "surface.pgm").read_bytes()
        body = data[data.index(b"65535\n") + 6:]
        assert set(body) == {0}
        assert len(body) == 2 * 17 * 17  # 16-bit samples, (m+1)^2 grid

    def test_resolution_one_exits_2(self, tmp_path):
        code = main(["surface", "--config", str(FIXTURES / "fig3a.json"),
                     "--out-dir", str(tmp_path), "--resolution", "1"])
        assert code == 2

    def test_obj_mesh_structure(self, tmp_path):
        code = main(["surface", "--config", str(FIXTURES / "fig4d.json"),
                     "--out-dir", str(tmp_path), "--resolution", "8",
                     "--depth", "6"])
        assert code == 0
        lines = (tmp_path / "surface.obj").read_text().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(verts) == 9 * 9
        assert len(faces) == 2 * 8 * 8
        assert verts[0].split() == ["v", "0", "0", "0"]  # corner vanishes for fig4d

    @pytest.mark.parametrize("resolution, depth", [(256, 8), (1024, 10)])
    def test_planned_curve_depth(self, tmp_path, resolution, depth):
        cfg = fig4c_without_depths()
        code, out = run(tmp_path, cfg, extra=["--resolution", str(resolution)])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert [c["depth"] for c in rep["curves"]] == [depth, depth]
        if resolution == 256:   # the fixture's own depth 8: the same image
            main(["surface", "--config", str(FIXTURES / "fig4c.json"),
                  "--out-dir", str(tmp_path / "fixture")])
            assert ((out / "surface.pgm").read_bytes()
                    == (tmp_path / "fixture" / "surface.pgm").read_bytes())

    def test_surface_report_formula(self, tmp_path):
        code = main(["surface", "--config", str(FIXTURES / "fig3a.json"),
                     "--out-dir", str(tmp_path), "--resolution", "64",
                     "--depth", "6"])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        formula = rep["formula_dimension"]
        assert formula is not None
        assert 2.0 <= formula["lower"] <= formula["upper"] <= 3.0


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_every_fixture_runs_clean(self, tmp_path, name):
        cfg = json.loads((FIXTURES / f"{name}.json").read_text())
        extra = []
        if cfg["mode"] == "surface":
            extra = ["--resolution", "32", "--depth", "5"]
        elif cfg["mode"] == "curve":
            extra = ["--depth", "5"]
        code = main([cfg["mode"], "--config", str(FIXTURES / f"{name}.json"),
                     "--out-dir", str(tmp_path / name), *extra])
        assert code == 0


class TestMissingConfig:
    def test_unreadable_config(self, tmp_path):
        assert main(["curve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["curve", "--config", str(p)]) == 2
