import contextlib
import copy
import functools
import importlib
import io
import json
import math
import operator
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis.cli import main
from fractalis.config import ConfigError, parse_config
from test_plan_depth import TIE_NODES, TIE_YS

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
        assert not out.exists()


    @pytest.mark.parametrize("field, value, message", [
        ("domains", [[0]], "config.domains[0]: expected a pair [start_node, end_node]"),
        ("domains", [[0.5, 4]], "config.domains[0][0]: expected an integer, got 0.5"),
        ("region_domains", "abc", "config.region_domains: expected a list of domain indices"),
        ("region_domains", None, "config.region_domains: expected a list of domain indices"),
        ("region_domains", [0, 0, 0, 0.7],
         "config.region_domains[3]: expected an integer, got 0.7"),
        ("data", [[0]], "config.data[0]: expected a pair [x, y]"),
        ("data", None, "config.data: expected a list of pairs [x, y]"),
    ], ids=["short-span", "float-node", "string-indices", "null-indices", "float-index",
            "short-node", "null-data"])
    def test_list_fields_shape_checked(self, tmp_path, capsys, field, value, message):
        cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
        cfg[field] = value
        code, out = run(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("domains, k", [([[0, 9]], 0), ([[0, 4], [1, 9]], 1)])
    def test_domain_past_last_node_exits_2(self, tmp_path, capsys, domains, k):
        # the default base used to index the missing node before the wiring check
        cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
        cfg["domains"] = domains
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert f"config: domains[{k}]: end node 9 exceeds node count" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_constants_rejected(self, tmp_path, capsys, constant):
        # json reads these as non-finite floats, which used to reach the model
        text = (FIXTURES / "uniform_s06.json").read_text()
        path = tmp_path / "cfg.json"
        path.write_text(text.replace('"value": 0.6', f'"value": {constant}'))
        code = main(["analyze", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config.scaling: value: expected a finite number, got {float(constant)!r}" in err
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


class TestUserErrorsAndBugs:
    """User errors exit 2 naming their field; any other ValueError is a bug
    and propagates as a traceback."""

    def test_diverging_scaling_refused_by_the_scaling_check(self, tmp_path, capsys):
        # checked before any map is evaluated or refined, so no overflow warning
        cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
        cfg["scaling"] = {"kind": "scaled", "factor": 1e300,
                          "spec": {"kind": "constant", "value": 1e300}}
        code, out = run(tmp_path, cfg)
        assert code == 2
        assert ("error: config: region 0: |scaling| * range Lipschitz reaches inf >= 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_too_shallow_depth_flag_named(self, tmp_path, capsys):
        code = main(["analyze", "--config", str(FIXTURES / "uniform_s06.json"),
                     "--out-dir", str(tmp_path), "--depth", "2"])
        assert code == 2
        assert ("error: --depth: sampling too coarse for the requested scales"
                in capsys.readouterr().err)

    def test_too_shallow_config_depth_named(self, tmp_path, capsys):
        cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
        cfg["depth"] = 2
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert ("error: config.depth: sampling too coarse for the requested scales"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("r_lo, r_hi", [(3, 3), (3, 4), (6, 2)])
    def test_fewer_than_three_scales_named(self, tmp_path, capsys, r_lo, r_hi):
        cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
        cfg["scales"] = {"r_lo": r_lo, "r_hi": r_hi}
        code, out = run(tmp_path, cfg)
        assert code == 2
        assert (f"error: scales.r_hi: must be >= r_lo + 2 (a fit needs 3 scales), "
                f"got r_lo {r_lo}, r_hi {r_hi}" in capsys.readouterr().err)
        assert not out.exists()

    def test_scales_r_lo_named(self, tmp_path, capsys):
        cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
        cfg["scales"] = {"r_lo": 0, "r_hi": 6}
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert "error: scales.r_lo: must be >= 1, got 0" in capsys.readouterr().err

    def test_singular_interpolant_named(self, tmp_path, capsys):
        cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
        # nodes an ulp apart at 1: finite barycentric weights, but the
        # power basis's Vandermonde matrix is singular
        e = 2.0 ** -52
        cfg["data"] = [[1.0 + k * e, y] for k, y in enumerate([0.0, 1.0, 0.0, 1.0, 0.0])]
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert ("error: config: lagrange nodes have no power basis"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("module, name, fixture", [
        ("dimension", "fit_report", "uniform_s06"),
        ("io", "write_curve_csv", "fig1a"),
        ("surface", "composed_surface_dimension", "fig3a"),
        ("surface", "eval_surface", "fig3a"),
    ])
    def test_library_value_error_is_not_a_config_error(self, tmp_path, monkeypatch,
                                                        module, name, fixture):
        def broken(*args, **kwargs):
            raise ValueError("library bug")

        monkeypatch.setattr(importlib.import_module(f"fractalis.{module}"), name, broken)
        path = FIXTURES / f"{fixture}.json"
        mode = json.loads(path.read_text())["mode"]
        with pytest.raises(ValueError, match="library bug"):
            main([mode, "--config", str(path), "--out-dir", str(tmp_path)])


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

    def test_too_coarse_surface_curve_depth_named(self, tmp_path, capsys):
        cfg = json.loads((FIXTURES / "fig3a.json").read_text())
        cfg["x_curves"][0]["curve"]["depth"] = 1
        code, out = run(tmp_path, cfg)
        assert code == 2
        assert ("error: x_curves[0].curve.depth: curve sampling too coarse for resolution "
                "256: max gap 0.125 > 0.000977; refine deeper" in capsys.readouterr().err)
        assert not (out / "surface.pgm").exists()

    def test_surface_resolution_beyond_limit(self, tmp_path, capsys):
        cfg = fig4c_without_depths()
        code, _ = run(tmp_path, cfg, extra=["--resolution", "100000000"])
        assert code == 2
        assert ("error: --resolution (x_curves[0]): depth 24 needs more than"
                in capsys.readouterr().err)

    def test_config_resolution_beyond_limit(self, tmp_path, capsys):
        cfg = fig4c_without_depths()
        cfg["resolution"] = 100000000
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: resolution (x_curves[0]): depth 24 needs more than {2 ** 26} points")


def tie_curve(name):
    """The tie model of tests/test_plan_depth.py with nodes at `name`."""
    return {"data": [[x, y] for x, y in zip(TIE_NODES[name], TIE_YS)],
            "domains": [[0, 4]], "region_domains": [0, 0, 0, 0],
            "scaling": {"kind": "constant", "value": 0.5}}


class TestRoundingTies:
    @pytest.mark.parametrize("name", sorted(TIE_NODES))
    def test_analyze_plans_the_shallowest_depth_that_resolves(self, tmp_path, name):
        # r_hi = 6 needs gap 4^-8 * span: depth 7, not 8 (262145 points)
        code, out = run(tmp_path, {"mode": "analyze", **tie_curve(name)})
        assert code == 0
        model = json.loads((out / "dimension.json").read_text())["model"]
        assert (model["depth"], model["points_total"]) == (7, 4 ** 8 + 1)

    @pytest.mark.parametrize("name", sorted(TIE_NODES))
    def test_surface_depth_4_resolves_resolution_256(self, tmp_path, name):
        cfg = {"mode": "surface", "resolution": 256,
               "x_curves": [{"curve": tie_curve(name),
                             "coeff": {"of_x": {"kind": "constant", "value": 1.0}}}]}
        (tmp_path / "planned").mkdir()
        (tmp_path / "given").mkdir()
        planned, out = run(tmp_path / "planned", cfg)
        given, out_4 = run(tmp_path / "given", cfg, extra=["--depth", "4"])
        assert planned == given == 0
        assert json.loads((out / "report.json").read_text())["curves"][0]["depth"] == 4
        for artifact in ("surface.pgm", "report.json"):
            assert (out / artifact).read_bytes() == (out_4 / artifact).read_bytes()


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


class TestStrictReports:
    @pytest.mark.parametrize("mode, name", [("curve", "report.json"),
                                            ("analyze", "dimension.json")])
    def test_unbounded_weight_limit_is_null(self, tmp_path, mode, name):
        # equal node heights: no coupling, so every weight makes the maps contract
        flat = {"data": [[0.25 * i, 5.0] for i in range(5)], "domains": [[0, 4]],
                "region_domains": [0, 0, 0, 0], "scaling": {"kind": "constant", "value": 0.5}}
        code, out = run(tmp_path, {"mode": mode, **flat, "depth": 7})
        assert code == 0
        rep = strict_json((out / name).read_text())
        assert (rep if mode == "curve" else rep["model"])["contraction"]["weight_limit"] is None


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

    def test_resolution_one_exits_2(self, tmp_path, capsys):
        code = main(["surface", "--config", str(FIXTURES / "fig3a.json"),
                     "--out-dir", str(tmp_path), "--resolution", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: --resolution: must be >= 2\n"
        cfg = json.loads((FIXTURES / "fig3a.json").read_text())
        cfg["resolution"] = 1
        code, _ = run(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == "error: resolution: must be >= 2\n"

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


    def test_formula_at_the_upper_edge(self, tmp_path):
        # fig2d's scaling reaches |s| = 1, so its upper bound is exactly 2.0
        curve = json.loads((FIXTURES / "fig2d.json").read_text())
        del curve["mode"]
        cfg = {"mode": "surface", "resolution": 16, "obj": False,
               "x_curves": [{"curve": curve,
                             "coeff": {"of_x": {"kind": "constant", "value": 1.0}}}]}
        code, out = run(tmp_path, cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["curves"][0]["dimension_bounds"][1] == 2.0
        assert rep["formula_dimension"]["upper"] == 3.0


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


# ---------------------------------------------------------------------------
# boundary fuzz: a mutated fixture exits 0, 2 or 3 without a traceback, and
# an exit-2 message starts with the JSON path (or flag) it rejects
# ---------------------------------------------------------------------------

JSON_PATH = re.compile(r"error: (--depth|--resolution|top level|config|mode|scales|resolution|obj"
                       r"|[xy]_curves)(\.\w+|\[\d+\])*( \([xy]_curves\[\d+\]\))?: ")
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2), st.just([]), st.just({}), st.just([0, 1]), st.just([[0, 1]]),
    st.just({"kind": "constant", "value": 0.5}))


def locations(node, at=()):
    """Key paths of every value in a JSON document, the document first."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield from locations(value, at + (key,))


@st.composite
def mutated_runs(draw):
    """A fixture with 1-3 values replaced, deleted or duplicated, run by its
    own command with --depth <= 6 (and a small --resolution for surfaces)."""
    cfg = json.loads((FIXTURES / f"{draw(st.sampled_from(ALL_FIXTURES))}.json").read_text())
    command = cfg["mode"]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(list(locations(cfg))[1:]))
        parent = functools.reduce(operator.getitem, at[:-1], cfg)
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "delete":
            del parent[at[-1]]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(at[-1], copy.deepcopy(parent[at[-1]]))
        else:   # a copy: st.just hands out one object, which later steps may edit
            parent[at[-1]] = copy.deepcopy(draw(VALUES))
    flags = ["--depth", str(draw(st.integers(0, 6)))]
    if command == "surface":
        flags += ["--resolution", str(draw(st.sampled_from([2, 8, 16, 32])))]
    return command, cfg, flags


@settings(max_examples=150, deadline=None)
@given(mutated_runs())
def test_mutated_fixtures_exit_cleanly(run_args):
    command, cfg, flags = run_args
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out-dir", str(Path(tmp) / "out"),
                         *flags])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert JSON_PATH.match(err.getvalue()), err.getvalue()


@pytest.mark.parametrize("layers,message", [
    (3, "x_curves: expected a list of {curve, coeff} layers, got 3"),
    ([{"curve": {}, "coeff": {"terms": 1.5}}],
     "x_curves[0].coeff: terms: expected a list of {fx, fy} terms, got 1.5"),
    ([{"curve": {}, "coeff": {"terms": [{"fx": {"kind": "constant", "value": 1.0}}]}}],
     "x_curves[0].coeff: terms[0]: missing required field 'fy'"),
    ([{"curve": {}, "coeff": {"terms": [2]}}],
     "x_curves[0].coeff: terms[0]: expected an object, got 2"),
])
def test_malformed_surface_layers_named(tmp_path, capsys, layers, message):
    cfg = json.loads((FIXTURES / "fig3a.json").read_text())
    if isinstance(layers, list):
        layers[0]["curve"] = cfg["x_curves"][0]["curve"]
    cfg["x_curves"] = layers
    code, _ = run(tmp_path, cfg)
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# function-spec numbers and lists must be JSON numbers and lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, message", [
    ({"kind": "polynomial", "coefficients": "12"},
     "config.scaling: coefficients: expected a list, got '12'"),
    ({"kind": "polynomial", "coefficients": [0.5, "0"]},
     "config.scaling: coefficients[1]: expected a number, got '0'"),
    ({"kind": "constant", "value": "0.5"}, "config.scaling: value: expected a number, got '0.5'"),
    ({"kind": "constant", "value": True}, "config.scaling: value: expected a number, got True"),
    ({"kind": "affine", "slope": 0, "intercept": None},
     "config.scaling: intercept: expected a number, got None"),
    ({"kind": "sinusoid", "amplitude": 0.5, "omega": 1, "phase": "0"},
     "config.scaling: phase: expected a number, got '0'"),
    ({"kind": "lagrange", "nodes": {"0": 0.5}},
     "config.scaling: nodes: expected a list, got {'0': 0.5}"),
    ({"kind": "lagrange", "nodes": [[0, 0.5], [1]]},
     "config.scaling: nodes[1]: expected a list of 2, got [1]"),
    ({"kind": "lagrange", "nodes": [[0, 0.5], [1, False]]},
     "config.scaling: nodes[1][1]: expected a number, got False"),
    ({"kind": "sum", "terms": {"kind": "constant", "value": 0.5}},
     "config.scaling: terms: expected a list, got {'kind': 'constant', 'value': 0.5}"),
    ({"kind": "sum", "terms": [{"kind": "constant", "value": 0.25},
                               {"kind": "constant", "value": "0.25"}]},
     "config.scaling: terms[1].value: expected a number, got '0.25'"),
    ({"kind": "scaled", "factor": "2", "spec": {"kind": "constant", "value": 0.25}},
     "config.scaling: factor: expected a number, got '2'"),
    ({"kind": "scaled", "factor": 2, "spec": {"kind": "constant", "value": [0.25]}},
     "config.scaling: spec.value: expected a number, got [0.25]"),
    ({"kind": "affine", "slope": 0.5},
     "config.scaling: 'affine' spec: missing required field 'intercept'"),
])
def test_spec_numbers_must_be_json_numbers(tmp_path, capsys, spec, message):
    code, out = run(tmp_path, curve_config(scaling=spec))
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {message}\n" == err
    assert not out.exists()


def test_surface_coefficient_numbers_named(tmp_path, capsys):
    cfg = json.loads((FIXTURES / "fig3a.json").read_text())
    cfg["y_curves"][0]["coeff"]["terms"][0]["fy"]["value"] = "1"
    code, _ = run(tmp_path, cfg)
    assert code == 2
    assert ("error: y_curves[0].coeff: terms[0].fy.value: expected a number, got '1'\n"
            == capsys.readouterr().err)


# ---------------------------------------------------------------------------
# every object refuses a field it does not know, and every number's float
# must be finite
# ---------------------------------------------------------------------------

def fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def run_refused(tmp_path, capsys, cfg, message):
    """Run cfg, which must exit 2 with `message` alone and write nothing."""
    code, out = run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert (code, err) == (2, f"error: {message}\n")
    assert JSON_PATH.match(err)
    assert not out.exists()


@pytest.mark.parametrize("name, at, message", [
    ("fig1a", (), "config: unknown field 'dpeth'"),
    ("uniform_s06", (), "config: unknown field 'dpeth'"),
    ("uniform_s06", ("scales",), "scales: unknown field 'dpeth'"),
    ("fig3a", (), "top level: unknown field 'dpeth'"),
    ("fig3a", ("x_curves", 0), "x_curves[0]: unknown field 'dpeth'"),
    ("fig3a", ("y_curves", 0, "curve"), "y_curves[0].curve: unknown field 'dpeth'"),
    ("fig3a", ("x_curves", 0, "coeff"), "x_curves[0].coeff: unknown field 'dpeth'"),
    ("fig3a", ("x_curves", 0, "coeff", "terms", 0),
     "x_curves[0].coeff: terms[0]: unknown field 'dpeth'"),
    ("fig3a", ("x_curves", 0, "coeff", "terms", 0, "fy"),
     "x_curves[0].coeff: terms[0].fy: 'constant' spec: unknown field 'dpeth'"),
], ids=["curve", "analyze", "scales", "surface", "layer", "layer-curve", "bivariate", "term",
        "term-spec"])
def test_unknown_field_named(tmp_path, capsys, name, at, message):
    cfg = fixture(name)
    functools.reduce(operator.getitem, at, cfg)["dpeth"] = 3
    run_refused(tmp_path, capsys, cfg, message)


def test_scales_refused_in_curve_mode(tmp_path, capsys):
    run_refused(tmp_path, capsys, curve_config(scales={"r_lo": 2, "r_hi": 6}),
                "config: unknown field 'scales'")


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "value": 0.5},
    {"kind": "affine", "slope": 0.1, "intercept": 0.5},
    {"kind": "polynomial", "coefficients": [0.5]},
    {"kind": "sinusoid", "amplitude": 0.5, "omega": 1.0},
    {"kind": "lagrange", "nodes": [[0.0, 0.5], [1.0, 0.5]]},
    {"kind": "sum", "terms": [{"kind": "constant", "value": 0.5}]},
    {"kind": "scaled", "factor": 0.5, "spec": {"kind": "constant", "value": 1.0}},
], ids=lambda spec: spec["kind"])
def test_unknown_spec_field_named(tmp_path, capsys, spec):
    run_refused(tmp_path, capsys, curve_config(scaling={**spec, "valeu": 0.5}),
                f"config.scaling: {spec['kind']!r} spec: unknown field 'valeu'")


@pytest.mark.parametrize("spread, weight", [(1e-170, "inf"), (1e200, "0.0")])
def test_lagrange_weight_out_of_range_named(tmp_path, capsys, spread, weight):
    # nodes 1e-170 apart used to crash with a bare ZeroDivisionError (exit
    # 1); nodes 1e200 apart gave NaN at every x
    cfg = fixture("uniform_s06")
    cfg["mode"] = "curve"
    del cfg["scales"]
    nodes = [[0, 1], [spread, 1], [2 * spread, 1]]
    cfg["scaling"] = {"kind": "scaled", "factor": 0.5, "spec": {"kind": "lagrange", "nodes": nodes}}
    run_refused(tmp_path, capsys, cfg,
                f"config.scaling: lagrange nodes[0]: barycentric weight 1/prod(x_j - x_k) "
                f"is {weight}; the nodes are too close together or too far apart")


@pytest.mark.parametrize("coeff", [{}, {"of_x": {"kind": "constant", "value": 1.0}, "terms": []},
                                   {"of_x": {"kind": "constant", "value": 1.0},
                                    "of_y": {"kind": "constant", "value": 1.0}}],
                         ids=["none", "of_x-and-terms", "of_x-and-of_y"])
def test_bivariate_spec_has_one_form(tmp_path, capsys, coeff):
    cfg = fixture("fig3a")
    cfg["x_curves"][0]["coeff"] = coeff
    run_refused(tmp_path, capsys, cfg, "x_curves[0].coeff: expected exactly one of the "
                                       "fields 'terms', 'of_x' and 'of_y'")


def test_surface_without_layers_named(tmp_path, capsys):
    cfg = fixture("fig3a")
    del cfg["x_curves"], cfg["y_curves"]
    run_refused(tmp_path, capsys, cfg, "top level: expected x_curves or y_curves, or both")


@pytest.mark.parametrize("name, at, field", [
    ("uniform_s06", ("scaling", "value"), "config.scaling: value"),
    ("uniform_s06", ("data", 1, 1), "config.data[1][1]"),
    ("uniform_s06", ("depth",), "config.depth"),
    ("fig3a", ("resolution",), "resolution"),
], ids=["spec-value", "data-value", "depth", "resolution"])
def test_integer_beyond_float_range_named(tmp_path, capsys, name, at, field):
    # float(10 ** 400) overflows; it used to raise OverflowError with a traceback
    cfg = fixture(name)
    functools.reduce(operator.getitem, at[:-1], cfg)[at[-1]] = 10 ** 400
    run_refused(tmp_path, capsys, cfg, f"{field}: expected a finite number, got {10 ** 400}")


def test_spec_field_rule_names_its_path(tmp_path, capsys):
    scaling = {"kind": "sum", "terms": [
        {"kind": "constant", "value": 0.25},
        {"kind": "sinusoid", "amplitude": 0.25, "omega": 1.0, "wave": "tan"}]}
    run_refused(tmp_path, capsys, curve_config(scaling=scaling),
                "config.scaling: terms[1].wave: expected 'cos' or 'sin', got 'tan'")


@pytest.mark.parametrize("value", [5, True, ["out"], {"dir": "out"}])
def test_out_dir_must_be_a_string(tmp_path, capsys, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(curve_config(out_dir=value)))
    assert main(["curve", "--config", str(path)]) == 2
    assert f"error: out_dir: expected a string, got {value!r}\n" == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# a refused input is found before any curve is refined
# ---------------------------------------------------------------------------

@pytest.fixture
def refinements(monkeypatch):
    """Depths refined through any module binding of rifs.refine_attractor."""
    from fractalis import dimension, rifs, surface
    from fractalis import cli as cli_module

    depths, original = [], rifs.refine_attractor

    def spy(model, depth):
        depths.append(depth)
        return original(model, depth)
    for module in (rifs, dimension, surface, cli_module):
        if getattr(module, "refine_attractor", None) is original:
            monkeypatch.setattr(module, "refine_attractor", spy)
    return depths


def contractive_surface():
    """fig3a with a strictly contractive first layer, whose build refines nothing."""
    cfg = json.loads((FIXTURES / "fig3a.json").read_text())
    cfg["x_curves"][0]["curve"]["scaling"] = {"kind": "constant", "value": 0.5}
    return cfg


def test_surface_spy_sees_both_layers_refined(tmp_path, refinements):
    code, _ = run(tmp_path, contractive_surface(), extra=["--resolution", "16"])
    assert code == 0
    assert refinements == [8, 8]


@pytest.mark.parametrize("curve, message", [
    ({"depth": 30}, "error: y_curves[0].curve.depth: depth 30 needs more than"),
    ({"domains": [[0, 2], [2, 5]]}, "error: y_curves[0].curve: domains[1]: end node 5 exceeds"),
    ({"depth": 1}, "error: y_curves[0].curve.depth: curve sampling too coarse for resolution "
                   "256: max gap 0.125 > 0.000977; refine deeper\n"),
])
def test_refused_last_surface_layer_refines_nothing(tmp_path, capsys, refinements,
                                                    curve, message):
    cfg = contractive_surface()
    cfg["y_curves"][0]["curve"].update(curve)
    code, out = run(tmp_path, cfg)
    assert code == 2
    assert message in capsys.readouterr().err
    assert refinements == []
    assert not out.exists()


def test_too_shallow_analyze_depth_refines_nothing(tmp_path, capsys, refinements):
    code = main(["analyze", "--config", str(FIXTURES / "uniform_s06.json"),
                 "--out-dir", str(tmp_path), "--depth", "2"])
    assert code == 2
    assert "error: --depth: sampling too coarse" in capsys.readouterr().err
    assert refinements == []


def test_auto_depth_analyze_over_the_point_limit_names_r_hi(tmp_path, capsys, refinements):
    cfg = json.loads((FIXTURES / "uniform_s06.json").read_text())
    del cfg["depth"]
    cfg["scales"]["r_hi"] = 12
    code, out = run(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: scales.r_hi: depth 12 needs more than {2 ** 26} points "
        f"(67108865 at depth 12)\n")
    assert refinements == []
    assert not out.exists()



def contractive_surface_without_depths():
    cfg = contractive_surface()
    for entry in cfg["x_curves"] + cfg["y_curves"]:
        del entry["curve"]["depth"]
    return cfg


@pytest.mark.parametrize("extra, field", [(["--resolution", "8192"], "--resolution"),
                                          ([], "resolution")])
def test_grid_over_the_point_limit_refines_nothing(tmp_path, capsys, refinements,
                                                   extra, field):
    cfg = contractive_surface_without_depths()
    cfg["resolution"] = 8192
    code, out = run(tmp_path, cfg, extra=extra)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {field}: a 8192x8192 grid needs more than {2 ** 26} points "
        f"({8193 ** 2} nodes)\n")
    assert refinements == []
    assert not out.exists()


class Reached(Exception):
    pass


@pytest.fixture
def sentinel_surface(monkeypatch):
    """eval_surface replaced by a stand-in that raises Reached(resolution)
    instead of allocating the grid."""
    from fractalis import surface

    def sentinel(spec, resolution):
        raise Reached(resolution)
    monkeypatch.setattr(surface, "eval_surface", sentinel)


def test_grid_at_the_point_limit_is_evaluated(tmp_path, sentinel_surface, refinements):
    cfg = contractive_surface_without_depths()
    cfg["obj"] = False   # an OBJ has its own, lower ceiling
    with pytest.raises(Reached, match="8191"):
        run(tmp_path, cfg, extra=["--resolution", "8191"])
    assert refinements == [13, 13]


@pytest.mark.parametrize("extra, field", [(["--resolution", "4730"], "--resolution"),
                                          ([], "resolution")])
def test_obj_over_the_point_limit_refines_nothing(tmp_path, capsys, refinements,
                                                  extra, field):
    cfg = contractive_surface_without_depths()
    cfg["resolution"] = 4730
    assert cfg["obj"] is True
    code, out = run(tmp_path, cfg, extra=extra)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {field}: with obj true, the OBJ of a 4730x4730 grid needs more than "
        f"{2 ** 26} lines ({4731 ** 2 + 2 * 4730 ** 2} vertices and faces)\n")
    assert refinements == []
    assert not out.exists()


def test_obj_at_the_point_limit_is_evaluated(tmp_path, sentinel_surface, refinements):
    cfg = contractive_surface_without_depths()
    assert cfg["obj"] is True and 4730 ** 2 + 2 * 4729 ** 2 <= 2 ** 26
    with pytest.raises(Reached, match="4729"):
        run(tmp_path, cfg, extra=["--resolution", "4729"])
    assert refinements == [13, 13]


def test_numerical_failure_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # distinct per-region scalings leave the Perron iteration a real bracket,
    # which one step cannot close
    from fractalis import dimension
    cfg = json.loads((FIXTURES / "fig1a.json").read_text())
    cfg.update(mode="analyze",
               scaling=[{"kind": "constant", "value": v} for v in (0.5, 0.6, 0.7, 0.8)])
    monkeypatch.setattr(dimension, "POWER_CAP", 1)
    code, out = run(tmp_path, cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: power iteration did not converge in 1 steps")
    assert not out.exists()


def test_range_map_other_than_identity_leaves_bounds_unavailable(tmp_path):
    cfg = {"mode": "analyze", "data": [[0, 10], [0.25, 30], [0.5, 10], [0.75, 45], [1, 10]],
           "domains": [[0, 2], [2, 4]], "region_domains": [0, 1, 0, 1],
           "scaling": {"kind": "constant", "value": 0.9},
           "range_map": {"kind": "affine", "slope": 0.5, "intercept": 5}}
    code, out = run(tmp_path, cfg)
    assert code == 0
    report = json.loads((out / "dimension.json").read_text())
    assert report["lower_bound"] is None and report["upper_bound"] is None
    assert "closed-form bounds unavailable: range map is not the identity" in report["notes"]
    assert report["estimate"] is not None
