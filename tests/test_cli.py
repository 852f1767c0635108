import ast
import csv
import importlib
import json
import math
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import knotgauge
from knotgauge.cli import main
from knotgauge.curve import Curve, circle, load_curve, save_curve
from knotgauge.mobius import (MinimizeConfig, minimize_symmetric,
                              mobius_energy, torus_knot)
from util import track_curve


@pytest.fixture
def circle_file(tmp_path):
    p = tmp_path / "circle.json"
    save_curve(circle(512), str(p))
    return str(p)


@pytest.fixture
def trefoil_file(tmp_path):
    p = tmp_path / "trefoil.json"
    save_curve(torus_knot(2, 3, n=512), str(p))
    return str(p)


class TestAnalyze:
    def test_circle_distortion(self, circle_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        prof = tmp_path / "profile.csv"
        rc = main(["analyze", circle_file, "--out", str(out),
                   "--profile", str(prof), "--seminorm"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["delta_global"] == pytest.approx(math.pi / 2, abs=1e-3)
        assert report["rho"] is not None
        with prof.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "delta", "i", "j"]
        assert len(rows) == 41

    def test_density_dump(self, circle_file, tmp_path):
        dens = tmp_path / "density.csv"
        rc = main(["analyze", circle_file, "--density", str(dens)])
        assert rc == 0
        with dens.open() as fh:
            header = fh.readline().strip()
        assert header == "i,j,value"

    def test_command_is_the_argv_given(self, circle_file, tmp_path,
                                       monkeypatch):
        # the host's argv is not the command; the output paths are left out
        monkeypatch.setattr("sys.argv", ["pytest", "-q", "tests/"])
        out = tmp_path / "report.json"
        prof = tmp_path / "profile.csv"
        assert main(["analyze", circle_file, "--out", str(out), "--seminorm",
                     f"--profile={prof}"]) == 0
        assert json.loads(out.read_text())["command"] == \
            f"analyze {circle_file} --seminorm"

    def test_abbreviated_option_refused(self, circle_file, tmp_path, capsys):
        # an abbreviated output option would stay in the report's command
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", circle_file, "--ou", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ou" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_report(self, trefoil_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", trefoil_file, "--out", str(a)]) == 0
        assert main(["analyze", trefoil_file, "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestCertify:
    def test_self_equivalent(self, trefoil_file):
        assert main(["certify", trefoil_file, trefoil_file]) == 0

    def test_inconclusive_exit_code(self, trefoil_file, circle_file, tmp_path):
        out = tmp_path / "cert.json"
        rc = main(["certify", trefoil_file, circle_file, "--out", str(out)])
        assert rc == 2
        cert = json.loads(out.read_text())["certificate"]
        assert cert["verdict"] == "inconclusive"

    def test_conservative_threshold(self, trefoil_file):
        assert main(["certify", trefoil_file, trefoil_file,
                     "--threshold", "ginf"]) == 0

    def test_missing_file(self, trefoil_file, capsys):
        rc = main(["certify", trefoil_file, "/nonexistent.json"])
        assert rc == 1

    def test_negative_margin_refused(self, circle_file, capsys):
        rc = main(["certify", circle_file, circle_file, "--margin", "-0.1"])
        assert rc == 1
        assert ("margin must be finite and >= 0 (got -0.1)"
                in capsys.readouterr().err)


    def test_margin_above_threshold_refused(self, circle_file, capsys):
        rc = main(["certify", circle_file, circle_file, "--margin", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "threshold - margin must lie in (1, pi/2)" in err
        assert " - 0.5 = 0.709" in err


class TestSubstitute:
    def test_track_run(self, tmp_path):
        c, x = track_curve(n=1024, seed=1)
        src = tmp_path / "track.json"
        save_curve(c, str(src))
        out = tmp_path / "modified.json"
        rep = tmp_path / "rep.json"
        rc = main(["substitute", str(src), "--center", str(x),
                   "--r", "0.04", "--out", str(out), "--report", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert all(report["flags"].values())
        mod = load_curve(str(out))
        assert mod.n == c.n

    def test_failure_exit_code(self, circle_file):
        rc = main(["substitute", circle_file, "--center", "0.25",
                   "--r", "0.05"])
        assert rc == 1

    def test_bad_center_named(self, circle_file, capsys):
        rc = main(["substitute", circle_file, "--center", "a", "--r", "0.05"])
        assert rc == 1
        assert ("error: --center must be t1,t2,..., got 'a'"
                in capsys.readouterr().err)


class TestFlow:
    def test_trace_csv(self, trefoil_file, tmp_path):
        tre = load_curve(trefoil_file)
        from knotgauge.distortion import (distortion_threshold,
                                          find_admissible_scale)
        r_m = find_admissible_scale(tre, distortion_threshold(3) - 1e-3)
        seed = tre.samples[17] + np.array([0.0, 0.0, 0.25 * r_m])
        trace = tmp_path / "trace.csv"
        rc = main(["flow", trefoil_file, "--seed",
                   ",".join(str(v) for v in seed), "--dir", "inc",
                   "--rM", str(r_m), "--rho", str(r_m / 8),
                   "--steps", "64", "--trace", str(trace)])
        assert rc == 0
        with trace.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "y", "z", "dist"]
        assert len(rows) == 66
        dists = [float(r[4]) for r in rows[1:]]
        assert dists[-1] >= dists[0] - 1e-6

    def test_bad_seed_named(self, trefoil_file, capsys):
        rc = main(["flow", trefoil_file, "--seed=a,b,c", "--dir", "inc",
                   "--rM", "0.1", "--rho", "0.01"])
        assert rc == 1
        assert ("error: --seed must be x,y,z, got 'a,b,c'"
                in capsys.readouterr().err)

    def test_nan_scale_refused(self, trefoil_file, capsys):
        rc = main(["flow", trefoil_file, "--seed", "0,0,3", "--dir", "inc",
                   "--rM", "nan", "--rho", "0.01"])
        assert rc == 1
        assert ("error: scale r must be positive (got nan)"
                in capsys.readouterr().err)


class TestMinimize:
    def test_bad_torus_named(self, capsys):
        rc = main(["minimize", "--torus", "2", "--p", "3"])
        assert rc == 1
        assert ("error: --torus must be a,b, got '2'"
                in capsys.readouterr().err)

    def test_zero_steps_echo(self, tmp_path, capsys):
        log = tmp_path / "energy.csv"
        rc = main(["minimize", "--torus", "2,3", "--p", "3", "--m", "2",
                   "--n", "120", "--steps", "0", "--log", str(log)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "energy=" in out
        with log.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "energy", "residual", "bilip", "step"]
        assert len(rows) == 2

    def test_short_run(self, tmp_path):
        out = tmp_path / "final.json"
        rc = main(["minimize", "--torus", "2,3", "--p", "3", "--m", "2",
                   "--n", "120", "--steps", "5", "--out", str(out)])
        assert rc == 0
        assert load_curve(str(out)).n == 120

    def test_out_is_last_iterate(self, tmp_path):
        out = tmp_path / "final.json"
        rc = main(["minimize", "--torus", "2,3", "--p", "3", "--m", "2",
                   "--n", "60", "--steps", "3", "--out", str(out)])
        assert rc == 0
        res = minimize_symmetric(MinimizeConfig(torus=(2, 3), p=3, m=2,
                                                n=60, steps=3))
        assert res.final.iteration == 3
        assert mobius_energy(res.curve) == res.final.energy
        assert np.array_equal(load_curve(str(out)).samples,
                              res.curve.samples)


class TestConcentrate:
    def test_smooth_passthrough(self, trefoil_file, tmp_path):
        rep = tmp_path / "rep.json"
        rc = main(["concentrate", trefoil_file, "--p", "3",
                   "--report", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["detected"] == []
        assert all(report["flags"].values())

    def test_unknown_args(self):
        with pytest.raises(SystemExit):
            main(["concentrate", "--bogus"])

    def test_eps_option_removed(self, trefoil_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["concentrate", trefoil_file, "--p", "3", "--eps", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps" in capsys.readouterr().err


def test_public_names():
    """The package namespace holds what the acceptance tests use."""
    public = {k for k, v in vars(knotgauge).items()
              if not k.startswith("_") and not isinstance(v, ModuleType)}
    assert public == {
        "Curve", "circle", "arc_chord_ratio", "certify_equivalence",
        "distortion_angle", "distortion_threshold", "find_admissible_scale",
        "global_distortion", "local_distortion", "threshold_angle",
        "bilip_constant", "fractional_admissible_scale", "substitute",
        "flow", "MinimizeConfig", "minimize_symmetric", "mobius_energy",
        "mobius_gradient", "torus_knot", "detect_concentrations",
        "pipeline"}


def test_traced_layers_resolve():
    """Every name the benchmark's traced run wraps exists in knotgauge."""
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["LAYERS"])
    for layer, attrs in layers.items():
        module = importlib.import_module(f"knotgauge.{layer}")
        for attr in attrs:
            obj = module
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            assert callable(obj), f"knotgauge.{layer}.{attr}"
