import csv
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import knotgauge
from knotgauge.cli import main
from knotgauge.curve import Curve, circle, load_curve, save_curve
from knotgauge.mobius import (MinimizeConfig, minimize_symmetric,
                              mobius_energy, torus_knot)
from knotgauge.sobolev import tangent_density
from util import kinked_track, track_curve, unfiltered_good_sets


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
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "j", "value"]
        # written block by block: the whole grid's nonzero entries, in row
        # order, bit for bit
        grid = tangent_density(load_curve(circle_file)).density
        ii, jj = np.nonzero(grid)
        assert [(int(i), int(j)) for i, j, _ in rows[1:]] == list(
            zip(ii.tolist(), jj.tolist()))
        assert [float(v) for _, _, v in rows[1:]] == grid[ii, jj].tolist()

    def test_seminorm_memory(self, tmp_path):
        # one N x N array of a 2048-gon takes 32 MB
        path = str(tmp_path / "trefoil.json")
        save_curve(torus_knot(2, 3, n=2048), path)
        main(["analyze", path, "--seminorm"])
        tracemalloc.start()
        try:
            assert main(["analyze", path, "--seminorm"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048**2 * 8 / 4

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

    def test_concentrated_seminorm_noted(self, tmp_path, capsys):
        # the kink concentrates the seminorm: no window radius qualifies
        path, out = tmp_path / "kinked.json", tmp_path / "report.json"
        save_curve(kinked_track(n=1024)[0], str(path))
        assert main(["analyze", str(path), "--seminorm",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["rho"] is None and report["r_gamma"] is None
        assert report["seminorm_note"] == (
            "seminorm too concentrated; use concentration pipeline")
        assert "rho=None r_gamma=None" in capsys.readouterr().out

    def test_global_fields_are_global_distortion(self, trefoil_file,
                                                 tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", trefoil_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        v, pair = knotgauge.global_distortion(load_curve(trefoil_file))
        assert report["delta_global"] == v
        assert report["global_pair"] == list(pair)


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

    def test_no_center_checks_radius(self, circle_file, capsys):
        rc = main(["substitute", circle_file, "--center", ",", "--r", "-1"])
        assert rc == 1
        assert ("error: substitution radius must lie in (0, 1/4)"
                in capsys.readouterr().err)

    def test_nonpositive_theta_refused(self, circle_file, capsys):
        rc = main(["substitute", circle_file, "--center", ",", "--r", "0.05",
                   "--theta", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: theta -1.000e+00 outside (0, ")
        assert "ceiling" in err

    def test_bad_center_named(self, circle_file, capsys):
        rc = main(["substitute", circle_file, "--center", "a", "--r", "0.05"])
        assert rc == 1
        assert ("error: --center must be t1,t2,..., got 'a'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("center, k, match", [
        ("nan", 102.4, "center nan is not finite"),
        ("inf", 102.4, "center inf is not finite"),
        ("x", 0.5, "holds fewer than two samples"),
        ("x", 3.0, "ball B_(r/8)(x - r/2) holds no sample"),
    ], ids=["nan", "inf", "annulus", "ball"])
    def test_unresolvable_window_refused(self, tmp_path, capsys, center, k,
                                         match):
        c, x = track_curve(n=2048, seed=3)
        src = tmp_path / "track.json"
        save_curve(c, str(src))
        rc = main(["substitute", str(src),
                   f"--center={x if center == 'x' else center}",
                   "--r", str(k / c.n)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert "no good endpoints" not in err


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

    def test_nan_seed_refused(self, trefoil_file, capsys):
        rc = main(["flow", trefoil_file, "--seed=nan,0,0", "--dir", "inc",
                   "--rM", "0.1", "--rho", "0.01", "--steps", "64"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed [nan") and "is not finite" in err

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

    @pytest.mark.parametrize("argv, need", [
        (["--p", "3"], "multiplier m = 1: the multiplier must be m = 2"),
        (["--p", "2", "--n", "96", "--steps", "3"],
         "multiplier m = 1: p must divide b")], ids=["p=3", "p=2"])
    def test_torus_class_lacking_symmetry(self, argv, need, capsys):
        rc = main(["minimize", "--torus", "2,3", *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: torus class (2, 3) lacks the symmetry")
        assert need in err

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

    def test_failed_certificate_exit(self, capsys):
        rc = main(["minimize", "--torus", "2,3", "--p", "3", "--m", "2",
                   "--n", "64", "--steps", "10"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: certificate failed at iteration 10: threshold - margin "
            "1.2082; checkpoint has no rung below it (lowest rung 13.3556); "
            "current curve has no rung below it (lowest rung 11.6932)\n")

    def test_stalled_exit(self, monkeypatch, capsys):
        import knotgauge.mobius as mobius
        energy, calls = mobius.mobius_energy, []

        def first_only(c):
            calls.append(c)
            return energy(c) if len(calls) == 1 else math.inf

        monkeypatch.setattr(mobius, "mobius_energy", first_only)
        rc = main(["minimize", "--torus", "2,3", "--p", "3", "--m", "2",
                   "--n", "120", "--steps", "5"])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("status=stalled iterations=0 ")

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

    def test_forced_endpoints_write_failed_curve(self, tmp_path, monkeypatch):
        import knotgauge.substitution as substitution
        monkeypatch.setattr(substitution, "good_sets", unfiltered_good_sets)
        c, ref, _ = kinked_track(1024, chi=0.7)
        paths = [str(tmp_path / f) for f in ("c.json", "ref.json", "out.json",
                                             "rep.json")]
        save_curve(c, paths[0])
        save_curve(ref, paths[1])
        rc = main(["concentrate", paths[0], "--reference", paths[1], "--p",
                   "2", "--out", paths[2], "--report", paths[3]])
        assert rc == 1
        report = json.loads(Path(paths[3]).read_text())
        assert report["flags"] == {"substitution": False, "distortion": False,
                                   "budget": False, "certificate": True}
        assert report["notes"][0].startswith(
            "final distortion compares no pair")
        modified = load_curve(paths[2])
        assert modified.n == c.n
        assert not np.array_equal(modified.samples, c.samples)

    def test_unknown_args(self):
        with pytest.raises(SystemExit):
            main(["concentrate", "--bogus"])

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_symmetry_order_below_one(self, tmp_path, capsys, p):
        c, ref, _ = kinked_track(1024, chi=0.7)
        src = tmp_path / "kinked.json"
        save_curve(c, str(src))
        assert main(["concentrate", str(src), "--p", p]) == 1
        assert (f"error: symmetry order p must be at least 1 (got {p})"
                in capsys.readouterr().err)

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
    """Every name the benchmark's traced run wraps exists in knotgauge;
    importing the tracer only defines it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, attrs in tracing.LAYERS.items():
        module = importlib.import_module(f"knotgauge.{layer}")
        for attr in attrs:
            obj = module
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            assert callable(obj), f"knotgauge.{layer}.{attr}"
