import math
import re
import tracemalloc

import numpy as np
import pytest

import knotgauge.mobius as mobius
from knotgauge.curve import (PAIR_BLOCK, Curve, CurveError, EmbeddingError,
                             circle, resample_arclength)
from knotgauge.distortion import certify_equivalence
from knotgauge.mobius import (MAX_HALVINGS, DescentAborted, MinimizeConfig,
                              SymmetrySpec, minimize_symmetric, mobius_energy,
                              mobius_gradient, symmetrize_curve,
                              symmetrize_field, symmetry_residual, torus_knot)
from util import (dense_mobius_energy, dense_mobius_gradient, ellipse_curve,
                  rigid_moved)

# discrete circle energies converge to 4 like c/N (measured refinement run)
CIRCLE_ENERGY = {128: 3.8899161067547405, 256: 3.944912884917006,
                 512: 3.97244570991234, 1024: 3.986220241867658,
                 2048: 3.993109476065741}


class TestTorusKnot:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            torus_knot(1, 0)
        with pytest.raises(ValueError):
            torus_knot(2, 4)
        with pytest.raises(ValueError):
            torus_knot(2, 3, major_radius=1.0, tube_radius=1.5)

    def test_trefoil_symmetry_residual(self):
        c = torus_knot(2, 3, 2.0, 0.5, 513)
        assert symmetry_residual(c, SymmetrySpec(p=3, m=2)) < 1e-9

    def test_resampled_arclength(self):
        c = torus_knot(2, 3, n=512)
        e = c.edge_lengths()
        assert e.std() / e.mean() < 1e-3

    def test_knottedness(self, trefoil1024):
        from knotgauge.distortion import global_distortion
        assert global_distortion(trefoil1024)[0] >= 5 * math.pi / 3 - 1e-2


class TestEnergy:
    @pytest.mark.parametrize("n", [128, 512])
    def test_circle_reference_values(self, n):
        assert mobius_energy(circle(n)) == pytest.approx(CIRCLE_ENERGY[n],
                                                         rel=1e-12)

    def test_richardson_limit(self):
        e1, e2 = CIRCLE_ENERGY[1024], CIRCLE_ENERGY[2048]
        assert 2 * e2 - e1 == pytest.approx(4.0, rel=1e-4)

    def test_nonnegative(self):
        from util import fourier_curve
        assert mobius_energy(fourier_curve(3, n=128)) >= 0.0

    def test_cached_matrices_untouched(self, trefoil512):
        mobius_energy(trefoil512)
        for m in (trefoil512.chord_matrix(), trefoil512.intrinsic_matrix()):
            assert not m.flags.writeable
            assert np.all(np.diagonal(m) == 0.0)

    @pytest.mark.parametrize("kernel", [mobius_energy, mobius_gradient])
    def test_second_call_takes_no_block(self, kernel):
        # the row blocks are borrowed work arrays, kept between calls
        q = torus_knot(2, 5, n=256).samples
        kernel(Curve(q))
        tracemalloc.start()
        try:
            kernel(Curve(q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PAIR_BLOCK * 8

    def test_scale_invariance(self, trefoil512):
        scaled = Curve(3.0 * trefoil512.samples)
        assert mobius_energy(scaled) == pytest.approx(
            mobius_energy(trefoil512), abs=1e-9)

    def test_rigid_invariance(self, trefoil512):
        moved = rigid_moved(trefoil512, seed=21)
        assert mobius_energy(moved) == pytest.approx(
            mobius_energy(trefoil512), abs=1e-12 * mobius_energy(trefoil512))

    def test_not_embedded(self):
        q = circle(32).samples.copy()
        q[17] = q[3] + 1e-16
        with pytest.raises(EmbeddingError):
            mobius_energy(Curve(q))


class TestGradient:
    def test_circle_gradient_radial(self):
        c = circle(128)
        g = mobius_gradient(c)
        radial = c.samples / np.linalg.norm(c.samples, axis=1)[:, None]
        tangential = g - np.einsum("ij,ij->i", g, radial)[:, None] * radial
        assert np.abs(tangential).max() < 1e-8

    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        c = Curve(circle(128).samples
                  + 0.02 * rng.normal(size=(128, 3)))
        g = mobius_gradient(c)
        h = 1e-6
        idx = rng.integers(0, 128, size=24)
        for k in idx:
            for d in range(3):
                qp = c.samples.copy(); qp[k, d] += h
                qm = c.samples.copy(); qm[k, d] -= h
                fd = (mobius_energy(Curve(qp)) - mobius_energy(Curve(qm))) / (2 * h)
                assert g[k, d] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_scaling_rule(self, trefoil512):
        lam = 2.0
        g = mobius_gradient(trefoil512)
        g_scaled = mobius_gradient(Curve(lam * trefoil512.samples))
        assert np.allclose(g_scaled, g / lam, atol=1e-9 * np.abs(g).max())


class TestRowBlocks:
    """The row-block kernels against the dense N x N reference, at sizes
    with several row blocks of uneven length."""

    @pytest.mark.parametrize("make", [
        lambda: Curve(torus_knot(2, 3, n=300).samples
                      + 0.01 * np.random.default_rng(9).normal(size=(300, 3))),
        lambda: circle(256),   # exact length ties at every antipodal pair
    ], ids=["perturbed-torus-300", "circle-256"])
    def test_matches_dense_reference(self, make):
        c = make()
        ref = dense_mobius_energy(Curve(c.samples))
        assert abs(mobius_energy(c) - ref) <= 1e-13 * ref
        g = mobius_gradient(c)
        g_ref = dense_mobius_gradient(Curve(c.samples))
        # the circle's exact gradient is zero (scale invariance and
        # symmetry), so its max |g| is roundoff; N / L, the size of the
        # largest single pair term, sets the floor of the scale
        scale = max(np.abs(g_ref).max(), c.n / c.total_length())
        assert np.abs(g - g_ref).max() <= 1e-11 * scale

    @pytest.mark.parametrize("kernel", [mobius_energy, mobius_gradient])
    def test_traced_peak(self, trefoil512, kernel):
        trefoil512.check_embedded()
        trefoil512.tangents()
        tracemalloc.start()
        try:
            kernel(trefoil512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSymmetry:
    def test_equivariant_field_times_p(self):
        c = torus_knot(2, 3, n=240)
        spec = SymmetrySpec(p=3, m=2)
        g = mobius_gradient(c)  # gradient of a symmetric curve is equivariant
        gs = symmetrize_field(g, spec)
        assert np.allclose(gs, 3 * g, atol=1e-9 * np.abs(g).max())

    def test_zero_field(self):
        spec = SymmetrySpec(p=4)
        assert np.all(symmetrize_field(np.zeros((64, 3)), spec) == 0.0)

    def test_projector_up_to_p(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(60, 3))
        spec = SymmetrySpec(p=5, m=2)
        once = symmetrize_field(h, spec)
        twice = symmetrize_field(once, spec)
        assert np.allclose(twice, 5 * once, atol=1e-12)

    def test_fundamental_domain_support(self):
        spec = SymmetrySpec(p=4)
        n = 64
        h = np.zeros((n, 3))
        h[: n // 4] = np.random.default_rng(3).normal(size=(n // 4, 3))
        hs = symmetrize_field(h, spec)
        assert np.allclose(hs[: n // 4], h[: n // 4], atol=1e-12)

    @pytest.mark.parametrize("make, match", [
        (lambda: SymmetrySpec(p=1), "symmetry order must be >= 2"),
        (lambda: SymmetrySpec(p=4, m=2), "multiplier 2 not coprime to 4"),
        (lambda: symmetry_residual(circle(64), SymmetrySpec(p=3)),
         "sample count not divisible by the symmetry order"),
        (lambda: MinimizeConfig(p=2).build_initial(),
         "config needs either a torus class or a curve"),
    ], ids=["order", "multiplier", "residual", "no-initial"])
    def test_refusals(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_divisibility_required(self):
        spec = SymmetrySpec(p=3)
        with pytest.raises(ValueError):
            symmetrize_field(np.zeros((64, 3)), spec)

    def test_curve_projection_exact(self):
        c = torus_knot(2, 3, n=240)
        spec = SymmetrySpec(p=3, m=2)
        perturbed = Curve(c.samples
                          + 1e-3 * np.random.default_rng(4).normal(size=(240, 3)))
        proj = symmetrize_curve(perturbed, spec)
        assert symmetry_residual(proj, spec) < 1e-12

    def test_replicated_energy_consistency(self):
        # energy of gamma + eps*h computed directly equals the energy of the
        # curve rebuilt from one fundamental domain
        c = torus_knot(2, 3, n=240)
        spec = SymmetrySpec(p=3, m=2)
        rng = np.random.default_rng(6)
        h = rng.normal(size=(240, 3))
        h_sym = symmetrize_field(h, spec)
        pert = Curve(c.samples + 1e-3 * h_sym)
        direct = mobius_energy(pert)
        shift = 240 // 3
        rebuilt = pert.samples.copy()
        rot = spec.rotation(1)
        for k in range(1, 3):
            blk = slice(k * shift, (k + 1) * shift)
            prev = rebuilt[(np.arange(k * shift, (k + 1) * shift) - shift) % 240]
            rebuilt[blk] = prev @ rot.T
        replicated = mobius_energy(Curve(rebuilt))
        assert direct == pytest.approx(replicated, abs=1e-8)


class TestMinimize:
    def test_zero_steps_identity(self):
        cfg = MinimizeConfig(torus=(2, 3), p=3, m=2, n=120, steps=0)
        res = minimize_symmetric(cfg)
        assert res.status == "ok"
        assert len(res.states) == 1
        assert res.final.iteration == 0

    @pytest.mark.parametrize("p, m, need", [
        (3, 1, "order p = 3 with multiplier m = 1: the multiplier must be "
               "m = 2 (a mod p)"),
        (2, 1, "order p = 2 with multiplier m = 1: p must divide b")],
        ids=["p=3", "p=2"])
    def test_torus_class_lacking_symmetry(self, p, m, need):
        # orbit averaging onto a symmetry the class lacks collapses samples
        # (p=3) or silently leaves the trefoil class (p=2)
        cfg = MinimizeConfig(torus=(2, 3), p=p, m=m, n=96, steps=3)
        with pytest.raises(ValueError, match=re.escape(need)):
            minimize_symmetric(cfg)

    def test_short_trefoil_descent(self):
        cfg = MinimizeConfig(torus=(2, 3), p=3, m=2, n=120, steps=30)
        res = minimize_symmetric(cfg)
        en = [s.energy for s in res.states]
        assert res.status == "ok"
        assert all(b < a for a, b in zip(en, en[1:]))
        assert max(s.residual for s in res.states) < 1e-9
        assert all(c.passed for _, c in res.certificates)

    def test_failed_certificate_aborts(self):
        # at 66 samples the lowest rung, twice the shortest edge, already
        # sees the global distortion (about 13.4), so no rung is admissible
        cfg = MinimizeConfig(torus=(2, 3), p=3, m=2, n=64, steps=10)
        with pytest.raises(DescentAborted, match=re.escape(
                "certificate failed at iteration 10: threshold - margin "
                "1.2082; checkpoint has no rung below it (lowest rung "
                "13.3556); current curve has no rung below it (lowest rung "
                "11.6932)")):
            minimize_symmetric(cfg)

    def test_abort_message_names_hausdorff_gap(self, trefoil512):
        cert = certify_equivalence(trefoil512, Curve(1e3 * trefoil512.samples))
        assert cert.r1 is not None and cert.r2 is not None
        assert mobius._abort_message(20, cert, trefoil512, None) == (
            f"certificate failed at iteration 20: threshold - margin 1.2082; "
            f"hausdorff {cert.hausdorff:.3e} not below r/4 = "
            f"{0.25 * min(cert.r1, cert.r2):.3e}")

    def test_rejected_trials_stall(self, monkeypatch):
        energy, calls = mobius.mobius_energy, []

        def first_only(c):
            calls.append(c)
            return energy(c) if len(calls) == 1 else math.inf

        monkeypatch.setattr(mobius, "mobius_energy", first_only)
        res = minimize_symmetric(
            MinimizeConfig(torus=(2, 3), p=3, m=2, n=120, steps=5))
        assert res.status == "stalled"
        assert len(res.states) == 1 and res.certificates == []
        assert len(calls) == 1 + MAX_HALVINGS

    def test_failed_trial_halves_step(self, monkeypatch):
        resample, calls = mobius.resample_arclength, []

        def fail_first_trial(c, n):
            # the first call builds the initial curve
            calls.append(n)
            if len(calls) == 2:
                raise CurveError("trial rejected")
            return resample(c, n)

        monkeypatch.setattr(mobius, "resample_arclength", fail_first_trial)
        res = minimize_symmetric(
            MinimizeConfig(torus=(2, 3), p=3, m=2, n=120, steps=1))
        assert res.status == "ok" and res.final.iteration == 1
        assert res.final.step == 0.5 * (1e-2 / res.final.gradient_norm)

    def test_zero_gradient_stops(self, monkeypatch):
        monkeypatch.setattr(mobius, "mobius_gradient",
                            lambda c: np.zeros((c.n, 3)))
        res = minimize_symmetric(
            MinimizeConfig(torus=(2, 3), p=3, m=2, n=120, steps=5))
        assert res.status == "ok"
        assert len(res.states) == 1 and res.final.iteration == 0

    def test_ellipse_toward_circle(self):
        cfg = MinimizeConfig(initial=ellipse_curve(1.25, 0.8, 96), p=2,
                             n=96, steps=120)
        res = minimize_symmetric(cfg)
        en = [s.energy for s in res.states]
        assert en[-1] < en[0]
        assert all(b < a for a, b in zip(en, en[1:]))
