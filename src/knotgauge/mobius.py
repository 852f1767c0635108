"""Discrete self-repulsion energy of knots, its exact gradient, and
symmetry-constrained minimization.

The energy is a trapezoidal double sum over sample pairs of
``1/chord^2 - 1/arc^2`` with per-vertex weights given by half the adjacent
edge lengths; the subtracted intrinsic term cancels the diagonal singularity
for smooth data, so adjacent pairs contribute exactly zero.  The gradient is
the exact derivative of this discrete functional with respect to the vertex
positions, including the dependence of the weights and of the shorter-arc
lengths on the vertices.

Rotational symmetry about the e3 axis is enforced by symmetrizing variation
fields over the rotation orbit and re-projecting iterates onto the symmetric
class by orbit averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import (Curve, CurveError, block_view, outer_difference,
                    resample_arclength, work_arrays)
from .distortion import _rung_distortion, certify_equivalence, scale_ladder
from .sobolev import bilip_constant


#: sufficient-decrease constant of the backtracking line search
ARMIJO_C = 1e-4
#: step halvings before a descent iteration counts as stalled
MAX_HALVINGS = 40
#: descent iterations between equivalence certificates
CERTIFICATE_CADENCE = 10


# -- initializers -----------------------------------------------------------------


def torus_knot(a, b, major_radius=2.0, tube_radius=0.5, n=512):
    """Arclength-resampled (a, b) torus knot.

    Requires coprime a, b outside {0, +-1} and 0 < tube < major radius.  For
    p = b the output is p-rotationally symmetric with multiplier a mod b.
    """
    if a in (0, 1, -1) or b in (0, 1, -1):
        raise ValueError("torus knot parameters must lie outside {0, +-1}")
    if math.gcd(abs(a), abs(b)) != 1:
        raise ValueError(f"({a}, {b}) are not coprime")
    if not 0.0 < tube_radius < major_radius:
        raise ValueError("need 0 < tube_radius < major_radius")
    t = np.arange(n) / n
    w = major_radius + tube_radius * np.cos(2.0 * np.pi * b * t)
    q = np.stack([w * np.cos(2.0 * np.pi * a * t),
                  w * np.sin(2.0 * np.pi * a * t),
                  tube_radius * np.sin(2.0 * np.pi * b * t)], axis=1)
    return resample_arclength(Curve(q), n)


# -- energy and gradient ------------------------------------------------------------


def _weights(c):
    e = c.edge_lengths()
    return 0.5 * (np.roll(e, 1) + e)


def _kernel_rows(c, extra):
    """Per row block ``b`` of :func:`~knotgauge.curve.row_blocks`: ``b``,
    the block's chords, its arclength gaps |s_i - s_j|, its shorter-arc
    lengths with a unit diagonal, its rows of 1/chord^2 and 1/arc^2 with
    zero diagonals, and ``extra`` spare arrays of the block's shape.  All
    are borrowed work arrays, overwritten by the next block, so a call
    takes no fresh pages and the curve keeps nothing."""
    n = c.n
    s = c.cum_lengths()[:-1]
    total = c.total_length()
    with work_arrays(4 + extra, n) as work:
        for b, chords in c.chord_blocks(upper=False):
            m = b.stop - b.start
            gaps, arc, inv_c2, inv_a2, *spare = (block_view(a, m, n)
                                                 for a in work)
            diag = (np.arange(m), np.arange(b.start, b.stop))
            np.abs(outer_difference(s[b], s, gaps, arc), out=gaps)
            np.minimum(gaps, np.subtract(total, gaps, out=arc), out=arc)
            np.square(chords, out=inv_c2)
            inv_c2[diag] = 1.0
            arc[diag] = 1.0
            np.reciprocal(inv_c2, out=inv_c2)
            np.divide(1.0, np.square(arc, out=inv_a2), out=inv_a2)
            inv_c2[diag] = inv_a2[diag] = 0.0
            yield b, chords, gaps, arc, inv_c2, inv_a2, *spare


def mobius_energy(c):
    """Discrete self-repulsion energy; nonnegative, zero only in the limit of
    vanishing curvature, scale and rigid-motion invariant.  Raises
    :class:`~knotgauge.curve.EmbeddingError` on coincident samples.

    The same blocks give the largest intrinsic/chord ratio, which is
    recorded with the curve as its bilipschitz constant
    (:func:`~knotgauge.sobolev.bilip_constant`, the same value bit for
    bit): a descent asks for it on every curve it accepts, and at N = 256
    the record costs 0.1 ms, its tree search on a fresh curve 1 ms."""
    w = _weights(c)
    p = np.empty(c.n)
    top = -np.inf
    for b, chords, _, arc, inv_c2, inv_a2, f in _kernel_rows(c, 1):
        # rows of the pair kernel F = 1/chord^2 - 1/arc^2, applied to w
        p[b] = np.subtract(inv_c2, inv_a2, out=f) @ w
        # the diagonal's unit arc over a zero chord is no pair
        with np.errstate(divide="ignore"):
            ratio = np.divide(arc, chords, out=f)
        ratio[np.arange(b.stop - b.start), np.arange(b.start, b.stop)] = 0.0
        top = max(top, float(ratio.max()))
    c.cached("bilip", lambda: top)
    return float(w @ p)


def mobius_gradient(c):
    """Exact gradient of the discrete energy with respect to vertex positions.

    Accounts for the chord term, the shorter-arc lengths (through the edges
    each arc traverses), and the trapezoidal weights.  One pass over the
    row blocks of the pair kernel, so no N x N array is built.
    """
    n = c.n
    q = c.samples
    w = _weights(c)
    u = c.tangents()
    total = c.total_length()
    grad = np.empty((n, 3))
    p = np.empty(n)
    # circular difference array of the edge masses of the shorter arcs
    edge = np.empty(n)
    backward = 0.0
    for b, _, gaps, arc, inv_c2, inv_a2, f, h in _kernel_rows(c, 2):
        wb = w[b]
        p[b] = np.subtract(inv_c2, inv_a2, out=f) @ w

        # chord part: d/dq_k of sum w_i w_j / C_ij^2 is
        # -4 w_k sum_j w_j (q_k - q_j) / C_kj^4.  Positions are taken from a
        # vertex of the block, so the near pairs, whose terms are largest,
        # cancel from small numbers.
        inv_c4 = np.multiply(inv_c2, inv_c2, out=f)
        qb = q - q[(b.start + b.stop) // 2]
        grad[b] = -4.0 * wb[:, None] * ((inv_c4 @ w)[:, None] * qb[b]
                                        - inv_c4 @ (w[:, None] * qb))

        # intrinsic part: + 2 sum_{arc(i,j) contains e_m} w_i w_j / D^3
        # acting on the endpoints of e_m, both orders of each pair.  Row i
        # adds the pair mass 4 w_i w_j / D_ij^3 at i and takes it off at j
        # when the arc forward from i to j is the shorter one (sigma = +1),
        # the reverse when the backward arc is (sigma = -1).  At an exact
        # length tie both arcs are shortest; the symmetric subgradient
        # splits the pair mass between them (sigma = 0: ties are common on
        # regular grids and a one-sided choice would break rigid
        # symmetries).  sigma is fwd where j > i and -fwd where j < i.
        inv_a3 = np.divide(inv_a2, arc, out=inv_a2)
        short = np.subtract(0.5 * total, gaps, out=gaps)
        fwd = np.sign(short, out=h)
        fwd[np.abs(short, out=short) <= 1e-9 * total] = 0.0
        h = np.multiply(inv_a3, fwd, out=h)
        lower = np.tril(h[:, b], -1) @ wb
        edge[b] = 4.0 * wb * (h[:, b.start:] @ w[b.start:]
                              - h[:, :b.start] @ w[:b.start] - 2.0 * lower)
        # the backward arc of a pair i < j wraps through edge 0 and carries
        # the share (1 - fwd)/2 of the pair mass; over both orders that is
        # sum w_i w_j (1 - fwd_ij) / D_ij^3
        backward += wb @ (np.subtract(inv_a3, h, out=inv_a3) @ w)
    edge[0] += backward
    a_edge = np.cumsum(edge)
    u_prev = np.roll(u, 1, axis=0)
    grad += np.roll(a_edge, 1)[:, None] * u_prev
    grad -= a_edge[:, None] * u

    # weight part: 2 sum_i P_i dw_i/dq_k with P_i = sum_j F_ij w_j
    grad += (-np.roll(p, -1)[:, None] * u
             + p[:, None] * (u_prev - u)
             + np.roll(p, 1)[:, None] * u_prev)
    return grad


# -- rotational symmetry -------------------------------------------------------------


@dataclass(frozen=True)
class SymmetrySpec:
    """Order-p rotational symmetry about the e3 axis with multiplier m."""
    p: int
    m: int = 1

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("symmetry order must be >= 2")
        if math.gcd(self.m % self.p, self.p) != 1:
            raise ValueError(f"multiplier {self.m} not coprime to {self.p}")

    def rotation(self, k=1):
        ang = 2.0 * math.pi * self.m * k / self.p
        ca, sa = math.cos(ang), math.sin(ang)
        return np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])


def symmetry_residual(c, spec):
    """Sup distance between the curve and its symmetry image."""
    n = c.n
    if n % spec.p:
        raise ValueError("sample count not divisible by the symmetry order")
    shift = n // spec.p
    rot = spec.rotation(1)
    image = np.roll(c.samples, shift, axis=0) @ rot.T
    return float(np.max(np.linalg.norm(image - c.samples, axis=1)))


def symmetrize_field(h, spec):
    """Average a per-vertex field over the rotation orbit.

    The result is equivariant for the symmetry relation; an already
    equivariant field comes back multiplied by p.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if n % spec.p:
        raise ValueError("sample count not divisible by the symmetry order")
    shift = n // spec.p
    out = np.zeros_like(h)
    for k in range(1, spec.p + 1):
        rot = spec.rotation(-k)
        out += np.roll(h, -k * shift, axis=0) @ rot.T
    return out


def symmetrize_curve(c, spec):
    """Project vertices onto the symmetric class by orbit averaging."""
    return Curve(symmetrize_field(c.samples, spec) / spec.p)


# -- symmetric minimization ------------------------------------------------------------


@dataclass
class EnergyState:
    """Snapshot of one descent iteration."""
    iteration: int
    energy: float
    gradient_norm: float
    step: float
    residual: float
    bilip: float


@dataclass
class MinimizeConfig:
    torus: tuple | None = None          # (a, b)
    p: int = 2
    m: int = 1
    n: int = 256
    steps: int = 100
    initial: Curve | None = None

    def effective_n(self):
        """Requested sample count rounded up to a multiple of p."""
        return self.n + (-self.n) % self.p

    def build_initial(self):
        """The initial curve; a torus class (a, b) must have the symmetry
        (p divides b, m = a mod p), or orbit averaging leaves its class."""
        n = self.effective_n()
        if self.initial is not None:
            return resample_arclength(self.initial, n)
        if self.torus is None:
            raise ValueError("config needs either a torus class or a curve")
        a, b = self.torus
        if b % self.p or (self.m - a) % self.p:
            need = ("p must divide b" if b % self.p else
                    f"the multiplier must be m = {a % self.p} (a mod p)")
            raise ValueError(
                f"torus class ({a}, {b}) lacks the symmetry of order "
                f"p = {self.p} with multiplier m = {self.m}: {need}")
        return torus_knot(a, b, n=n)


@dataclass
class MinimizeResult:
    states: list
    curve: Curve                         # the last accepted iterate
    status: str                          # 'ok' | 'stalled'
    certificates: list = field(default_factory=list)

    @property
    def final(self):
        return self.states[-1]


class DescentAborted(RuntimeError):
    """Equivalence certificate failed during descent."""


def minimize_symmetric(cfg):
    """Projected symmetric gradient descent on the discrete energy.

    Each iteration symmetrizes the gradient, backtracks until the energy of
    the stepped, arclength-resampled, re-symmetrized curve decreases
    (sufficient-decrease rule), and emits energy, symmetry residual, and the
    measured bilipschitz constant.  Every ``CERTIFICATE_CADENCE`` iterations
    the current curve is certified against the last passing checkpoint; a
    failed certificate aborts the run.  Raises ValueError on negative
    ``cfg.steps``.
    """
    if not cfg.steps >= 0:
        raise ValueError(f"steps must be >= 0 (got {cfg.steps})")
    spec = SymmetrySpec(cfg.p, cfg.m)
    cur = cfg.build_initial()
    cur = symmetrize_curve(cur, spec)
    energy = mobius_energy(cur)
    states = [_state(0, cur, energy, 0.0, 0.0, spec)]
    certificates = []
    checkpoint = cur

    for it in range(1, cfg.steps + 1):
        grad = mobius_gradient(cur)
        h_sym = symmetrize_field(grad, spec)
        slope = float(np.sum(grad * h_sym))
        gmax = float(np.max(np.linalg.norm(h_sym, axis=1)))
        if gmax == 0.0:
            break  # exact critical point

        step = 1e-2 / gmax
        accepted = False
        for _ in range(MAX_HALVINGS):
            trial = Curve(cur.samples - step * h_sym)
            try:
                trial = symmetrize_curve(
                    resample_arclength(trial, cur.n), spec)
                e_trial = mobius_energy(trial)
            except CurveError:
                step *= 0.5
                continue
            if e_trial <= energy - ARMIJO_C * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return MinimizeResult(states=states, curve=cur, status="stalled",
                                  certificates=certificates)
        cur, energy = trial, e_trial
        states.append(_state(it, cur, energy, step, gmax, spec))
        if it % CERTIFICATE_CADENCE == 0:
            cert = certify_equivalence(checkpoint, cur)
            certificates.append((it, cert))
            if not cert.passed:
                raise DescentAborted(_abort_message(it, cert, checkpoint, cur))
            checkpoint = cur
    return MinimizeResult(states=states, curve=cur, status="ok",
                          certificates=certificates)


def _abort_message(it, cert, checkpoint, cur):
    """Why the certificate at iteration ``it`` failed: the threshold minus
    the margin, then, for each curve with no profile rung below it, the
    distortion of its lowest rung (the profile's float, without the
    profile's scan), or, when both have one, the Hausdorff distance
    against a quarter of the smaller scale."""
    thr = cert.threshold - cert.margin
    head = (f"certificate failed at iteration {it}: threshold - margin "
            f"{thr:.4f}")
    missing = [f"{name} has no rung below it (lowest rung "
               f"{_rung_distortion(c, 2.0 * scale_ladder(c)[0]):.4f})"
               for name, c, r in (("checkpoint", checkpoint, cert.r1),
                                  ("current curve", cur, cert.r2))
               if r is None]
    if missing:
        return f"{head}; " + "; ".join(missing)
    return (f"{head}; hausdorff {cert.hausdorff:.3e} not below r/4 = "
            f"{0.25 * min(cert.r1, cert.r2):.3e}")


def _state(it, cur, energy, step, gmax, spec):
    return EnergyState(iteration=it, energy=energy, gradient_norm=gmax,
                       step=step, residual=symmetry_residual(cur, spec),
                       bilip=bilip_constant(cur))
