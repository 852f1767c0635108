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

from .curve import Curve, CurveError, resample_arclength, row_blocks
from .distortion import certify_equivalence
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


def _kernel_rows(c):
    """Per row block ``b`` of :func:`~knotgauge.curve.row_blocks`: ``b``,
    the block's shorter-arc lengths with a unit diagonal, and its rows of
    1/chord^2 and 1/arc^2 with zero diagonals.  All are fresh arrays, so
    the curve's cached matrices are never written."""
    for b in row_blocks(c.n):
        diag = (np.arange(b.stop - b.start), np.arange(b.start, b.stop))
        c2 = c.chord_rows(b) ** 2
        arc = c.intrinsic_rows(b)
        c2[diag] = 1.0
        arc[diag] = 1.0
        inv_c2 = np.reciprocal(c2, out=c2)
        inv_a2 = 1.0 / arc**2
        inv_c2[diag] = inv_a2[diag] = 0.0
        yield b, arc, inv_c2, inv_a2


def mobius_energy(c):
    """Discrete self-repulsion energy; nonnegative, zero only in the limit of
    vanishing curvature, scale and rigid-motion invariant.  Raises
    :class:`~knotgauge.curve.EmbeddingError` on coincident samples."""
    w = _weights(c)
    p = np.empty(c.n)
    for b, _, inv_c2, inv_a2 in _kernel_rows(c):
        # rows of the pair kernel F = 1/chord^2 - 1/arc^2, applied to w
        p[b] = (inv_c2 - inv_a2) @ w
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
    s = c.cum_lengths()[:-1]
    total = c.total_length()
    grad = np.empty((n, 3))
    p = np.empty(n)
    # circular difference array of the edge masses of the shorter arcs
    edge = np.empty(n)
    backward = 0.0
    for b, arc, inv_c2, inv_a2 in _kernel_rows(c):
        wb = w[b]
        p[b] = (inv_c2 - inv_a2) @ w

        # chord part: d/dq_k of sum w_i w_j / C_ij^2 is
        # -4 w_k sum_j w_j (q_k - q_j) / C_kj^4.  Positions are taken from a
        # vertex of the block, so the near pairs, whose terms are largest,
        # cancel from small numbers.
        inv_c4 = inv_c2 * inv_c2
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
        inv_a3 = inv_a2 / arc
        short = 0.5 * total - np.abs(s[b, None] - s)
        fwd = np.sign(short)
        fwd[np.abs(short) <= 1e-9 * total] = 0.0
        h = inv_a3 * fwd
        lower = np.tril(h[:, b], -1) @ wb
        edge[b] = 4.0 * wb * (h[:, b.start:] @ w[b.start:]
                              - h[:, :b.start] @ w[:b.start] - 2.0 * lower)
        # the backward arc of a pair i < j wraps through edge 0 and carries
        # the share (1 - fwd)/2 of the pair mass; over both orders that is
        # sum w_i w_j (1 - fwd_ij) / D_ij^3
        backward += wb @ ((inv_a3 - h) @ w)
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
    failed certificate aborts the run.
    """
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
                raise DescentAborted(
                    f"certificate failed at iteration {it}: "
                    f"hausdorff {cert.hausdorff:.3e} vs scales "
                    f"{cert.r1}, {cert.r2}")
            checkpoint = cur
    return MinimizeResult(states=states, curve=cur, status="ok",
                          certificates=certificates)


def _state(it, cur, energy, step, gmax, spec):
    return EnergyState(iteration=it, energy=energy, gradient_norm=gmax,
                       step=step, residual=symmetry_residual(cur, spec),
                       bilip=bilip_constant(cur))
