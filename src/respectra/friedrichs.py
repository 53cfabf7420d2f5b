"""Exact solution of the single-level model without a continuum kernel.

Everything reduces to one scalar function eta(lambda) = lambda - Omega
- \\int V(z) Vbar(z) / (lambda - z) dz on the deformed path.  Its unique zero
between the path and the positive axis is the resonance pole; the residue
derivative eta'(pole) fixes the normalization of the discrete pair, and the
continuum pair needs the two boundary values eta(u +- i0) on the curve.

``SampledEta`` reads one ``model.SampledRows`` table of V and Vbar: its
moments, eta and eta' the node rows, and its boundary values eta(u +- i0),
one sweep at the table's own points, the point rows.  The pole solve ends by
counting the zeros in the strip with the argument principle: the winding of
eta(u + i0) at every ceil(n/200)-th node, addressed by index, closed above
the axis, where eta has no zero, by its phases at the ends 0 and X.  A count
other than 1 is refused, and so, before any iteration, are an unresolved
quadrature (\\int V Vbar / z, which is real, read as complex) and a bound
level: eta(0-) > 0 puts a real zero of eta below the threshold.
``find_pole`` samples its table at the nodes and the count's points'
stencils, the exact system at every node's stencil, a table its families
keep as their rows: one check each.  Each sweeps once its pole is solved.

This module is the ground truth the perturbative engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .contour import ContourGrid, SampledPV, _bracketed_root, build_contour
from .errors import (BoundStateError, ContourError, ConvergenceError, DegeneratePairError,
                     EvaluationError)
from .model import ModelSpec, SampledRows


class SampledEta:
    """eta(lambda) = lambda - Omega - \\int V Vbar / (lambda - z) dz on the
    grid of one ``SampledRows`` table of a kernel-free model.

    The moments, eta and eta' read w_j V(z_j) Vbar(z_j), formed once from the
    table's node rows, and ``boundary`` reads its point rows; ``v``, the V
    node row, gives ``liouville`` its level profile.
    """

    def __init__(self, rows: SampledRows):
        if rows.model.has_kernel():
            raise EvaluationError("exact solution requires a vanishing continuum kernel")
        self.rows = rows
        self.model = rows.model
        self.grid = rows.pv.grid
        self.omega = self.model.omega_level
        self.free = self.model.coupling == 0.0
        self.v = rows.nodes["V"]
        self.vv = self.v * rows.nodes["Vbar"]
        self.wvv = self.grid.weights * self.vv
        gaps = np.sort(np.abs(np.diff(self.grid.nodes)))    # np.median would import numpy.ma
        self.spacing = float(np.mean(gaps[(len(gaps) - 1) // 2:len(gaps) // 2 + 1]))   # median

    def terms(self, lam, power: int = 1) -> np.ndarray:
        """The summands w_j V Vbar(z_j) / (lambda - z_j)^power of a moment,
        nodes along a last axis added to the shape of lambda."""
        d = np.asarray(lam)[..., None] - self.grid.nodes
        return self.wvv / (d if power == 1 else d ** power)   # complex x**1 is slow

    def moment(self, lam: complex, power: int = 1) -> complex:
        """sum_j w_j V Vbar(z_j) / (lambda - z_j)^power at one lambda."""
        return complex(np.sum(self.terms(lam, power), axis=-1))

    def guard(self, lam: complex) -> None:
        """Raise unless lambda is a node spacing off every node, where eta's quadrature holds."""
        if not float(np.min(np.abs(self.grid.nodes - lam))) >= self.spacing:
            raise EvaluationError(
                f"lambda={lam} lies within one node spacing of the contour; "
                "the quadrature of eta is near-singular there")

    def __call__(self, lam: complex) -> complex:
        """eta(lambda) for lambda off the curve."""
        if self.free:
            return complex(lam - self.omega)
        self.guard(lam)
        return complex(lam - self.omega - self.moment(lam))

    def prime(self, lam: complex) -> complex:
        """Analytic derivative of the quadrature sum, d eta / d lambda."""
        if self.free:
            return 1.0 + 0j
        return complex(1.0 + self.moment(lam, 2))

    def boundary(self) -> tuple[np.ndarray, np.ndarray]:
        """eta(u + i0) and eta(u - i0) at the points u of the table's
        ``SampledPV``: one curve principal value of V Vbar, from the table's
        rows, plus or minus the half residue; u - Omega at zero coupling."""
        pv, points = self.rows.pv, self.rows.points
        base = pv.u - self.omega
        if self.free:
            return base, base
        vv = points["V"] * points["Vbar"]
        J = pv.sum(self.wvv[None], vv[:, None, :])[:, 0]
        return base - (J - 1j * np.pi * vv[:, 0]), base - (J + 1j * np.pi * vv[:, 0])


@dataclass(frozen=True)
class PoleResult:
    """The pole, its residual |eta| and solve path; ``zero_count`` is the
    number of zeros in the strip and ``min_boundary`` the least |eta(u + i0)|
    over the curve samples of the count (both None at zero coupling, where
    the pole is Omega and no count runs)."""

    lambda_pole: complex
    residual: float
    iterations: int
    method: str
    zero_count: int | None = None
    min_boundary: float | None = None


# curve samples of the zero count: every k-th node, k = ceil(n / COUNT_SAMPLES)
COUNT_SAMPLES = 200
# most iterations of the fixed-point loop, and again of the Newton fallback
MAX_ITER = 200


def _count_points(grid: ContourGrid) -> slice:
    """The nodes, addressed by index, at which the zero count reads eta(u + i0)."""
    return slice(None, None, -(-grid.n // COUNT_SAMPLES))


def _count_zeros(eta: SampledEta, plus: np.ndarray) -> tuple[int | None, float | None]:
    """Zeros of eta in the strip by the argument principle, and the least
    |eta(u + i0)| on the curve samples; a ContourError unless the count is 1.
    At zero coupling no count runs: (None, None).

    The loop runs from 0 along the curve on eta(u + i0), ``plus``, at the
    nodes of ``_count_points``, to X, and back X -> X + ih -> ih -> 0 above
    the axis, where eta is the first sheet's and Im eta = Im lambda (1 +
    \\int |V|^2 / |lambda - x|^2 dx) > 0: no zero there, and a turn of arg
    eta(0) - arg eta(X), both in [0, pi] once their imaginary parts are
    clipped at 0, where exact arithmetic puts them (eta(0) is real, Im eta(X
    + i0) = pi |V(X)|^2).  A step over pi/2 between curve samples cannot be
    refined, so it is refused."""
    if eta.free:
        return None, None
    samples = _count_points(eta.grid)
    u = eta.grid.nodes[samples]
    at_0, at_X = (lam - eta.omega - eta.moment(lam) for lam in (0.0, eta.model.contour.cutoff))
    at_0, at_X = (complex(e.real, e.imag if e.imag > 0 else 0.0) for e in (at_0, at_X))
    # the curve from 0 (the return path's end) to X (its start)
    curve = np.concatenate([[at_0], plus, [at_X]])
    steps = np.angle(curve[1:] / curve[:-1])
    count = int(round((steps.sum() + np.angle(at_0) - np.angle(at_X)) / (2 * np.pi)))
    if count != 1:
        raise ContourError(f"eta has {count} zeros in the strip, not 1; the single-pole "
                           "assumption fails for this model")
    j = int(np.argmax(np.abs(steps)))
    if abs(steps[j]) > np.pi / 2:
        where = "0" if j == 0 else f"node {(j - 1) * samples.step} (u={complex(u[j - 1]):.5g})"
        raise ContourError(f"eta(u + i0) turns by {steps[j]:.3f} rad in one step from {where} "
                           "along the curve; its samples cannot fix the zero count")
    return count, float(np.min(np.abs(plus)))


def _refuse_bound_state(eta: SampledEta, m0: complex) -> None:
    """A BoundStateError if eta(0-) = -Omega - Re m0 > 0, m0 = -\\int V Vbar / z
    being eta's moment at 0.

    On the negative axis eta rises (eta' = 1 + \\int V Vbar / (lambda - x)^2)
    from -infinity, so it then has one real zero lambda_b < 0, a bound state
    below the threshold, which one bracketed solve finds."""
    if -eta.omega - m0.real <= 0.0:
        return
    eta_real = lambda lam: float((lam - eta.omega - eta.moment(lam)).real)
    lo = -1.0
    while eta_real(lo) >= 0.0:
        lo *= 2.0
    lam_b = _bracketed_root(eta_real, lambda lam: eta.prime(lam).real, lo, 0.0)
    raise BoundStateError(f"eta has a real zero at lambda = {lam_b:.6g} below the threshold: "
                          "the level is bound, and there is no resonance pole", energy=lam_b)


def _newton(eta: SampledEta, lam0, tol):
    lam = lam0
    for it in range(1, MAX_ITER + 1):
        r = eta(lam)
        if abs(r) <= tol:
            return lam, abs(r), it
        lam = lam - r / eta.prime(lam)
    r = eta(lam)
    if abs(r) <= tol:
        return lam, abs(r), MAX_ITER
    raise ConvergenceError(f"Newton iteration stalled at |eta|={abs(r):.3e}",
                           last_iterate=lam, residual=abs(r))


def find_pole(model: ModelSpec, tol: float = 1e-13,
              grid: ContourGrid | None = None) -> PoleResult:
    """Zero of eta between the curve and the positive axis.

    A plain fixed-point iteration lambda <- Omega + \\int V Vbar/(lambda - z)
    starting at Omega is tried first; Newton on eta is the fallback, each for
    at most MAX_ITER iterations.  The zeros in the strip are then counted on
    one sweep at the count's curve samples, and a count other than 1 is a
    ContourError.  A bound level, eta(0-) > 0, is a BoundStateError.  One
    table holds V and Vbar at the nodes and at those samples' stencils.
    """
    grid = build_contour(model.contour) if grid is None else grid
    eta = SampledEta(SampledRows(model, SampledPV(grid, _count_points(grid))))
    return PoleResult(*_solve_pole(eta, tol), *_count_zeros(eta, eta.boundary()[0]))


def _solve_pole(eta: SampledEta, tol: float = 1e-13) -> tuple[complex, float, int, str]:
    """``find_pole`` on a sampled eta up to its zero count: (lambda,
    residual, iterations, method)."""
    om, depth = eta.omega, eta.model.contour.depth
    if eta.free:
        return complex(om), 0.0, 0, "fixed_point"
    m0 = eta.moment(0.0)      # -\int V Vbar / z, real in exact arithmetic
    if abs(m0.imag) > 1e-6 * abs(m0):
        raise ContourError(
            f"the quadrature of eta is unresolved: \\int V Vbar / z, which is real, reads "
            f"{-m0:.6g} on a contour of depth {depth:.6g}, the form factor's pole depth "
            f"being {eta.model.form_factor.pole_depth}; add nodes or keep off the pole")
    _refuse_bound_state(eta, m0)
    # the first iterate is the second-order estimate: if its width already
    # reaches the contour depth, the zero sits at or below the curve and the
    # strip quadrature of eta cannot see it
    m = eta.moment(complex(om))
    lam = complex(om + m)
    if abs(lam.imag) >= 0.8 * depth:
        raise ContourError(
            f"estimated pole {lam} lies at or below the contour depth "
            f"{depth}; re-deepen the contour and recompute")

    method, it_used, prev_res, res = "fixed_point", 0, np.inf, np.inf
    try:
        for it_used in range(1, MAX_ITER + 1):
            # the moment at an iterate is its residual and the next iterate
            lam = complex(om + m)
            eta.guard(lam)
            m = eta.moment(lam)
            res = abs(lam - om - m)
            if res <= tol or (res > prev_res and it_used >= 8):
                break  # converged, or not contracting: Newton takes over
            prev_res = res
        if res > tol:
            lam, res, extra = _newton(eta, lam, tol)
            method = "newton"
            it_used += extra
    except EvaluationError as e:
        # iterates driven onto the curve: the zero is not inside the strip
        raise ContourError(
            "pole iteration approached the contour; re-deepen the contour and "
            f"recompute ({e})") from e

    if lam.imag >= 0:
        raise ConvergenceError(f"pole {lam} not in the lower half plane", last_iterate=lam)
    if abs(lam.imag) >= depth:
        raise ContourError(
            f"pole {lam} lies at or below the contour depth {depth}; "
            "re-deepen the contour and recompute")
    if not 0.0 < lam.real < eta.model.contour.cutoff:
        # e.g. a level pushed below the threshold: a zero on the negative axis
        raise ContourError(f"pole {lam} lies outside the continuum window "
                           f"0 < Re < {eta.model.contour.cutoff} of the strip")
    return lam, float(res), it_used, method


@dataclass(frozen=True)
class ExactEigvecs:
    """Exact biorthogonal system as arrays.

    The discrete pair is norm * (level + V(z)/(pole - z)) on the right, Vbar
    on the left, norm = eta'(pole)^(-1/2).  The right continuum member at a
    node u is the unit atom at u plus Vbar(u)/eta(u+i0) times (level + pole
    term V(z)/(u+i0-z)); the left one mirrors it with V(u)/eta(u-i0).
    ``rows`` holds V and Vbar on the node principal value eta(u +- i0) was
    swept on, which the families pair through.
    """

    model: ModelSpec
    grid: ContourGrid
    pole: PoleResult
    norm: complex
    rows: SampledRows
    eta_plus: np.ndarray
    eta_minus: np.ndarray


def exact_system(model: ModelSpec, grid: ContourGrid | None = None,
                 tol: float = 1e-13) -> ExactEigvecs:
    """Solve the model exactly on one table of V and Vbar at every node's
    stencil: the pole at ``tol`` on its node rows, the boundary sweep at
    every node, whose samples the zero count reads, the normalization and
    both eigenvector families.  The sweep runs once the solve has its pole,
    so a model the solve refuses never pays for it."""
    grid = build_contour(model.contour) if grid is None else grid
    eta = SampledEta(SampledRows(model, SampledPV(grid)))
    solve = _solve_pole(eta, tol)
    plus, minus = eta.boundary()
    pole = PoleResult(*solve, *_count_zeros(eta, plus[_count_points(grid)]))
    lam = pole.lambda_pole
    ep = eta.prime(lam)
    if abs(ep) < 1e-8:
        raise DegeneratePairError(f"eta'({lam}) ~ 0: degenerate pole")
    return ExactEigvecs(model, grid, pole, 1.0 / np.sqrt(ep),   # principal branch
                        eta.rows, plus, minus)
