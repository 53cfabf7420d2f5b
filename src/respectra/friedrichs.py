"""Exact solution of the single-level model without a continuum kernel.

Everything reduces to one scalar function eta(lambda) = lambda - Omega
- \\int V(z) Vbar(z) / (lambda - z) dz on the deformed path.  Its unique zero
between the path and the positive axis is the resonance pole; the residue
derivative eta'(pole) fixes the normalization of the discrete pair, and the
continuum pair needs the two boundary values eta(u +- i0) on the curve.

``SampledEta`` samples V Vbar once per grid; the pole solve, the exact
system and the scalar functions below all read its moments.  The pole solve
ends with a scan for other zeros in the strip: a coarse grid ranked by one
Cauchy product, its best points polished together by ``_newton_batch``,
which finds bit for bit the zeros a scalar ``_newton`` finds from each.

This module is the ground truth the perturbative engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .contour import ContourGrid, SampledPV, build_contour
from .errors import ContourError, ConvergenceError, DegeneratePairError, EvaluationError
from .model import ModelSpec, eval_V, eval_Vbar


class SampledEta:
    """eta(lambda) = lambda - Omega - \\int V Vbar / (lambda - z) dz on one grid.

    w_j V(z_j) Vbar(z_j) and the node spacing are sampled once; the moments,
    eta, eta' and the boundary values eta(u +- i0) all read them.
    """

    def __init__(self, model: ModelSpec, grid: ContourGrid | None = None):
        if model.has_kernel():
            raise EvaluationError("exact solution requires a vanishing continuum kernel")
        self.model = model
        self.grid = build_contour(model.contour) if grid is None else grid
        self.omega = model.omega_level
        self.free = model.coupling == 0.0
        self.vv = self._vv_at(self.grid.nodes)
        self.wvv = self.grid.weights * self.vv
        self.spacing = float(np.median(np.abs(np.diff(self.grid.nodes))))

    def _vv_at(self, z):
        return eval_V(self.model, z) * eval_Vbar(self.model, z)

    def terms(self, lam, power: int = 1) -> np.ndarray:
        """The summands w_j V Vbar(z_j) / (lambda - z_j)^power of a moment,
        nodes along a last axis added to the shape of lambda."""
        d = np.asarray(lam)[..., None] - self.grid.nodes
        return self.wvv / (d if power == 1 else d ** power)   # complex x**1 is slow

    def moment(self, lam, power: int = 1):
        """sum_j w_j V Vbar(z_j) / (lambda - z_j)^power at a scalar lambda or
        at every point of an array of them."""
        total = np.sum(self.terms(lam, power), axis=-1)
        return complex(total) if np.ndim(lam) == 0 else total

    def off_curve(self, lam: complex) -> bool:
        """Whether lambda keeps at least one node spacing from every node."""
        return float(np.min(np.abs(self.grid.nodes - lam))) >= self.spacing

    def __call__(self, lam: complex) -> complex:
        """eta(lambda) for lambda off the curve."""
        if self.free:
            return complex(lam - self.omega)
        if not self.off_curve(lam):
            raise EvaluationError(
                f"lambda={lam} lies within one node spacing of the contour; "
                "the quadrature of eta is near-singular there")
        return complex(lam - self.omega - self.moment(lam))

    def prime(self, lam: complex) -> complex:
        """Analytic derivative of the quadrature sum, d eta / d lambda."""
        if self.free:
            return 1.0 + 0j
        return complex(1.0 + self.moment(lam, 2))

    def boundary(self, u=None) -> tuple[np.ndarray, np.ndarray]:
        """eta(u + i0) and eta(u - i0) at the curve points u (every node by
        default): one curve principal value plus or minus the half residue."""
        pv = SampledPV(self.grid, u)
        vv = self.vv if u is None else self._vv_at(pv.u)
        J = pv(self._vv_at)
        base = pv.u - self.omega
        return base - (J - 1j * np.pi * vv), base - (J + 1j * np.pi * vv)


def eta(model: ModelSpec, lam: complex, grid: ContourGrid | None = None) -> complex:
    """lambda - Omega - \\int V Vbar / (lambda - z) dz for lambda off the curve."""
    return SampledEta(model, grid)(lam)


def eta_prime(model: ModelSpec, lam: complex, grid: ContourGrid | None = None) -> complex:
    """Analytic derivative of the quadrature sum, d eta / d lambda."""
    return SampledEta(model, grid).prime(lam)


def eta_boundary(model: ModelSpec, u: complex, side: int,
                 grid: ContourGrid | None = None) -> complex:
    """Boundary value eta(u + side*i0) for u on the curve.

    side=+1 approaches from the region between the curve and the real axis.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    plus, minus = SampledEta(model, grid).boundary(u)
    return complex((plus if side > 0 else minus)[0])


@dataclass(frozen=True)
class PoleResult:
    lambda_pole: complex
    residual: float
    iterations: int
    method: str


def _newton(eta: SampledEta, lam0, tol, max_iter):
    lam = lam0
    for it in range(1, max_iter + 1):
        r = eta(lam)
        if abs(r) <= tol:
            return lam, abs(r), it
        lam = lam - r / eta.prime(lam)
    r = eta(lam)
    if abs(r) <= tol:
        return lam, abs(r), max_iter
    raise ConvergenceError(f"Newton iteration stalled at |eta|={abs(r):.3e}",
                           last_iterate=lam, residual=abs(r))


def _newton_batch(eta: SampledEta, lam0: np.ndarray, tol, max_iter) -> np.ndarray:
    """``_newton`` from every start of ``lam0`` at once, on arrays.

    Returns the zeros in the order of the starts, NaN where ``_newton`` would
    raise: an iterate within one node spacing of the curve, or no
    |eta| <= tol after ``max_iter`` steps."""
    lam = np.array(lam0, dtype=complex)
    out = np.full(lam.shape, np.nan, dtype=complex)
    idx = np.arange(lam.size)           # the starts still iterating
    for it in range(max_iter + 1):
        idx = idx[np.min(np.abs(eta.grid.nodes - lam[idx, None]), axis=-1) >= eta.spacing]
        x = lam[idx]
        r = x - eta.omega - eta.moment(x)
        hit = np.abs(r) <= tol
        out[idx[hit]] = x[hit]
        idx, x, r = idx[~hit], x[~hit], r[~hit]
        if it == max_iter or idx.size == 0:
            break
        # the quotient in Python's complex arithmetic, as ``_newton`` takes it
        # (numpy rounds complex division differently), so every zero is bit
        # for bit the one a lone ``_newton`` from its start finds
        quot = [complex(a) / complex(b) for a, b in zip(r, 1.0 + eta.moment(x, 2))]
        lam[idx] = x - np.array(quot, dtype=complex)
    return out


def _scan_for_extra_zeros(eta: SampledEta, found, tol):
    """Coarse |eta| scan in the strip; Newton-polish distinct minima and fail
    if any converge to a second zero.

    The 360 grid points are ranked by one Cauchy product 1/(lambda - z) @
    w V Vbar, and the 6 best are polished together by ``_newton_batch``."""
    d, X = eta.model.contour.depth, eta.model.contour.cutoff
    res = np.linspace(0.02 * X, 0.98 * X, 36)
    ims = -d * np.geomspace(1e-3, 0.9, 10)
    lams = (res[:, None] + 1j * ims[None, :]).ravel()
    C = lams[:, None] - eta.grid.nodes
    np.reciprocal(C, out=C)
    order = np.argsort(np.abs(lams - eta.omega - C @ eta.wvv))
    seen_other = []
    for lam in _newton_batch(eta, lams[order[:6]], max(tol, 1e-11), 40):
        if np.isnan(lam):
            continue
        lam = complex(lam)
        inside = 0.0 < lam.real < X and -d < lam.imag < 0.0 and eta.off_curve(lam)
        if inside and abs(lam - found) > 1e-6 * max(1.0, abs(found)):
            seen_other.append(lam)
    if seen_other:
        raise ContourError(f"eta has additional zeros in the strip, e.g. {seen_other[0]}; "
                           "the single-pole assumption fails for this model")


def find_pole(model: ModelSpec, tol: float = 1e-13, max_iter: int = 200,
              grid: ContourGrid | None = None, check_unique: bool = True) -> PoleResult:
    """Zero of eta between the curve and the positive axis.

    A plain fixed-point iteration lambda <- Omega + \\int V Vbar/(lambda - z)
    starting at Omega is tried first; Newton on eta is the fallback.
    """
    return _solve_pole(SampledEta(model, grid), tol, max_iter, check_unique)


def _solve_pole(eta: SampledEta, tol: float = 1e-13, max_iter: int = 200,
                check_unique: bool = True) -> PoleResult:
    om, depth = eta.omega, eta.model.contour.depth
    if eta.free:
        return PoleResult(complex(om), 0.0, 0, "fixed_point")
    # second-order estimate of the width: if it already reaches the contour
    # depth, the zero sits at or below the curve and the strip quadrature of
    # eta cannot see it
    lam2_est = complex(om + eta.moment(complex(om)))
    if abs(lam2_est.imag) >= 0.8 * depth:
        raise ContourError(
            f"estimated pole {lam2_est} lies at or below the contour depth "
            f"{depth}; re-deepen the contour and recompute")

    lam = complex(om)
    method = "fixed_point"
    it_used = 0
    prev_res = np.inf
    converged = False
    try:
        for it in range(1, max_iter + 1):
            lam_new = complex(om + eta.moment(lam))
            res = abs(eta(lam_new))
            lam = lam_new
            it_used = it
            if res <= tol:
                converged = True
                break
            if res > prev_res and it >= 8:
                break  # not contracting; fall back to Newton
            prev_res = res
        if not converged:
            lam, res, extra = _newton(eta, lam, tol, max_iter)
            method = "newton"
            it_used += extra
        else:
            res = abs(eta(lam))
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
    if check_unique:
        _scan_for_extra_zeros(eta, lam, tol)
    return PoleResult(lam, float(res), it_used, method)


@dataclass(frozen=True)
class ExactEigvecs:
    """Exact biorthogonal system as arrays.

    The discrete pair is norm * (level + V(z)/(pole - z)) on the right, Vbar
    on the left, norm = eta'(pole)^(-1/2).  The right continuum member at a
    node u is the unit atom at u plus Vbar(u)/eta(u+i0) times (level + pole
    term V(z)/(u+i0-z)); the left one mirrors it with V(u)/eta(u-i0).
    """

    model: ModelSpec
    grid: ContourGrid
    pole: PoleResult
    eta_prime: complex
    norm: complex
    eta_plus: np.ndarray
    eta_minus: np.ndarray


def exact_system(model: ModelSpec, grid: ContourGrid | None = None,
                 pole: PoleResult | None = None) -> ExactEigvecs:
    """Solve the model exactly: pole, normalization and both eigenvector
    families, on one sampled eta; a pole already solved on ``grid`` is reused."""
    eta = SampledEta(model, grid)
    if pole is None:
        pole = _solve_pole(eta)
    lam = pole.lambda_pole
    ep = eta.prime(lam)
    if abs(ep) < 1e-8:
        raise DegeneratePairError(f"eta'({lam}) ~ 0: degenerate pole")
    return ExactEigvecs(model, eta.grid, pole, ep, 1.0 / np.sqrt(ep),   # principal branch
                        *eta.boundary())
