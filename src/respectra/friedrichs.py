"""Exact solution of the single-level model without a continuum kernel.

Everything reduces to one scalar function eta(lambda) = lambda - Omega
- \\int V(z) Vbar(z) / (lambda - z) dz on the deformed path.  Its unique zero
between the path and the positive axis is the resonance pole; the residue
derivative eta'(pole) fixes the normalization of the discrete pair, and the
continuum pair needs the two boundary values eta(u +- i0) on the curve.

This module is the ground truth the perturbative engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour import ContourGrid, SampledPV, build_contour, pole_kernel_integral
from .errors import ContourError, ConvergenceError, DegeneratePairError, EvaluationError
from .model import ModelSpec, eval_V, eval_Vbar


def _vv(model: ModelSpec) -> Callable:
    """The product V(z) Vbar(z) entering every eta-type integral."""
    return lambda z: eval_V(model, z) * eval_Vbar(model, z)


def _require_friedrichs(model: ModelSpec):
    if model.has_kernel():
        raise EvaluationError("exact solution requires a vanishing continuum kernel")


def _min_node_gap(grid: ContourGrid, lam: complex) -> float:
    return float(np.min(np.abs(grid.nodes - lam)))


def _node_spacing(grid: ContourGrid) -> float:
    return float(np.median(np.abs(np.diff(grid.nodes))))


def eta(model: ModelSpec, lam: complex, grid: ContourGrid | None = None) -> complex:
    """lambda - Omega - \\int V Vbar / (lambda - z) dz for lambda off the curve."""
    _require_friedrichs(model)
    if grid is None:
        grid = build_contour(model.contour)
    if model.coupling == 0.0:
        return complex(lam - model.omega_level)
    if _min_node_gap(grid, lam) < _node_spacing(grid):
        raise EvaluationError(
            f"lambda={lam} lies within one node spacing of the contour; "
            "the quadrature of eta is near-singular there")
    f = _vv(model)
    vals = f(grid.nodes)
    return complex(lam - model.omega_level - np.sum(grid.weights * vals / (lam - grid.nodes)))


def eta_prime(model: ModelSpec, lam: complex, grid: ContourGrid | None = None) -> complex:
    """Analytic derivative of the quadrature sum, d eta / d lambda."""
    _require_friedrichs(model)
    if grid is None:
        grid = build_contour(model.contour)
    if model.coupling == 0.0:
        return 1.0 + 0j
    f = _vv(model)
    vals = f(grid.nodes)
    return complex(1.0 + np.sum(grid.weights * vals / (lam - grid.nodes) ** 2))


def eta_boundary(model: ModelSpec, u: complex, side: int,
                 grid: ContourGrid | None = None) -> complex:
    """Boundary value eta(u + side*i0) for u on the curve.

    side=+1 approaches from the region between the curve and the real axis.
    """
    _require_friedrichs(model)
    if grid is None:
        grid = build_contour(model.contour)
    if model.coupling == 0.0:
        return complex(u - model.omega_level)
    f = _vv(model)
    J = pole_kernel_integral(grid, f, u, side)
    return complex(u - model.omega_level - J)


@dataclass(frozen=True)
class PoleResult:
    lambda_pole: complex
    residual: float
    iterations: int
    method: str


def _newton(model, grid, lam0, tol, max_iter):
    lam = lam0
    for it in range(1, max_iter + 1):
        r = eta(model, lam, grid)
        if abs(r) <= tol:
            return lam, abs(r), it
        dp = eta_prime(model, lam, grid)
        lam = lam - r / dp
    r = eta(model, lam, grid)
    if abs(r) <= tol:
        return lam, abs(r), max_iter
    raise ConvergenceError(f"Newton iteration stalled at |eta|={abs(r):.3e}",
                           last_iterate=lam, residual=abs(r))


def _scan_for_extra_zeros(model, grid, found, tol):
    """Coarse |eta| scan in the strip; Newton-polish distinct minima and fail
    if any converge to a second zero."""
    d, X = model.contour.depth, model.contour.cutoff
    om = model.omega_level
    res = np.linspace(0.02 * X, 0.98 * X, 36)
    ims = -d * np.geomspace(1e-3, 0.9, 10)
    lams = (res[:, None] + 1j * ims[None, :]).ravel()
    f = _vv(model)
    vals = f(grid.nodes)
    et = lams - om - (vals * grid.weights) @ (1.0 / (lams[None, :] - grid.nodes[:, None]))
    order = np.argsort(np.abs(et))
    seen_other = []
    for idx in order[:6]:
        lam0 = lams[idx]
        try:
            lam, _, _ = _newton(model, grid, lam0, max(tol, 1e-11), 40)
        except (ConvergenceError, EvaluationError):
            continue
        inside = (0.0 < lam.real < X and -d < lam.imag < 0.0
                  and _min_node_gap(grid, lam) >= _node_spacing(grid))
        if not inside:
            continue
        if abs(lam - found) > 1e-6 * max(1.0, abs(found)):
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
    _require_friedrichs(model)
    if grid is None:
        grid = build_contour(model.contour)
    om = model.omega_level
    if model.coupling == 0.0:
        return PoleResult(complex(om), 0.0, 0, "fixed_point")
    f = _vv(model)
    vals = f(grid.nodes)

    def step(lam):
        return complex(om + np.sum(grid.weights * vals / (lam - grid.nodes)))

    # second-order estimate of the width: if it already reaches the contour
    # depth, the zero sits at or below the curve and the strip quadrature of
    # eta cannot see it
    lam2_est = step(complex(om))
    if abs(lam2_est.imag) >= 0.8 * model.contour.depth:
        raise ContourError(
            f"estimated pole {lam2_est} lies at or below the contour depth "
            f"{model.contour.depth}; re-deepen the contour and recompute")

    lam = complex(om)
    method = "fixed_point"
    it_used = 0
    prev_res = np.inf
    converged = False
    try:
        for it in range(1, max_iter + 1):
            lam_new = step(lam)
            res = abs(eta(model, lam_new, grid))
            lam = lam_new
            it_used = it
            if res <= tol:
                converged = True
                break
            if res > prev_res and it >= 8:
                break  # not contracting; fall back to Newton
            prev_res = res
        if not converged:
            lam, res, extra = _newton(model, grid, lam, tol, max_iter)
            method = "newton"
            it_used += extra
        else:
            res = abs(eta(model, lam, grid))
    except EvaluationError as e:
        # iterates driven onto the curve: the zero is not inside the strip
        raise ContourError(
            "pole iteration approached the contour; re-deepen the contour and "
            f"recompute ({e})") from e

    if lam.imag >= 0:
        raise ConvergenceError(f"pole {lam} not in the lower half plane", last_iterate=lam)
    if abs(lam.imag) >= model.contour.depth:
        raise ContourError(
            f"pole {lam} lies at or below the contour depth {model.contour.depth}; "
            "re-deepen the contour and recompute")
    if check_unique:
        _scan_for_extra_zeros(model, grid, lam, tol)
    return PoleResult(lam, float(res), it_used, method)


class ExactEigvecs:
    """Exact biorthogonal system: the discrete pair and the continuum family.

    The discrete pair is exposed as closed-form callables over the curve,
    the continuum family through eta(u +- i0) at every node u: the right
    member is the unit atom at u plus Vbar(u)/eta(u+i0) times (level + pole
    term V(z)/(u+i0-z)); the left one mirrors it with V(u)/eta(u-i0).
    """

    def __init__(self, model: ModelSpec, grid: ContourGrid, pole: PoleResult):
        self.model = model
        self.grid = grid
        self.pole = pole
        lam = pole.lambda_pole
        self.eta_prime = eta_prime(model, lam, grid)
        if abs(self.eta_prime) < 1e-8:
            raise DegeneratePairError(f"eta'({lam}) ~ 0: degenerate pole")
        self.norm = 1.0 / np.sqrt(self.eta_prime)   # principal branch
        # boundary values eta(u +- i0) at every node: one curve principal
        # value shared by both sides, which differ by the half residues
        pv = SampledPV(grid)
        f = _vv(model)
        vv = f(grid.nodes)
        J = pv(vv, vv, f(pv.stencil))
        base = grid.nodes - model.omega_level
        self.eta_plus = base - (J - 1j * np.pi * vv)
        self.eta_minus = base - (J + 1j * np.pi * vv)

    # -- discrete pair ------------------------------------------------------
    def f_disc_d(self) -> complex:
        return complex(self.norm)

    def f_disc_smooth(self) -> Callable:
        lam, c = self.pole.lambda_pole, self.norm
        return lambda z: c * eval_V(self.model, z) / (lam - z)

    def ftilde_disc_d(self) -> complex:
        return complex(self.norm)

    def ftilde_disc_smooth(self) -> Callable:
        lam, c = self.pole.lambda_pole, self.norm
        return lambda z: c * eval_Vbar(self.model, z) / (lam - z)


def exact_system(model: ModelSpec, grid: ContourGrid | None = None,
                 pole: PoleResult | None = None) -> ExactEigvecs:
    """Solve the model exactly: pole, normalization and both eigenvector families."""
    _require_friedrichs(model)
    if grid is None:
        grid = build_contour(model.contour)
    if pole is None:
        pole = find_pole(model, grid=grid)
    return ExactEigvecs(model, grid, pole)
