"""Vectors of the bilinear representation and their real-axis reference pairings.

Every ket and every functional of the package, test vectors and the
order-by-order eigenvectors alike, is an ``AnalyticVector``: a level
component plus one analytic profile.  The ket side holds the amplitude
function <z|Phi>, the bra side holds <Psi|z> directly, so pairings never
conjugate.  Profiles must continue analytically to the half plane named by
``side`` ("lower" for kets, "upper" for bras, "both" for either use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour import ContourGrid
from .model import ModelSpec, eval_V, eval_kernel_factor

_SIDES = ("lower", "upper", "both")


@dataclass(frozen=True)
class AnalyticVector:
    """d-component plus an analytic continuum profile (None means zero)."""

    d: complex = 0j
    profile: Callable | None = None
    side: str = "both"

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")

    def at(self, z):
        if self.profile is None:
            return np.zeros_like(np.asarray(z, dtype=complex))
        return np.asarray(self.profile(z), dtype=complex)

    def scaled(self, c: complex) -> "AnalyticVector":
        p = self.profile
        return AnalyticVector(self.d * c, None if p is None else lambda z: c * p(z), self.side)

    def __add__(self, other: "AnalyticVector") -> "AnalyticVector":
        """Level parts add and profiles add, for vectors of one ``side``."""
        if other.side != self.side:
            raise ValueError(f"cannot add a {other.side!r} vector to a {self.side!r} one")
        p, q = self.profile, other.profile
        profile = p if q is None else q if p is None else lambda z: p(z) + q(z)
        return AnalyticVector(self.d + other.d, profile, self.side)

    # block selectors: the projector algebra of the unperturbed generator
    def project_d(self) -> "AnalyticVector":
        return AnalyticVector(self.d, None, self.side)

    def project_continuum(self) -> "AnalyticVector":
        return AnalyticVector(0j, self.profile, self.side)


def unstable_state() -> AnalyticVector:
    """The bare discrete level |1> (or <1| on the bra side)."""
    return AnalyticVector(d=1.0 + 0j, profile=None, side="both")


def random_analytic(rng: np.random.Generator) -> AnalyticVector:
    """Seeded random entire profile c_k z^{m_k} e^{-a_k z}, two-sided analytic.

    Decay rates stay above 0.3 so the cutoff tail is negligible on default
    contours.
    """
    terms = []
    for _ in range(3):
        c = complex(rng.standard_normal(), rng.standard_normal()) / 3.0
        a = float(rng.uniform(0.35, 1.2))
        m = int(rng.integers(0, 3))
        terms.append((c, a, m))
    d = complex(rng.standard_normal(), rng.standard_normal()) / 2.0

    def profile(z, _terms=tuple(terms)):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c, a, m in _terms:
            out = out + c * z**m * np.exp(-a * z)
        return out

    return AnalyticVector(d=d, profile=profile, side="both")


def real_axis_inner(psi: AnalyticVector, phi: AnalyticVector, grid: ContourGrid) -> complex:
    """Reference <Psi|Phi> evaluated on ``grid``, a grid of the undeformed
    positive axis (``contour.real_axis_grid``)."""
    w = grid.nodes.real
    val = np.sum(grid.weights.real * psi.at(w) * phi.at(w))
    return complex(psi.d * phi.d + val)


def real_axis_inner_H(model: ModelSpec, psi: AnalyticVector, phi: AnalyticVector,
                      grid: ContourGrid) -> complex:
    """Reference <Psi|H|Phi> on ``grid``, a grid of the positive axis,
    including the kernel term, the rank-one product of the factor g's
    quadratures against Psi and Phi."""
    w = grid.nodes.real
    ww = grid.weights.real
    pw = psi.at(w)
    fw = phi.at(w)
    v = eval_V(model, w)
    out = model.omega_level * psi.d * phi.d
    out += np.sum(ww * w * pw * fw)
    out += np.sum(ww * v * pw) * phi.d + psi.d * np.sum(ww * np.conj(v) * fw)
    if model.has_kernel():
        wg = ww * eval_kernel_factor(model, w)
        out += np.sum(wg * pw) * np.sum(wg * fw)
    return complex(out)
