"""Discretized complex contours and the quadrature primitives built on them.

A contour runs from 0 on the real axis into the lower half plane and back to
the real axis at a finite cutoff X.  Composite Gauss-Legendre nodes are mapped
onto the path; the panel touching the origin uses a quartic parameter map so
that quarter- and half-integer powers of z (the branch behaviour of the
built-in form factors) integrate with spectral accuracy.

Delta distributions on the curve are never sampled: an atom at position u
pairs with a function f as f(u) with unit weight.

Gauss-Legendre rules are computed once per size and shared, read-only, by
every grid built from them.

``SampledPV`` is the one principal-value quadrature.  It takes integrands as
functions and evaluates them itself, at the nodes and at each curve point
with its derivative stencil; ``pole_kernel_integral`` (a curve point) and
``plemelj_integral`` (a point of a real-axis grid) are its one-point cases.
An integrand shared by all points costs one Cauchy reciprocal and one matrix
product per block of points, for any number of targets, each with its own
side of the pole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from .errors import ContourError, EvaluationError

_SHAPES = ("rectangle", "semi_ellipse")
# rows of the sampled principal-value operator held in memory at once
PV_BLOCK = 128
# step of the five-point derivative stencil along the curve, at |u| >= 1
STENCIL_DELTA = 1e-3


@dataclass(frozen=True)
class ContourSpec:
    """Geometry of the deformed path: maximum depth below the axis, real-axis
    cutoff, shape tag and total node count."""

    depth: float = 0.5
    cutoff: float = 20.0
    shape: str = "rectangle"
    n_nodes: int = 200

    def __post_init__(self):
        if not self.depth > 0:
            raise ContourError(f"contour depth must be positive, got {self.depth}")
        if not self.cutoff > 0:
            raise ContourError(f"contour cutoff must be positive, got {self.cutoff}")
        if self.shape not in _SHAPES:
            raise ContourError(f"unknown contour shape {self.shape!r}; choose from {_SHAPES}")
        if self.n_nodes < 16:
            raise ContourError(f"n_nodes must be at least 16, got {self.n_nodes}")


class ContourGrid:
    """Quadrature nodes/weights along a contour (or its upper-half conjugate).

    ``nodes`` are the complex sample points z_j, ``weights`` the path measure
    dz weights w_j, and ``tangents`` unit tangents used when a derivative
    along the curve is needed.  Grids are immutable and safe to share.
    """

    def __init__(self, spec: ContourSpec, nodes, weights, tangents, conjugate: bool = False):
        self.spec = spec
        self.nodes = np.asarray(nodes, dtype=complex)
        self.weights = np.asarray(weights, dtype=complex)
        self.tangents = np.asarray(tangents, dtype=complex)
        self.conjugate = bool(conjugate)
        for a in (self.nodes, self.weights, self.tangents):
            a.setflags(write=False)

    @property
    def cutoff(self) -> float:
        return self.spec.cutoff

    @property
    def n(self) -> int:
        return len(self.nodes)

    def conjugated(self) -> "ContourGrid":
        """The mirror grid in the opposite half plane, same orientation 0 -> cutoff."""
        return ContourGrid(self.spec, np.conj(self.nodes), np.conj(self.weights),
                           np.conj(self.tangents), conjugate=not self.conjugate)

    def node_index(self, u: complex, tol: float = 1e-12) -> int | None:
        """Index of the grid node equal to u, or None."""
        i = int(self.node_indices(u, tol)[0])
        return i if i >= 0 else None

    def node_indices(self, u, tol: float = 1e-12) -> np.ndarray:
        """Index of the grid node equal to each point of u, -1 where none is."""
        u = np.atleast_1d(np.asarray(u, dtype=complex))
        idx = np.argmin(np.abs(u[:, None] - self.nodes), axis=1)
        hit = np.abs(self.nodes[idx] - u) <= tol * max(1.0, self.cutoff)
        return np.where(hit, idx, -1)


@lru_cache(maxsize=128)
def _gauss(n: int):
    """n-point Gauss-Legendre rule on [0, 1]; one read-only pair per n, shared
    by every grid that uses it."""
    x, w = roots_legendre(n)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _split_counts(n: int) -> tuple[int, int, int]:
    n_end = max(6, int(round(0.12 * n)))
    n_mid = n - 2 * n_end
    if n_mid < 4:
        n_end = (n - 4) // 2
        n_mid = n - 2 * n_end
    return n_end, n_mid, n_end


def build_contour(spec: ContourSpec) -> ContourGrid:
    """Composite Gauss-Legendre grid on the path 0 -> lower half plane -> cutoff."""
    d, X, n = spec.depth, spec.cutoff, spec.n_nodes
    if spec.shape == "rectangle":
        nA, nB, nC = _split_counts(n)
        nodes, weights, tangents = [], [], []
        # descending segment 0 -> -i d, quartic grading at the origin
        s, w = _gauss(nA)
        z = -1j * d * s**4
        dz = -4j * d * s**3
        nodes.append(z); weights.append(w * dz); tangents.append(np.full(nA, -1j))
        # bottom segment -i d -> X - i d
        t, w = _gauss(nB)
        nodes.append(-1j * d + X * t); weights.append(w * X + 0j)
        tangents.append(np.full(nB, 1.0 + 0j))
        # ascending segment X - i d -> X
        r, w = _gauss(nC)
        nodes.append(X - 1j * d * (1.0 - r)); weights.append(w * (1j * d))
        tangents.append(np.full(nC, 1j))
        return ContourGrid(spec, np.concatenate(nodes), np.concatenate(weights),
                           np.concatenate(tangents))
    # semi-ellipse: z(theta) = X/2 (1 - cos theta) - i d sin theta, theta = pi s^4
    s, w = _gauss(n)
    theta = np.pi * s**4
    dtheta = 4 * np.pi * s**3
    z = 0.5 * X * (1.0 - np.cos(theta)) - 1j * d * np.sin(theta)
    dz = (0.5 * X * np.sin(theta) - 1j * d * np.cos(theta)) * dtheta
    tang = dz / np.abs(dz)
    return ContourGrid(spec, z, w * dz, tang)


def real_axis_grid(cutoff: float, n_nodes: int = 400) -> ContourGrid:
    """Graded Gauss-Legendre grid on [0, cutoff] with the same quartic map at 0.

    Used for undeformed reference integrals and principal values.  Returned as
    a (degenerate) ContourGrid so the same integration helpers apply.
    """
    spec = ContourSpec(depth=min(1.0, cutoff / 4), cutoff=cutoff, n_nodes=n_nodes)
    h = min(1.0, cutoff / 10.0)
    nA = max(8, int(round(0.2 * n_nodes)))
    nB = n_nodes - nA
    s, w = _gauss(nA)
    x1 = h * s**4
    w1 = w * 4 * h * s**3
    t, w2 = _gauss(nB)
    x2 = h + (cutoff - h) * t
    w2 = w2 * (cutoff - h)
    nodes = np.concatenate([x1, x2]).astype(complex)
    weights = np.concatenate([w1, w2]).astype(complex)
    return ContourGrid(spec, nodes, weights, np.ones_like(nodes))


def integrate_contour(grid: ContourGrid, f: Callable) -> complex:
    """Quadrature of f along the grid's path: sum_j w_j f(z_j).

    For f analytic between the path and the real axis this approximates the
    undeformed integral over [0, cutoff].
    """
    vals = np.asarray(f(grid.nodes), dtype=complex)
    if not np.all(np.isfinite(vals)):
        bad = grid.nodes[~np.isfinite(vals)][:3]
        raise EvaluationError(f"integrand not finite at contour nodes, e.g. z={bad}")
    return complex(np.sum(grid.weights * vals))


def pole_kernel_integral(grid: ContourGrid, h: Callable, u: complex, side: int) -> complex:
    """\\int h(z) / (u + side*i0 - z) dz along the curve, u on the curve.

    ``side=+1`` displaces u toward the region between the curve and the real
    axis (the outgoing prescription), ``side=-1`` the other way.  Realized as
    the curve principal value minus side * i*pi * h(u), by ``SampledPV`` at
    the one point u.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    return complex(SampledPV(grid, u)(h, side)[0])


class SampledPV:
    """Principal values PV \\int h_i(z)/(u_i - z) dz at many curve points at once.

    The points u_i default to every node.  The singularity is subtracted
    globally, PV = \\int [h_i(z) - h_i(u_i)]/(u_i - z) dz + h_i(u_i) PV
    \\int dz/(u_i - z), the second factor in closed form.  Where u_i is a
    node, the removable 0/0 sample is -h_i'(u_i) from a five-point stencil
    along the tangent, of step STENCIL_DELTA * min(1, |u_i|) so that it never
    reaches the branch point at the origin.  Rows are summed PV_BLOCK at a
    time, so no (M, N) operator is held.  A block of an integrand shared by
    all points is one reciprocal C_ij = 1/(u_i - z_j) and one product
    C @ [w h F_p | w], whose last column is the row sum the subtraction
    needs.  ``side`` may differ per target, so several displaced-pole
    integrals of one set of points share a sweep.
    """

    def __init__(self, grid: ContourGrid, u=None):
        self.grid = grid
        self.u = grid.nodes if u is None else np.atleast_1d(np.asarray(u, dtype=complex))
        if np.any((self.u == 0) | (self.u == grid.cutoff)):
            raise EvaluationError("principal value undefined at a contour endpoint")
        self.node = np.arange(grid.n) if u is None else grid.node_indices(self.u)
        on = self.node >= 0
        # weight of the node at u_i (0 off the nodes, where the stencil is unused)
        self.node_weight = np.where(on, grid.weights[np.where(on, self.node, 0)], 0.0)
        t = grid.tangents[np.where(on, self.node, 0)]
        self._tangent = t / np.abs(t)
        # the step stays below |u_i|, clear of the branch point at the origin
        self._delta = STENCIL_DELTA * np.minimum(1.0, np.abs(self.u))
        d = self._delta * self._tangent
        # u_i and its stencil, evaluated together
        self._points = np.stack([self.u, self.u - 2 * d, self.u - d, self.u + d,
                                 self.u + 2 * d], axis=-1)
        # PV of the integral of dz/(u - z) from 0 to X; principal logs are
        # safe because u and X - u stay in the closed right half plane here
        self.log_term = np.log(self.u) - np.log(grid.cutoff - self.u)

    def _cauchy(self, rows: slice) -> np.ndarray:
        """C_ij = 1/(u_i - z_j) for a block of points, 0 where u_i is z_j
        (that sample is -h_i'(u_i), added from the stencil)."""
        diff = self.u[rows, None] - self.grid.nodes
        r = np.nonzero(self.node[rows] >= 0)[0]
        diff[r, self.node[rows][r]] = np.inf
        return np.reciprocal(diff, out=diff)

    def __call__(self, h: Callable, side=0, F: Callable | None = None) -> np.ndarray:
        """PV at every point, minus side * i*pi * h_i(u_i) for side = +1/-1
        (the displaced-pole integral \\int h_i(z)/(u_i + side*i0 - z) dz).

        ``h(z)`` takes curve points (1, K), shared by every point, or (M, K),
        row i belonging to u_i, and returns h_i(z) with the shape (1 or M, K)
        of its broadcast.  With ``F`` the integrand is h_i(z) F_p(z) for
        targets p, ``F(z)`` of shape (1 or M, P, K), and the result is (M, P)
        instead of (M,); ``side`` is then a scalar or one value per target,
        shape (P,).  The node sum is a matrix product: no (M, P, N) array is
        formed unless F itself is per point.
        """
        w = self.grid.weights
        nodes = self.grid.nodes[None, :]
        wh = w * np.asarray(h(nodes), dtype=complex)                   # (1 or M, N)
        hp = np.asarray(h(self._points), dtype=complex)[:, None, :]   # (M, 1, 5)
        if F is None:
            Fn = np.ones((1, 1, self.grid.n))
        else:
            Fn = np.asarray(F(nodes), dtype=complex)                   # (1 or M, P, N)
            hp = hp * np.asarray(F(self._points), dtype=complex)       # (M, P, 5)
        shared = len(wh) == 1 and len(Fn) == 1
        if shared:
            G = np.concatenate([(wh * Fn[0]).T, w[:, None]], axis=1)   # (N, P + 1)
        hu = hp[..., 0]                                                # (M, P)
        out = np.empty(hu.shape, dtype=complex)
        for a in range(0, len(self.u), PV_BLOCK):
            rows = slice(a, a + PV_BLOCK)
            C = self._cauchy(rows)
            if shared:
                S = C @ G
                s, row_sum = S[:, :-1], S[:, -1]
            else:
                Ch = C * (wh[rows] if len(wh) > 1 else wh)
                s = Ch @ Fn[0].T if len(Fn) == 1 else np.einsum("ij,ipj->ip", Ch, Fn[rows])
                row_sum = C @ w
            out[rows] = s - hu[rows] * row_sum[:, None]
        dh = (hp[..., 1] - 8 * hp[..., 2] + 8 * hp[..., 3] - hp[..., 4]) \
            / (12 * self._delta[:, None] * self._tangent[:, None])
        out = out - self.node_weight[:, None] * dh + hu * self.log_term[:, None] \
            - side * 1j * np.pi * hu
        return out if F is not None else out[:, 0]


def plemelj_integral(f: Callable, x0: float, side: str,
                     grid: ContourGrid | None = None, cutoff: float = 20.0,
                     n_nodes: int = 400) -> complex:
    """Boundary value \\int_0^X f(w) / (x0 - w +- i0) dw.

    side "+i0" gives -i*pi*f(x0) - PV \\int f/(w - x0); side "-i0" is the
    conjugate prescription +i*pi*f(x0) - PV \\int f/(w - x0).  Computed by
    ``SampledPV`` at x0 on a real-axis grid.
    """
    signs = {"+i0": +1, "-i0": -1, +1: +1, -1: -1}
    if side not in signs:
        raise ValueError(f"side must be '+i0' or '-i0', got {side!r}")
    if grid is None:
        grid = real_axis_grid(cutoff, n_nodes)
    X = grid.cutoff
    if not 0 < x0 < X:
        raise EvaluationError(f"principal-value point {x0} outside (0, {X})")
    return complex(SampledPV(grid, x0)(f, signs[side])[0])
