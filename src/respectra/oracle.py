"""Brute-force ground truth: the midpoint-grid Hermitian discretization of the model.

The continuum is replaced by n midpoint bins on [0, omega_max]; couplings pick
up sqrt(bin width) and the kernel a full bin width, which makes the (n+1) x
(n+1) matrix Hermitian and the finite model exactly solvable.  All outputs
carry (n, omega_max) so runs are reproducible.

Two solvers share that matrix.  ``discretize`` assembles it and takes a dense
O(n^3) eigendecomposition; it serves every kernel and is the cross-check.
``secular_system`` never forms it: without a kernel the matrix is an
arrowhead, and with a kernel K = h(z) h(z') declared through its ``factor``
the continuum block is diagonal plus rank one.  Its eigenvalues are then the
roots of a secular equation and every eigenvector component is closed-form,
which costs O(n^2) (Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978; Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995).  ``oracle_system`` picks the
structured solver wherever the model allows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contour import phase_sum
from .errors import ConfigError, ConvergenceError, EvaluationError
from .model import ModelSpec, eval_V, eval_V2

_EPS = np.finfo(float).eps
_BLOCK_ENTRIES = 2**17    # doubles per Cauchy block (1 MB): 131 rows at n = 1000
_MAX_SWEEPS = 100     # bisection alone resolves a root in about 60
MIN_BINS = 100        # fewest midpoint bins of the oracle grid


@dataclass(frozen=True)
class DiscretizedSystem:
    n: int
    omega_max: float
    grid: np.ndarray = field(repr=False)
    d_omega: float = 0.0
    hamiltonian: np.ndarray = field(repr=False, default=None)
    eigenvalues: np.ndarray = field(repr=False, default=None)
    transform: np.ndarray = field(repr=False, default=None)

    @property
    def dimension(self) -> int:
        return self.n + 1

    def modes(self, left_vec: np.ndarray, right_vec: np.ndarray) -> np.ndarray:
        """(left . u_k)(u_k^H . right) for every eigenvector u_k."""
        return (left_vec @ self.transform) * (self.transform.conj().T @ right_vec)


def _midpoint_grid(model: ModelSpec, n: int, omega_max: float | None):
    """(omega_max, bin width, midpoints, couplings V(w) sqrt(bin width))."""
    if n < MIN_BINS:
        raise ConfigError(f"oracle discretization needs n >= {MIN_BINS}")
    if omega_max is None:
        omega_max = model.contour.cutoff
    dw = omega_max / n
    w = (np.arange(n) + 0.5) * dw
    v = np.asarray(eval_V(model, w), dtype=complex) * np.sqrt(dw)
    return float(omega_max), dw, w, v


def recurrence_time(n: int, omega_max: float) -> float:
    """2 pi n / omega_max: every midpoint phase exp(-i w_j t) returns to -1 there,
    so the discretized continuum revives and stops standing for the real one."""
    return 2.0 * np.pi * n / omega_max


def discretize(model: ModelSpec, n: int, omega_max: float | None = None) -> DiscretizedSystem:
    """Midpoint-grid Hermitian matrix for the model; dense eigendecomposition."""
    omega_max, dw, w, v = _midpoint_grid(model, n, omega_max)
    H = np.zeros((n + 1, n + 1), dtype=complex)
    H[0, 0] = model.omega_level
    np.fill_diagonal(H[1:, 1:], w)
    H[1:, 0] = v
    H[0, 1:] = np.conj(v)
    if model.has_kernel():
        k = np.asarray(eval_V2(model, w[:, None], w[None, :]), dtype=complex) * dw
        H[1:, 1:] += k
    herm = np.max(np.abs(H - H.conj().T))
    if herm > 1e-13 * max(1.0, np.max(np.abs(H))):
        raise EvaluationError(f"assembled matrix not Hermitian (defect {herm:.2e}); "
                              "check the kernel symmetry")
    if np.max(np.abs(H.imag)) == 0.0:
        evals, U = np.linalg.eigh(H.real)
        U = U.astype(complex)
    else:
        evals, U = np.linalg.eigh(H)
    return DiscretizedSystem(n=n, omega_max=omega_max, grid=w, d_omega=dw,
                             hamiltonian=H, eigenvalues=evals, transform=U)


def propagate(sys: DiscretizedSystem, vec: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) vec through the eigendecomposition."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (sys.dimension,):
        raise ConfigError(f"vector has shape {vec.shape}, expected ({sys.dimension},)")
    c = sys.transform.conj().T @ vec
    return sys.transform @ (np.exp(-1j * sys.eigenvalues * t) * c)


def commutator_apply(sys: DiscretizedSystem, O: np.ndarray) -> np.ndarray:
    """[H, O] by two dense multiplies."""
    O = np.asarray(O, dtype=complex)
    if O.shape != (sys.dimension, sys.dimension):
        raise ConfigError(f"operator has shape {O.shape}, expected square of {sys.dimension}")
    H = sys.hamiltonian
    return H @ O - O @ H


def amplitude_curve(sys: DiscretizedSystem | SecularSystem, left_vec: np.ndarray,
                    right_vec: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Bilinear amplitudes left . exp(-iHt) . right for every t at once: the
    mode sum over the eigenvalues, by ``contour.phase_sum``."""
    return phase_sum(ts, sys.eigenvalues, sys.modes(left_vec, right_vec))


# --------------------------------------------------------------------------
# the structured solver
# --------------------------------------------------------------------------

def _pole_gaps(p, origin, tau):
    """Row blocks of lam_k - p_j for the roots lam_k = p[origin_k] + tau_k.

    Each difference is formed as (p_o - p_j) + tau_k, so the one to the
    root's own pole is tau_k exactly, however close the root sits to it.
    The blocks share one buffer, which the caller may overwrite."""
    rows = max(16, _BLOCK_ENTRIES // max(len(p), 1))
    buf = np.empty((min(rows, len(tau)), len(p)))
    for s in range(0, len(tau), rows):
        sl = slice(s, s + rows)
        d = buf[:len(tau[sl])]
        np.subtract.outer(p[origin[sl]], p, out=d)
        d += tau[sl, None]
        yield sl, d


def _reduced(a, b, p, c, origin, tau):
    """F = f + c_o / tau, the secular function without its origin pole, and
    the sum of c_j / (lam - p_j)^2 over the other poles (F' - b)."""
    F = np.empty(len(tau))
    s2 = np.empty(len(tau))
    for sl, d in _pole_gaps(p, origin, tau):
        inv = np.divide(1.0, d, out=d)
        inv[np.arange(len(inv)), origin[sl]] = 0.0
        F[sl] = a + b * (p[origin[sl]] + tau[sl]) - inv @ c
        inv *= inv
        s2[sl] = inv @ c
    return F, s2


def _outer_bound(a0, b, total):
    """Smallest s > 0 with a0 + b s - total / s >= 0."""
    root = np.sqrt(a0 * a0 + 4.0 * b * total)
    return 2.0 * total / (a0 + root) if a0 > 0 else (root - a0) / (2.0 * b)


def secular_roots(a: float, b: float, p: np.ndarray, c: np.ndarray):
    """Roots of f(lam) = a + b lam - sum_j c_j / (lam - p_j).

    ``p`` is strictly ascending, ``c`` > 0 and ``b`` >= 0.  f increases
    between poles, so there is one root in every gap (p_j, p_j+1), one above
    the last pole when b > 0 or a > 0 and one below the first when b > 0 or
    a < 0; they are returned in ascending order.  Root k is returned as
    (origin_k, tau_k) with lam_k = p[origin_k] + tau_k and p[origin_k] the
    nearer pole of its gap, which keeps tau accurate to working precision
    relative to itself however close the root sits to that pole.

    Each gap starts from the two-pole guess: the gap's own poles exact, the
    others frozen at its midpoint, which is a quadratic.  Newton steps on
    tau f (where the origin pole cancels) follow, kept inside a sign
    bracket by bisection.
    """
    m = len(p)
    # inner gaps: the sign of f at the midpoint picks the half that holds the root
    half = 0.5 * (p[1:] - p[:-1])
    left = np.arange(m - 1)
    F, _ = _reduced(a, b, p, c, left, half)
    upper_half = F - c[left] / half < 0
    two_pole = F - c[left + 1] / half
    origin = left + upper_half
    delta = np.where(upper_half, -2.0 * half, 2.0 * half)     # the other pole of the gap
    lo = np.where(upper_half, -half, 0.0)
    hi = np.where(upper_half, 0.0, half)
    c_o = c[origin]
    c_x = c[origin + np.where(upper_half, -1, 1)]
    B = two_pole * delta + c_o + c_x
    disc = (two_pole * delta - c_o + c_x) ** 2 + 4.0 * c_o * c_x
    q = 0.5 * (B + np.copysign(np.sqrt(disc), B))
    with np.errstate(divide="ignore", invalid="ignore"):
        guesses = (c_o * delta / q, q / two_pole)
    tau = 0.5 * (lo + hi)
    for guess in guesses:
        tau = np.where((guess >= lo) & (guess <= hi) & (guess != 0), guess, tau)

    # outer roots, bracketed by bounding every other pole by the nearest one
    total = float(np.sum(c))
    if b > 0 or a < 0:
        s = _outer_bound(-(a + b * p[0]), b, total)
        origin, tau = np.r_[0, origin], np.r_[-s, tau]
        lo, hi = np.r_[-s, lo], np.r_[0.0, hi]
    if b > 0 or a > 0:
        s = _outer_bound(a + b * p[-1], b, total)
        origin, tau = np.r_[origin, m - 1], np.r_[tau, s]
        lo, hi = np.r_[lo, 0.0], np.r_[hi, s]

    todo = np.arange(len(tau))
    for _ in range(_MAX_SWEEPS):
        o, t = origin[todo], tau[todo]
        F, s2 = _reduced(a, b, p, c, o, t)
        g = t * F - c[o]
        sign_f = np.sign(g) * np.sign(t)
        lo_t = np.where(sign_f < 0, t, lo[todo])
        hi_t = np.where(sign_f > 0, t, hi[todo])
        step = -g / (F + t * (b + s2))
        new = t + step
        # g is resolved when it is within the rounding of its terms, bounding
        # sum_j c_j / |lam - p_j| by Cauchy-Schwarz; a converged step is
        # taken even where rounding puts it on the bracket
        noise = np.abs(a) + b * np.abs(p[o] + t) + np.sqrt(total * s2)
        done = ((np.abs(step) <= 2.0 * _EPS * np.abs(t))
                | (np.abs(g) <= 8.0 * _EPS * (np.abs(t) * noise + c[o])))
        inside = (new > lo_t) & (new < hi_t)
        new = np.where(inside | done, new, 0.5 * (lo_t + hi_t))
        done |= hi_t - lo_t <= 4.0 * _EPS * np.abs(p[o] + t)
        tau[todo], lo[todo], hi[todo] = new, lo_t, hi_t
        todo = todo[~done]
        if not len(todo):
            return origin, tau
    raise ConvergenceError(f"secular equation: {len(todo)} of {len(tau)} roots unresolved "
                           f"after {_MAX_SWEEPS} sweeps")


@dataclass(frozen=True)
class _SecularBasis:
    """Eigenbasis of the arrowhead [[-a, z^H], [z, diag(p)]] (b = 1) or of
    diag(p) + z z^H (a = 1, b = 0), from the roots of
    a + b lam - sum_j |z_j|^2 / (lam - p_j).

    The eigenvector of root k is (b tau_k, z_j tau_k / (lam_k - p_j)) / norm_k.
    A coupling below the rounding of a dense eigh, |z_j| <= eps max|p|, is
    deflated: that p_j is an eigenvalue of its own unit vector.  Eigenvalues
    and everything indexed by them ascend."""

    b: float
    p: np.ndarray          # the poles kept in the secular equation
    z: np.ndarray          # and their couplings
    keep: np.ndarray
    origin: np.ndarray
    tau: np.ndarray
    norm: np.ndarray
    order: np.ndarray      # (secular roots, deflated poles) -> ascending
    values: np.ndarray

    @classmethod
    def solve(cls, a: float, b: float, p: np.ndarray, z: np.ndarray) -> _SecularBasis:
        c = (z * np.conj(z)).real
        keep = c > (_EPS * np.max(np.abs(p))) ** 2
        pk, ck = p[keep], c[keep]
        if len(pk):
            origin, tau = secular_roots(a, b, pk, ck)
            roots = pk[origin] + tau
        elif b > 0:     # nothing couples: the level alone
            origin, tau, roots = np.zeros(1, int), np.ones(1), np.array([-a / b])
        else:
            origin, tau, roots = np.zeros(0, int), np.zeros(0), np.zeros(0)
        sq = b * tau * tau
        if len(pk):
            for sl, d in _pole_gaps(pk, origin, tau):
                r = np.divide(tau[sl, None], d, out=d)
                r *= r
                sq[sl] += r @ ck
        values = np.r_[roots, p[~keep]]
        order = np.argsort(values, kind="stable")
        return cls(b, pk, z[keep], keep, origin, tau, np.sqrt(sq), order, values[order])

    def level_weights(self) -> np.ndarray:
        """|level component|^2 of each eigenvector (b = 1)."""
        return np.r_[(self.tau / self.norm) ** 2,
                     np.zeros(np.count_nonzero(~self.keep))][self.order]

    def project(self, X: np.ndarray, x0=0.0) -> np.ndarray:
        """u_k^T x for every eigenvector u_k and every column x of X, whose
        level entries (b = 1) are x0."""
        # real blocks times the real view of Z X: one real product per block
        Y = np.ascontiguousarray(self.z[:, None] * X[self.keep], dtype=complex).view(float)
        out = np.zeros((len(self.tau), X.shape[1]), dtype=complex)
        if len(self.p):
            for sl, d in _pole_gaps(self.p, self.origin, self.tau):
                out[sl] = (np.divide(self.tau[sl, None], d, out=d) @ Y).view(complex)
        out += self.b * np.outer(self.tau, x0)
        return np.r_[out / self.norm[:, None], X[~self.keep]][self.order]


@dataclass(frozen=True)
class SecularSystem:
    """The matrix ``discretize`` would assemble, held by its secular roots.

    Eigenvalues ascend, as eigh returns them, and ``level_weights`` are the
    |U_0k|^2.  With a kernel the continuum block diag(w) + g g^T, g = eps
    h(w) sqrt(dw), is first diagonalized (Q) by its own secular equation;
    the level then couples to its eigenvalues through Q^T v, and a second
    secular solve gives the spectrum.  No (n+1)^2 array is formed."""

    n: int
    omega_max: float
    grid: np.ndarray = field(repr=False)
    d_omega: float
    eigenvalues: np.ndarray = field(repr=False)
    level_weights: np.ndarray = field(repr=False)
    arrow: _SecularBasis = field(repr=False)
    kernel: _SecularBasis | None = field(repr=False, default=None)

    @property
    def dimension(self) -> int:
        return self.n + 1

    def modes(self, left_vec: np.ndarray, right_vec: np.ndarray) -> np.ndarray:
        """(left . u_k)(u_k^H . right) for every eigenvector u_k."""
        X = np.stack([left_vec, np.conj(right_vec)], axis=1)
        cont = X[1:]
        if not cont.any():      # level-only vectors pair through the level weights
            return left_vec[0] * right_vec[0] * self.level_weights
        if self.kernel is not None:
            cont = self.kernel.project(cont)         # Q is real: Q^T commutes with conj
        bra, ket = self.arrow.project(cont, X[0]).T
        return bra * np.conj(ket)


def secular_system(model: ModelSpec, n: int,
                   omega_max: float | None = None) -> SecularSystem | None:
    """The structured O(n^2) solution of the matrix ``discretize`` builds, or
    None where the model has a kernel without a real ``factor``."""
    kern = model.kernel if model.has_kernel() else None
    if kern is not None and kern.factor is None:
        return None
    omega_max, dw, w, v = _midpoint_grid(model, n, omega_max)
    kernel = None
    poles, coupling = w, v
    if kern is not None:
        g = np.asarray(kern.factor(w), dtype=complex) * (model.coupling * np.sqrt(dw))
        if np.any(g.imag != 0.0):
            return None
        kernel = _SecularBasis.solve(1.0, 0.0, w, g.real)
        if np.any(np.diff(kernel.values) <= 0.0):     # coincident poles: no secular form
            return None
        poles, coupling = kernel.values, kernel.project(v[:, None])[:, 0]
    arrow = _SecularBasis.solve(-model.omega_level, 1.0, poles, coupling)
    return SecularSystem(n=n, omega_max=omega_max, grid=w, d_omega=dw,
                         eigenvalues=arrow.values, level_weights=arrow.level_weights(),
                         arrow=arrow, kernel=kernel)


def oracle_system(model: ModelSpec, n: int,
                  omega_max: float | None = None) -> SecularSystem | DiscretizedSystem:
    """The structured solution where the model allows it, else the dense one."""
    sys = secular_system(model, n, omega_max)
    return sys if sys is not None else discretize(model, n, omega_max)
