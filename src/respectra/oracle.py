"""Brute-force ground truth: the midpoint-grid Hermitian discretization of the model.

The model's continuum [0, X], X its contour cutoff, is replaced by n midpoint
bins; couplings pick up sqrt(bin width) and the kernel a full bin width, which
makes the (n+1) x (n+1) matrix Hermitian and the finite model exactly
solvable.  All outputs carry (n, omega_max = X) so runs are reproducible.

``secular_system`` is the oracle every run takes.  It never forms the
matrix: without a kernel the matrix is an arrowhead, and with a kernel,
K = h(z) h(z') held as its factor h, the continuum block is diagonal plus
rank one.  Its eigenvalues are then the roots of a secular equation and
every eigenvector component is closed-form (Bunch, Nielsen & Sorensen,
Numer. Math. 31, 1978; Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995).
``discretize`` assembles the same matrix and takes a dense O(n^3)
eigendecomposition; with ``propagate`` and ``commutator_apply`` it is the
independent cross-check that the tests hold the secular solve and the
Liouville generator against, and no run calls it.

Each sweep of the secular solver, the eigenvector norms and each projection
sum over all poles for every root.  Summed directly that is O(n) per root
and O(n^2) per pass.  Where the poles lie near a lattice,
p_j = p_0 + (j + delta_j) h with every |delta_j| <= 0.01, every root within
half a gap of its nearest pole (all but at most the two outer ones) sums
only its 2 x 8 neighbouring poles directly and the rest by a 14-term series
in its offset from that pole's lattice point.  The series' coefficients are
discrete convolutions of the weights times delta^s, s up to 5 (none but
s = 0 where delta = 0), summed in the frequency domain: one inverse FFT per
term, O(n log n) per solve and O(n) per pass.  The midpoints are uniform,
so a kernel-free oracle costs O(n log n).  With a kernel the continuum
block's solve does too, and the level's solve over its eigenvalues, which
interlace the midpoints, wherever they stay within 0.01 steps of the
midpoint lattice (eps up to about 0.16 for the registry's separable
kernel); beyond that the level's solve takes the direct O(n^2) sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contour import phase_sum
from .errors import ConfigError, ConvergenceError, EvaluationError
from .model import ModelSpec, eval_V, eval_V2, eval_kernel_factor

_EPS = np.finfo(float).eps
_BLOCK_ENTRIES = 2**17    # doubles per Cauchy block (1 MB): 131 rows at n = 1000
_MAX_SWEEPS = 100     # bisection alone resolves a root in about 60
MIN_BINS = 100        # fewest midpoint bins of the oracle grid
_NEAR = 8             # poles on each side of a root's origin summed directly
_REACH = 0.55         # the far-field series serves roots within _REACH steps of their
                      # origin's lattice point: an inner root's half gap, offsets allowed
_OFFSET_BOUND = 0.01  # largest offset of a pole from its lattice point that the series
                      # serves; each term gains (_REACH + _OFFSET_BOUND) / (_NEAR + 1)
_TERMS = 14           # < 1/16, so 14 terms leave under 1e-17 of the far sum
_OFFSETS = np.r_[-_NEAR:0, 1:_NEAR + 1]


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


def _midpoint_grid(model: ModelSpec, n: int):
    """(omega_max = cutoff, bin width, midpoints, couplings V(w) sqrt(bin width))."""
    if n < MIN_BINS:
        raise ConfigError(f"oracle discretization needs n >= {MIN_BINS}")
    omega_max = model.contour.cutoff
    dw = omega_max / n
    w = (np.arange(n) + 0.5) * dw
    v = np.asarray(eval_V(model, w), dtype=complex) * np.sqrt(dw)
    return float(omega_max), dw, w, v


def discretize(model: ModelSpec, n: int) -> DiscretizedSystem:
    """Midpoint-grid Hermitian matrix for the model; dense eigendecomposition."""
    omega_max, dw, w, v = _midpoint_grid(model, n)
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


def _lattice(p):
    """The step h and offsets delta_j of poles p_j = p_0 + (j + delta_j) h on
    the lattice through the end poles, or None where ``p`` is too short for
    a far field or some |delta_j| exceeds _OFFSET_BOUND.  Poles uniform to
    the rounding of their entries get delta = 0 exactly."""
    m = len(p)
    if m <= 2 * _NEAR + 1:
        return None
    h = (p[-1] - p[0]) / (m - 1)
    dev = p - (p[0] + h * np.arange(m))
    if np.max(np.abs(dev)) <= 8.0 * _EPS * np.max(np.abs(p)):
        return h, np.zeros(m)
    delta = dev / h
    return (h, delta) if np.max(np.abs(delta)) <= _OFFSET_BOUND else None


def _fast_len(n: int) -> int:
    """The least 5-smooth length 2^a 3^b 5^c >= n, which real FFTs take fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _far_tables(W, delta, terms):
    """U[o, r] for r < terms and every column of W: the far sum of poles
    p_j = p_0 + (j + delta_j) h at a root of offset x from lattice point o,
    sum over |o - j| > _NEAR of W_j / (o - j + x - delta_j), is
    sum_r (-x)^r U[o, r].

    Expanded in delta, U[o, r] = sum_s C(r + s, r) T_s[o, r + s], with
    T_s[o, q] = sum over |o - j| > _NEAR of W_j delta_j^s / (o - j)^(q + 1):
    discrete convolutions, by real FFTs of length >= 2m (so that no offset
    wraps round), whose spectra are summed over s before one inverse
    transform per r.  The powers stop at the least S with
    (max|delta| / (_NEAR + 1))^(S + 1) below 1e-17; where delta = 0, S = 0
    and U = T_0."""
    ratio, S = np.max(np.abs(delta)) / (_NEAR + 1), 0
    while ratio ** (S + 1) >= 1e-17:
        S += 1
    m, cols = W.shape
    size = _fast_len(2 * m)
    k = np.arange(size, dtype=float)
    k = np.where(k < size - k, k, k - size)      # the offset o - j of each slot
    kern = np.zeros((terms, size))
    np.divide(1.0, k, out=kern[0], where=np.abs(k) > _NEAR)
    for r in range(1, terms):
        np.multiply(kern[r - 1], kern[0], out=kern[r])
    K = np.fft.rfft(kern, axis=1)[:, :, None]
    powers = np.concatenate([W] + [W * delta[:, None] ** s for s in range(1, S + 1)], axis=1)
    Wd = np.fft.rfft(powers, n=size, axis=0).reshape(-1, S + 1, cols)
    spec = K * Wd[:, 0]
    for s in range(1, S + 1):
        binom = np.array([math.comb(r + s, s) for r in range(terms - s)], dtype=float)
        spec[:terms - s] += binom[:, None, None] * K[s:] * Wd[:, s]
    T = np.fft.irfft(spec, n=size, axis=1)[:, :m]
    return np.ascontiguousarray(T.transpose(1, 0, 2))      # (m, terms, columns)


class _PoleSums:
    """The sums S_k = sum over j != o of W_j / (lam - p_j)^k, k = 1 and 2, of
    the weight columns W over ascending poles p, at roots lam = p_o + tau.

    Where the poles lie near a lattice, p_j = p_0 + (j + delta_j) h with
    every |delta_j| <= _OFFSET_BOUND (``_lattice``), a root at offset
    x = tau / h + delta_o from it with |x| <= _REACH splits its sum in two.
    The 2 _NEAR poles around o are summed directly, with the differences
    (p_o - p_j) + tau; the far ones are the series S_1 = sum_r (-x)^r U[o, r] / h,
    whose tables are built once, by ``_far_tables``.  Uniform poles, as
    the midpoints are, have delta = 0 and U the plain far tables; the
    eigenvalues of a weakly coupled kernel block interlace the midpoints
    close to their lattice.  Every other root, and every root where the
    poles stray further, takes the direct sum over all poles."""

    def __init__(self, p, W):
        self.p, self.W = p, W
        lattice = _lattice(p)
        self.step, self.offset = (None, None) if lattice is None else lattice
        if lattice is not None:
            self.tables = _far_tables(W, self.offset, _TERMS + 1)
            # p_o - p_j and W_j of the near poles of every o; an infinite gap
            # stands for a neighbour beyond either end
            J = np.arange(len(p))[:, None] + _OFFSETS
            inside = (J >= 0) & (J < len(p))
            J = np.clip(J, 0, len(p) - 1)
            self.near_gaps = np.where(inside, p[:, None] - p[J], np.inf)
            self.near_W = W[J]

    def __call__(self, origin, tau, squares=False):
        """S_1 and, with ``squares``, S_2 (else None), each (roots, columns)."""
        p, W, h = self.p, self.W, self.step
        S1 = np.empty((len(tau), W.shape[1]))
        S2 = np.empty_like(S1) if squares else None
        series = (np.abs(tau + h * self.offset[origin]) <= _REACH * h if h is not None
                  else np.zeros(len(tau), bool))
        rows = np.flatnonzero(series)
        if len(rows):
            o, t = origin[rows], tau[rows]
            inv = 1.0 / (self.near_gaps[o] + t[:, None])
            x = -(t / h + self.offset[o])[:, None]
            To, Wn = self.tables[o], self.near_W[o]
            far = To[:, _TERMS - 1]
            for r in range(_TERMS - 2, -1, -1):
                far = far * x + To[:, r]
            S1[rows] = np.einsum("rk,rkc->rc", inv, Wn) + far / h
            if squares:
                # the derivative of the series: sum_r (r + 1) (-x)^r U[o, r + 1] / h^2
                far = _TERMS * To[:, _TERMS]
                for r in range(_TERMS - 1, 0, -1):
                    far = far * x + r * To[:, r]
                S2[rows] = np.einsum("rk,rkc->rc", inv * inv, Wn) + far / (h * h)
        rest = np.flatnonzero(~series)
        for sl, d in _pole_gaps(p, origin[rest], tau[rest]):
            inv = np.divide(1.0, d, out=d)
            inv[np.arange(len(inv)), origin[rest[sl]]] = 0.0
            S1[rest[sl]] = inv @ W
            if squares:
                inv *= inv
                S2[rest[sl]] = inv @ W
        return S1, S2


def _reduced(a, b, sums, origin, tau):
    """F = f + c_o / tau, the secular function without its origin pole, and
    the sum of c_j / (lam - p_j)^2 over the other poles (F' - b)."""
    S1, S2 = sums(origin, tau, squares=True)
    return a + b * (sums.p[origin] + tau) - S1[:, 0], S2[:, 0]


def _outer_bound(a0, b, total):
    """Smallest s > 0 with a0 + b s - total / s >= 0."""
    root = np.sqrt(a0 * a0 + 4.0 * b * total)
    return 2.0 * total / (a0 + root) if a0 > 0 else (root - a0) / (2.0 * b)


def _secular_roots(a: float, b: float, sums: _PoleSums):
    """Roots of f(lam) = a + b lam - sum_j c_j / (lam - p_j), for the poles
    p = ``sums.p`` and the single weight column c of ``sums.W``.

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
    p, c = sums.p, sums.W[:, 0]
    m = len(p)
    # inner gaps: the sign of f at the midpoint picks the half that holds the root
    half = 0.5 * (p[1:] - p[:-1])
    left = np.arange(m - 1)
    F, _ = _reduced(a, b, sums, left, half)
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
        F, s2 = _reduced(a, b, sums, o, t)
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
            sums = _PoleSums(pk, ck[:, None])
            origin, tau = _secular_roots(a, b, sums)
            roots = pk[origin] + tau
        elif b > 0:     # nothing couples: the level alone
            origin, tau, roots = np.zeros(1, int), np.ones(1), np.array([-a / b])
        else:
            origin, tau, roots = np.zeros(0, int), np.zeros(0), np.zeros(0)
        sq = b * tau * tau
        if len(pk):     # the origin pole gives c_o, the others tau^2 S_2
            _, S2 = sums(origin, tau, squares=True)
            sq += ck[origin] + tau * tau * S2[:, 0]
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
        if len(self.p):     # tau / (lam - p_j) is 1 at the origin pole
            S1, _ = _PoleSums(self.p, Y)(self.origin, self.tau)
            out[:] = (Y[self.origin] + self.tau[:, None] * S1).view(complex)
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


def secular_system(model: ModelSpec, n: int) -> SecularSystem:
    """The structured solution of the matrix ``discretize`` builds.  O(n log n)
    without a kernel, and with one whose block's eigenvalues stay within
    _OFFSET_BOUND steps of the midpoint lattice; else the level's solve is
    O(n^2).  An ``EvaluationError`` refuses a kernel factor that is not
    real on the axis (K would not be Hermitian) and a kernel block with
    coincident eigenvalues, which no secular equation separates."""
    omega_max, dw, w, v = _midpoint_grid(model, n)
    kernel = None
    poles, coupling = w, v
    if model.has_kernel():
        g = np.asarray(eval_kernel_factor(model, w), dtype=complex) * np.sqrt(dw)
        if np.any(g.imag != 0.0):
            raise EvaluationError(f"kernel {model.kernel.family_id!r} has a factor that is not "
                                  "real on the axis: K is not Hermitian")
        kernel = _SecularBasis.solve(1.0, 0.0, w, g.real)
        if np.any(np.diff(kernel.values) <= 0.0):
            raise EvaluationError(f"kernel {model.kernel.family_id!r} gives coincident "
                                  "eigenvalues of the continuum block: no secular form")
        poles, coupling = kernel.values, kernel.project(v[:, None])[:, 0]
    arrow = _SecularBasis.solve(-model.omega_level, 1.0, poles, coupling)
    return SecularSystem(n=n, omega_max=omega_max, grid=w, d_omega=dw,
                         eigenvalues=arrow.values, level_weights=arrow.level_weights(),
                         arrow=arrow, kernel=kernel)
