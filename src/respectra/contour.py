"""Discretized complex contours and the quadrature primitives built on them.

A contour runs from 0 on the real axis into the lower half plane and back to
the real axis at a finite cutoff X.  Every grid is a list of panels, each a
Gauss-Legendre rule mapped onto a piece of the path, made into nodes, weights
and tangents by one builder: the rectangle is three straight panels, the
semi-ellipse one arc, and the real axis two segments.  The panel touching the
origin uses a quartic parameter map so that quarter- and half-integer powers
of z (the branch behaviour of the built-in form factors) integrate with
spectral accuracy.

Delta distributions on the curve are never sampled: an atom at position u
pairs with a function f as f(u) with unit weight.

Gauss-Legendre rules are computed once per size, in O(n), and shared,
read-only, by every grid built from them: from 60 nodes on by Bogaert's
iteration-free asymptotic formulas, below that by Newton steps on the
three-term recurrence.  Nodes are within 5e-16 of the exact rule, and
weights within 4e-15 relative (2e-15 at the ends and the middle).
``_bracketed_root`` is the one real root solve, of the bound-state energies.

``SampledPV`` is the one principal-value quadrature.  It sums integrands
given as samples, at the nodes and at each curve point with its derivative
stencil, so that a system samples its rows once and a pairing its vector
once; called with functions it samples them itself and sums.
``pole_kernel_integral`` (a curve point) and ``plemelj_integral`` (a point
of a real-axis grid) are its one-point cases.
Its points are every node, a slice of the nodes addressed by index, or any
curve points.  Every integrand is one row shared by all points, so a block
of the Cauchy matrix costs one reciprocal and one matrix product, for any
number of targets, each with its own side of the pole.  Blocks hold at most
BLOCK_ENTRIES entries.  At every node the Cauchy matrix is antisymmetric bit
for bit, so that sweep takes square tiles and forms each tile off the
diagonal once, for two products.

``phase_sum`` is the one time sum, sum_j m_j exp(-i z_j t) on a grid of
times, shared by the spectral amplitude, the oracle's mode sum and the
Liouville branch sums; on a uniform grid it factors each time into an anchor
and an offset, so it takes about 2 sqrt(T) N exponentials instead of T N.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ContourError, ConvergenceError, EvaluationError

_SHAPES = ("rectangle", "semi_ellipse")
# fewest nodes of a contour
MIN_NODES = 16
# complex entries of a tile or a row block of the principal-value operator
# (256 kB: a tile stays in cache for its two uses)
BLOCK_ENTRIES = 2**14
# side of a square principal-value tile: 128 nodes by 128 nodes
PV_TILE = math.isqrt(BLOCK_ENTRIES)
# complex phases per block of a time table (1 MB)
PHASE_BLOCK_ENTRIES = 2**16
# step of the five-point derivative stencil along the curve, at |u| >= 1
STENCIL_DELTA = 1e-3
# a point is a node when within NODE_TOL * max(1, cutoff) of it
NODE_TOL = 1e-12


_scratch = threading.local()


def _block_buffer(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) complex block in one buffer per thread that every block
    reuses, so that no block above malloc's mmap threshold is mapped, faulted
    in and unmapped per call; the next block overwrites it."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < rows * cols:
        buf = _scratch.buf = np.empty(max(rows * cols, BLOCK_ENTRIES), dtype=complex)
    return buf[:rows * cols].reshape(rows, cols)


def _check_size(cutoff: float, n_nodes: int):
    """Refuse a cutoff that is not positive and finite (NaN included) or too few nodes."""
    if not 0 < cutoff < math.inf:
        raise ContourError(f"contour cutoff must be positive and finite, got {cutoff}")
    if n_nodes < MIN_NODES:
        raise ContourError(f"n_nodes must be at least {MIN_NODES}, got {n_nodes}")


@dataclass(frozen=True)
class ContourSpec:
    """Geometry of the deformed path: maximum depth below the axis, real-axis
    cutoff, shape tag and total node count."""

    depth: float = 0.5
    cutoff: float = 20.0
    shape: str = "rectangle"
    n_nodes: int = 200

    def __post_init__(self):
        if not 0 < self.depth < math.inf:
            raise ContourError(f"contour depth must be positive and finite, got {self.depth}")
        _check_size(self.cutoff, self.n_nodes)
        if self.shape not in _SHAPES:
            raise ContourError(f"unknown contour shape {self.shape!r}; choose from {_SHAPES}")


class ContourGrid:
    """Quadrature along a contour from 0 to ``cutoff`` X, made from a list of
    panels by ``_panel_grid``, or along its mirror in the upper half plane.

    ``nodes`` are the complex sample points z_j, ``weights`` the path measure
    dz weights w_j, and ``tangents`` unit tangents used when a derivative
    along the curve is needed.  Grids are immutable and safe to share.
    """

    def __init__(self, cutoff: float, nodes, weights, tangents):
        self.cutoff = cutoff
        self.nodes = np.asarray(nodes, dtype=complex)
        self.weights = np.asarray(weights, dtype=complex)
        self.tangents = np.asarray(tangents, dtype=complex)
        for a in (self.nodes, self.weights, self.tangents):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def conjugated(self) -> "ContourGrid":
        """The mirror grid in the opposite half plane, same orientation 0 -> cutoff."""
        return ContourGrid(self.cutoff, np.conj(self.nodes), np.conj(self.weights),
                           np.conj(self.tangents))

    def node_indices(self, u) -> np.ndarray:
        """Index of the grid node equal to each point of u (to NODE_TOL), -1
        where none is."""
        u = np.atleast_1d(np.asarray(u, dtype=complex))
        idx = np.argmin(np.abs(u[:, None] - self.nodes), axis=1)
        hit = np.abs(self.nodes[idx] - u) <= NODE_TOL * max(1.0, self.cutoff)
        return np.where(hit, idx, -1)


# j_{0,k}, the zeros of the Bessel function J_0, and J_1(j_{0,k})^2, k = 1..20
_BESSEL_TABLE = np.array([
    (2.40482555769577276862, 0.269514123941916926139),
    (5.52007811028631064960, 0.115780138582203695808),
    (8.65372791291101221695, 0.0736863511364082151406),
    (11.7915344390142816137, 0.0540375731981162820418),
    (14.9309177084877859478, 0.0426614290172430912655),
    (18.0710639679109225431, 0.0352421034909961013587),
    (21.2116366298792589591, 0.0300210701030546726751),
    (24.3524715307493027371, 0.0261473914953080885905),
    (27.4934791320402547959, 0.0231591218246913922653),
    (30.6346064684319751175, 0.0207838291222678576040),
    (33.7758202135735686842, 0.0188504506693176678161),
    (36.9170983536640439798, 0.0172461575696650082995),
    (40.0584257646282392948, 0.0158935181059235978027),
    (43.1997917131767303575, 0.0147376260964721895896),
    (46.3411883716618140187, 0.0137384651453871179183),
    (49.4826098973978171736, 0.0128661817376151328791),
    (52.6240518411149960293, 0.0120980515486267975471),
    (55.7655107550199793117, 0.0114164712244916085169),
    (58.9069839260809421328, 0.0108075927911802040116),
    (62.0484691902271698829, 0.0102603729262807628110)])
# McMahon's expansion j_{0,k} = b + sum_m c_m / b^(2m - 1), b = (k - 1/4) pi,
# in powers of 1/b^2, highest first
_MCMAHON = (5.09225462402226769498681286758e7, -8.49353580299148769921876983660e5,
            18690.4765282320653831636345064, -567.644412135183381139802038240,
            25.3364147973439050099206349206, -1.82443876720610119047619047619,
            0.246028645833333333333333333333, -0.0807291666666666666666666666667, 0.125)
# at a zero j of J_0, J_1(j) = 2 / (pi j M_0(j)) by the Wronskian, so
# J_1(j)^2 = 2 / (pi j S(j)), with the modulus M_0(x)^2 = 2 S(x) / (pi x),
# S = 1 + sum_m c_m / x^(2m) (Abramowitz and Stegun 9.2.28) and
# c_m / c_(m-1) = -(2m - 1)^3 / (8m); highest first
_MODULUS = tuple(np.cumprod([-(2 * m - 1) ** 3 / (8 * m) for m in range(1, 7)])[::-1])
# Bogaert's interpolants, in alpha^2, of the node terms F_1..F_3 and the weight
# terms W_1..W_3 of his expansions (SIAM J. Sci. Comput. 36, A1008, 2014);
# highest first
_NODE_TERMS = (
    (-1.29052996274280508473467968379e-12, 2.40724685864330121825976175184e-10,
     -3.13148654635992041468855740012e-08, 0.275573168962061235623801563453e-05,
     -0.148809523713909147898955880165e-03, 0.416666666665193394525296923981e-02,
     -0.416666666666662959639712457549e-01),
    (2.20639421781871003734786884322e-09, -7.53036771373769326811030753538e-08,
     0.161969259453836261731700382098e-05, -0.253300326008232025914059965302e-04,
     0.282116886057560434805998583817e-03, -0.209022248387852902722635654229e-02,
     0.815972221772932265640401128517e-02),
    (-2.97058225375526229899781956673e-08, 5.55845330223796209655886325712e-07,
     -0.567797841356833081642185432056e-05, 0.418498100329504574443885193835e-04,
     -0.251395293283965914823026348764e-03, 0.128654198542845137196151147483e-02,
     -0.416012165620204364833694266818e-02))
_WEIGHT_TERMS = (
    (-2.20902861044616638398573427475e-14, 2.30365726860377376873232578871e-12,
     -1.75257700735423807659851042318e-10, 1.03756066927916795821098009353e-08,
     -4.63968647553221331251529631098e-07, 0.149644593625028648361395938176e-04,
     -0.326278659594412170300449074873e-03, 0.436507936507598105249726413120e-02,
     -0.305555555555553028279487898503e-01, 0.833333333333333302184063103900e-01),
    (3.63117412152654783455929483029e-12, 7.67643545069893130779501844323e-11,
     -7.12912857233642220650643150625e-09, 2.11483880685947151466370130277e-07,
     -0.381817918680045468483009307090e-05, 0.465969530694968391417927388162e-04,
     -0.407297185611335764191683161117e-03, 0.268959435694729660779984493795e-02,
     -0.111111111111214923138249347172e-01),
    (2.01826791256703301806643264922e-09, -4.38647122520206649251063212545e-08,
     5.08898347288671653137451093208e-07, -0.397933316519135275712977531366e-05,
     0.200559326396458326778521795392e-04, -0.422888059282921161626339411388e-04,
     -0.105646050254076140548678457002e-03, -0.947969308958577323145923317955e-04,
     0.656966489926484797412985260842e-02))
# fewest nodes of a rule taken from the asymptotic formulas: from here on
# their weights are within 1.7e-15 relative, closer than the recurrence's
ASYMPTOTIC_NODES = 60


def _legendre_recurrence(n: int, theta):
    """P_n(cos theta) and dP_n/dtheta, by the three-term recurrence carried in
    d = 1 - cos theta = 2 sin^2(theta / 2) and the steps D_k = P_k - P_(k-1),
    (k + 1) D_(k+1) = k D_k - (2k + 1) d P_k, so that no 1 - x cancels near
    x = 1 and a root theta keeps its relative accuracy there."""
    d = 2.0 * np.sin(theta / 2) ** 2
    p, step = 1.0 - d, -d
    for k in range(1, n):
        step = (k * step - (2 * k + 1) * d * p) / (k + 1)
        p = p + step
    # (1 - x^2) P_n' = n (P_(n-1) - x P_n) = -n (D_n - d P_n)
    return p, n * (step - d * p) / np.sin(theta)


def _legendre(n: int):
    """theta_k in (0, pi/2] ascending and the weights on [-1, 1] of the nodes
    -cos theta_k (and their mirror images cos theta_k), k = 1..ceil(n/2).

    Bogaert's formulas give theta_k from alpha = j_{0,k} / (n + 1/2) and the
    weight as 2 / (n + 1/2) over the expansion of its inverse.  Below
    ASYMPTOTIC_NODES they only start Newton steps in theta on the recurrence,
    whose weights are 2 / (dP_n/dtheta)^2."""
    h = (n + 1) // 2
    b = np.pi * (np.arange(1, h + 1) - 0.25)
    j = b + np.polyval(_MCMAHON, 1.0 / b**2) / b
    j[:20] = _BESSEL_TABLE[:h, 0]
    v = 1.0 / (n + 0.5)
    alpha = v * j
    a2 = alpha * alpha
    u = v * v * j / np.sin(alpha)
    u2 = u * u
    f1, f2, f3 = (np.polyval(c, a2) for c in _NODE_TERMS)
    theta = v * (j + alpha * u * (f1 + u2 * (f2 + u2 * f3)))
    if n < ASYMPTOTIC_NODES:
        # the formulas start within 5e-6 of every root (n >= 2): four steps
        # reach the recurrence's rounding
        for _ in range(4):
            p, dp = _legendre_recurrence(n, theta)
            theta = theta - p / dp
        return theta, 2.0 / _legendre_recurrence(n, theta)[1] ** 2
    r = 1.0 / j**2
    j1sq = 2.0 / (np.pi * j * (1.0 + r * np.polyval(_MODULUS, r)))
    j1sq[:20] = _BESSEL_TABLE[:20, 1]
    w1, w2, w3 = (np.polyval(c, a2) for c in _WEIGHT_TERMS)
    inverse = j1sq * j / np.sin(alpha)
    return theta, 2.0 * v / (inverse + inverse * u2 * (w1 + u2 * (w2 + u2 * w3)))


@lru_cache(maxsize=128)
def _gauss(n: int):
    """n-point Gauss-Legendre rule on [0, 1]; one read-only pair per n, shared
    by every grid that uses it.  The nodes below 1/2 are sin^2(theta_k / 2), to
    a few ulp relative however close to 0; those above are exactly 1 minus
    them, and the weights are exactly mirror-symmetric."""
    theta, w = _legendre(n)
    h = n // 2
    s = np.sin(theta[:h] / 2) ** 2
    x = np.concatenate([s, [0.5] * (n % 2), 1.0 - s[::-1]])
    w = np.concatenate([w, w[:h][::-1]]) / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# most steps of a bracketed root solve (bisection alone halves 2^60 to 1e-15)
_ROOT_STEPS = 200


def _bracketed_root(f, fprime, lo: float, hi: float) -> float:
    """The root of f in [lo, hi], f(lo) < 0 < f(hi), to 1e-15 + 4 ulp:
    Newton steps from the midpoint, each point replacing the end of the
    bracket whose sign it shares, and a bisection wherever a step would
    leave the bracket."""
    x = 0.5 * (lo + hi)
    for _ in range(_ROOT_STEPS):
        fx = f(x)
        if fx == 0.0:
            return x
        lo, hi = (x, hi) if fx < 0.0 else (lo, x)
        new = x - fx / fprime(x)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= 1e-15 + 4 * np.finfo(float).eps * abs(new):
            return new
        x = new
    raise ConvergenceError(f"no root to 4 ulp in [{lo!r}, {hi!r}] after {_ROOT_STEPS} steps",
                           last_iterate=x)


def _split_counts(n: int) -> tuple[int, int, int]:
    """Nodes of the descending, bottom and ascending segments; n >= MIN_NODES
    leaves the bottom segment at least 4."""
    n_end = max(6, int(round(0.12 * n)))
    return n_end, n - 2 * n_end, n_end


def _panel_grid(cutoff: float, panels) -> ContourGrid:
    """The grid of the path through panels (n, z, dz, span, graded) in order:
    n Gauss nodes s, w on [0, 1] placed at t = span s (or span s^4 when
    graded), giving nodes z(t), weights w dz(t) dt and unit tangents."""
    N = sum(p[0] for p in panels)
    nodes, weights, tangents = np.empty((3, N), dtype=complex)
    a = 0
    for n, z, dz, span, graded in panels:
        s, w = _gauss(n)
        t, dt = (span * s**4, span * 4 * s**3) if graded else (span * s, span)
        # w (dz dt) in this order: the recorded artifacts hold its last bits
        dzdt = dz(t) * dt
        nodes[a:a + n] = z(t)
        weights[a:a + n] = w * dzdt
        tangents[a:a + n] = dzdt / abs(dzdt)
        a += n
    return ContourGrid(cutoff, nodes, weights, tangents)


def build_contour(spec: ContourSpec) -> ContourGrid:
    """Composite Gauss-Legendre grid on the path 0 -> lower half plane -> cutoff:
    the rectangle 0 -> -i d -> X - i d -> X as three straight panels, the
    first graded, or the semi-ellipse z(theta) = X/2 (1 - cos theta) - i d
    sin theta as one graded panel over theta in [0, pi]."""
    d, X = spec.depth, spec.cutoff
    if spec.shape == "rectangle":
        nA, nB, nC = _split_counts(spec.n_nodes)
        panels = ((nA, lambda t: -1j * t, lambda t: -1j, d, True),
                  (nB, lambda t: -1j * d + t, lambda t: 1.0, X, False),
                  (nC, lambda t: X - 1j * d * (1.0 - t), lambda t: 1j * d, 1.0, False))
    else:
        panels = ((spec.n_nodes, lambda t: 0.5 * X * (1.0 - np.cos(t)) - 1j * d * np.sin(t),
                   lambda t: 0.5 * X * np.sin(t) - 1j * d * np.cos(t), np.pi, True),)
    return _panel_grid(X, panels)


def real_axis_grid(cutoff: float, n_nodes: int = 400) -> ContourGrid:
    """Gauss-Legendre grid on [0, cutoff] in two panels, the first, [0, h]
    with h = min(1, cutoff/10), graded at the origin.

    Used for undeformed reference integrals and principal values.  Returned as
    a (degenerate) ContourGrid so the same integration helpers apply.
    """
    _check_size(cutoff, n_nodes)
    h = min(1.0, cutoff / 10.0)
    nA = max(8, int(round(0.2 * n_nodes)))
    return _panel_grid(cutoff, ((nA, lambda t: t, lambda t: 1.0, h, True),
                                (n_nodes - nA, lambda t: h + t, lambda t: 1.0, cutoff - h,
                                 False)))


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


def _stride(ts: np.ndarray, n: int) -> tuple[int, float]:
    """(R, dt) of ``phase_sum`` over N = n points: the step dt and R =
    ceil(sqrt T) when ts rises by dt to within two ulps of max|t| (the
    accuracy of ``np.linspace``), R capped so that an offset table holds at
    most PHASE_BLOCK_ENTRIES phases; (1, 0) for any other grid."""
    T = len(ts)
    if T < 2:
        return 1, 0.0
    dt = (ts[-1] - ts[0]) / (T - 1)
    drift = np.max(np.abs(ts - (ts[0] + np.arange(T) * dt)))
    if not (dt >= 0 and drift <= 2 * np.spacing(np.max(np.abs(ts)))):
        return 1, 0.0
    return min(math.isqrt(T - 1) + 1, max(1, PHASE_BLOCK_ENTRIES // max(n, 1))), float(dt)


def phase_sum(ts, z, m) -> np.ndarray:
    """sum_j m_j exp(-i z_j t) at every t of ts, shape (T,).

    On a uniform grid t_k = t_0 + k dt every time is an anchor t_{Rq} plus
    an offset r dt, 0 <= r < R = ceil(sqrt T), so the T x N table of
    exponentials factors into the anchor table A_qj = m_j exp(-i z_j
    t_{Rq}), (Q, N) with Q = ceil(T/R), and the offset table B_rj = exp(-i
    z_j r dt), (R, N), and A @ B.T read row by row is the sum at every time:
    (Q + R) N exponentials and one small product instead of T N
    exponentials.  Any other grid is the case R = 1: the anchors are the
    times and the one offset is 0.  Every anchor is a time of ts and every
    offset at most its span, so a factor that decays on ts decays in both
    tables.  Anchor rows are formed PHASE_BLOCK_ENTRIES phases at a time and
    R is capped so that the offset table fits in one block, so memory stays
    bounded for any T and N.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    z = np.asarray(z, dtype=complex)
    m = np.asarray(m, dtype=complex)
    R, dt = _stride(ts, len(z))
    anchors = ts[::R]
    B = np.exp(np.multiply.outer(dt * np.arange(R), -1j * z)).T         # (N, R)
    out = np.empty((len(anchors), R), dtype=complex)
    rows = max(1, PHASE_BLOCK_ENTRIES // max(len(z), 1))
    for s in range(0, len(anchors), rows):
        A = m * np.exp(np.multiply.outer(anchors[s:s + rows], -1j * z))  # (rows, N)
        np.matmul(A, B, out=out[s:s + rows])
    return out.ravel()[:len(ts)]


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
    """Principal values PV \\int h(z) F_p(z)/(u_i - z) dz of integrands shared
    by every point, at many curve points at once.

    The points u_i are every node (``u=None``), a slice of the nodes,
    addressed by index, or curve points, matched to the nodes by
    ``node_indices``.  The singularity is subtracted globally, PV = \\int
    [h(z) - h(u_i)]/(u_i - z) dz + h(u_i) PV \\int dz/(u_i - z), the second
    factor in closed form.  Where u_i is a node, the removable 0/0 sample is
    -h'(u_i) from a five-point stencil along the tangent, of step
    STENCIL_DELTA * min(1, |u_i|) so that it never reaches the branch point
    at the origin.  The node sums C @ [w h F_p | w], with C_ij = 1/(u_i -
    z_j) and the last column the row sum the subtraction needs, are formed
    BLOCK_ENTRIES entries at a time, so no (M, N) operator is held.  At
    every node C is antisymmetric bit for bit (IEEE subtraction and the
    complex reciprocal are odd), so the sweep takes square tiles of PV_TILE
    nodes by PV_TILE nodes and forms each tile off the diagonal once, for
    its row block as C and for its column block as -C^T: half the
    reciprocals, and the tile still in cache for its second product.  Other
    points, and a ``pointwise`` sum, take blocks of rows over every node, each
    formed for one use.  ``side`` may differ per target, so several
    displaced-pole integrals of one set of points share a sweep.

    ``sum`` is the one summation: it takes the integrands as samples, rows
    at the nodes and values at each point and its stencil, so that a caller
    holding them (a system's rows V, Vbar and g, a vector sampled once by
    ``sample``) evaluates nothing again.  ``__call__`` takes integrands as
    functions, samples them and sums.
    """

    def __init__(self, grid: ContourGrid, u=None):
        self.grid = grid
        if u is None:
            self.u, self.node = grid.nodes, np.arange(grid.n)
        elif isinstance(u, slice):
            self.u, self.node = grid.nodes[u], np.arange(grid.n)[u]
        else:
            self.u = np.atleast_1d(np.asarray(u, dtype=complex))
            self.node = grid.node_indices(self.u)
        if np.any((self.u == 0) | (self.u == grid.cutoff)):
            raise EvaluationError("principal value undefined at a contour endpoint")
        on = self.node >= 0
        # weight of the node at u_i (0 off the nodes, where the stencil is unused)
        self.node_weight = np.where(on, grid.weights[np.where(on, self.node, 0)], 0.0)
        t = grid.tangents[np.where(on, self.node, 0)]
        self._tangent = t / np.abs(t)
        # the step stays below |u_i|, clear of the branch point at the origin
        self._delta = STENCIL_DELTA * np.minimum(1.0, np.abs(self.u))
        d = self._delta * self._tangent
        # u_i and its stencil (M, 5), where integrands are sampled together
        self.points = np.stack([self.u, self.u - 2 * d, self.u - d, self.u + d,
                                self.u + 2 * d], axis=-1)
        # PV of the integral of dz/(u - z) from 0 to X; principal logs are
        # safe because u and X - u stay in the closed right half plane here
        self.log_term = np.log(self.u) - np.log(grid.cutoff - self.u)

    def _cauchy(self, rows: slice, cols: slice) -> np.ndarray:
        """The tile C_ij = 1/(u_i - z_j) of points ``rows`` and nodes ``cols`` in the
        ``_block_buffer``, 0 where u_i is z_j (that sample is -h'(u_i), from the stencil)."""
        u, z = self.u[rows], self.grid.nodes[cols]
        diff = np.subtract.outer(u, z, out=_block_buffer(len(u), len(z)))
        j = self.node[rows] - cols.start
        r = np.nonzero((j >= 0) & (j < diff.shape[1]))[0]
        diff[r, j[r]] = np.inf
        return np.reciprocal(diff, out=diff)

    def sample(self, f: Callable) -> tuple[np.ndarray, np.ndarray]:
        """f at the nodes, (N,), and at each point and its stencil, (M, 5),
        the point first.  Where the points are every node, f is evaluated
        once, at the stencils, and its node row is their first column, copied
        contiguous: a strided row gives ``sum``'s operands another memory
        order, and the matrix products other last bits."""
        at_points = np.asarray(f(self.points), dtype=complex)
        if self.u is self.grid.nodes:
            return at_points[:, 0].copy(), at_points
        return np.asarray(f(self.grid.nodes), dtype=complex), at_points

    def __call__(self, h: Callable, side=0, F: Callable | None = None) -> np.ndarray:
        """PV at every point, minus side * i*pi * h(u_i) for side = +1/-1
        (the displaced-pole integral \\int h(z)/(u_i + side*i0 - z) dz).

        ``h(z)`` takes curve points of any shape and returns h there, one
        row (1, N) at the nodes (1, N).  With ``F`` the integrand is h(z)
        F_p(z) for targets p, ``F(z)`` of shape (1, P, N) at the nodes and
        (M, P, 5) at the points and their stencils (M, 5), and the result
        is (M, P) instead of (M,); ``side`` is then a scalar or one value
        per target, shape (P,).  An integrand given per point, h of more
        than one row or F of more than one, is refused.
        """
        out = self.sum(*self._integrand(h, F), side)
        return out if F is not None else out[:, 0]

    def _integrand(self, h: Callable, F: Callable | None) -> tuple[np.ndarray, np.ndarray]:
        """h F_p sampled for ``sum``: its rows w h F_p at the nodes and its
        values at the points and their stencils."""
        n = self.grid.n
        nodes = self.grid.nodes[None, :]
        hn = np.asarray(h(nodes), dtype=complex)
        Fn = np.ones((1, 1, n)) if F is None else np.asarray(F(nodes), dtype=complex)
        if hn.shape != (1, n) or Fn.ndim != 3 or Fn.shape[::2] != (1, n):
            raise EvaluationError(f"SampledPV integrates one row shared by every point, got "
                                  f"h {hn.shape} and F {Fn.shape} on {n} nodes")
        hp = np.asarray(h(self.points), dtype=complex)[:, None, :]      # (M, 1, 5)
        if F is not None:
            hp = hp * np.asarray(F(self.points), dtype=complex)         # (M, P, 5)
        return self.grid.weights * hn * Fn[0], hp

    def sum(self, rows: np.ndarray, at_points: np.ndarray, side=0,
            pointwise: bool = False) -> np.ndarray:
        """The principal values of P integrands given as samples, minus side
        * i*pi times each at u_i, shape (M, P): ``rows`` (P, N) holds w_j
        times integrand p at node j, ``at_points`` (M, P, 5) each integrand
        at each point and its stencil, the point first.  ``side`` is a
        scalar or one value per integrand.  With ``pointwise`` each point's
        node sums are a vector-matrix product of their own, so that a point
        rounds alike alone or in a block of any size, as a block's matrix
        product does not; at about twice the cost."""
        w, n, t = self.grid.weights, self.grid.n, PV_TILE
        G = np.concatenate([rows.T, w[:, None]], axis=1)                 # (N, P + 1)
        hp = at_points
        hu = hp[..., 0]                                                  # (M, P)
        S = np.zeros((len(self.u), G.shape[1]), dtype=complex)           # C @ G
        if self.u is self.grid.nodes and not pointwise:
            for a in range(0, n, t):
                I = slice(a, a + t)
                S[I] += self._cauchy(I, I) @ G[I]
                for b in range(a + t, n, t):
                    J = slice(b, b + t)
                    C = self._cauchy(I, J)
                    S[I] += C @ G[J]
                    S[J] -= C.T @ G[I]
        else:
            product = (lambda C, g: np.matmul(C[:, None, :], g)[:, 0]) if pointwise \
                else np.matmul
            block = max(1, BLOCK_ENTRIES // n)
            for a in range(0, len(self.u), block):
                I = slice(a, a + block)
                S[I] = product(self._cauchy(I, slice(0, n)), G)
        dh = (hp[..., 1] - 8 * hp[..., 2] + 8 * hp[..., 3] - hp[..., 4]) \
            / (12 * self._delta[:, None] * self._tangent[:, None])
        return S[:, :-1] - hu * S[:, -1:] - self.node_weight[:, None] * dh \
            + hu * self.log_term[:, None] - side * 1j * np.pi * hu


def plemelj_integral(f: Callable, x0: float, side: int, grid: ContourGrid) -> complex:
    """Boundary value \\int_0^X f(w) / (x0 - w + side*i0) dw.

    ``side=+1`` gives -i*pi*f(x0) - PV \\int f/(w - x0); ``side=-1`` is the
    conjugate prescription +i*pi*f(x0) - PV \\int f/(w - x0).  This is
    ``pole_kernel_integral`` at x0 on ``grid``, a real-axis grid of cutoff X.
    """
    if not 0 < x0 < grid.cutoff:
        raise EvaluationError(f"principal-value point {x0} outside (0, {grid.cutoff})")
    return pole_kernel_integral(grid, f, x0, side)
