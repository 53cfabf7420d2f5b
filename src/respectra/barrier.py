"""Square well plus outer drop: the tunneling example worked end to end.

The inner well (depth reference: potential V0 outside |x| < a, zero inside)
binds a single even state when a sqrt(2 mu V0)/hbar < pi/2.  Lowering the
potential by V1 beyond |x| > b opens a barrier of height V0 - V1 and length
b - a; the even sector then maps onto the generic level-plus-continuum model
with the bound state as the discrete level and delta-normalized even
scattering states as the continuum.

All matrix elements are closed-form piecewise integrals; quadrature appears
only in cross-checks.  The analytic continuation of the coupling to complex
wavenumbers uses the exponential-splitting form of the scattering states with
the amplitude normalizer sqrt(4 P Q), which restricts contour depths to stay
above the well's own resonance poles (guarded at evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .contour import ContourSpec, _bracketed_root
from .errors import AnalyticityError, ChannelClosedError, ConfigError, ConvergenceError
from .model import FormFactor, ModelSpec

MIN_RATIO = 5.0       # least b / a for which the outer region is weakly coupled
K_POINTS = 48         # wavenumbers of the matrix-element grid


@dataclass(frozen=True)
class BarrierSpec:
    a: float            # inner well half-width
    b: float            # outer edge where the potential drops
    v0: float           # potential outside the inner well
    v1: float           # drop beyond |x| > b
    mu: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.a, self.b, self.v0, self.mu, self.hbar)):
            raise ConfigError("a, b, v0, mu, hbar must all be positive and finite")
        if not 0 < self.v1 < self.v0:
            raise ConfigError("need 0 < v1 < v0 for a barrier to appear")
        if self.b < MIN_RATIO * self.a:
            raise ConfigError(f"need b >= {MIN_RATIO} a so the outer region "
                              "is weakly coupled")
        # Python floats: an extreme section overflows to inf, or underflows
        # to 0, without a warning
        s = 2 * self.mu / (self.hbar * self.hbar) if self.hbar * self.hbar else math.inf
        z0 = self.a * math.sqrt(s * self.v0)
        if not (0 < s < math.inf and 0 < z0 < math.inf):
            raise ConfigError(f"2 mu/hbar^2 = {s} and a sqrt(2 mu v0)/hbar = {z0} must be "
                              "positive and finite")
        if z0 >= np.pi / 2:
            raise ConfigError("a sqrt(2 mu v0)/hbar must stay below pi/2 for a "
                              "single even bound state")


@dataclass(frozen=True)
class BoundState:
    e1: float
    q: float            # inside wavenumber
    kappa: float        # outside decay constant
    n_inside: float     # inside amplitude
    a_outside: float    # outside amplitude of n_inside*cos(q a)e^{kappa a}


@dataclass(frozen=True)
class ScatteringState:
    k: float | np.ndarray
    q: float | np.ndarray         # inside wavenumber sqrt(k^2 + 2 mu v0 / hbar^2)
    b_inside: float | np.ndarray
    delta: float | np.ndarray     # outer phase, amplitude 1/sqrt(pi)
    c_outside: float


@dataclass(frozen=True)
class BarrierResonance:
    e1: float
    v11: float
    k_tilde: float
    width: float
    survival_rate: float


def solve_bound_state(spec: BarrierSpec) -> BoundState:
    """Even bound state from the matching condition q tan(q a) = kappa."""
    mu, hbar, a, v0 = spec.mu, spec.hbar, spec.a, spec.v0
    s = 2 * mu / hbar**2
    z0 = a * np.sqrt(s * v0)

    def match(z):
        # z = q a in (0, z0); kappa a = sqrt(z0^2 - z^2)
        return z * np.tan(z) - np.sqrt(z0**2 - z**2)

    def match_prime(z):
        return np.tan(z) + z / np.cos(z) ** 2 + z / np.sqrt(z0**2 - z**2)

    lo, hi = 1e-12, z0 * (1 - 1e-14)
    if not (lo < hi and match(lo) < 0 < match(hi)):
        raise ConvergenceError("even matching equation lost its bracket; "
                               "inconsistent well parameters")
    z = _bracketed_root(match, match_prime, lo, hi)
    q = z / a
    e1 = q**2 / s
    kappa = np.sqrt(s * (v0 - e1))
    n2 = a + np.sin(2 * q * a) / (2 * q) + np.cos(q * a) ** 2 / kappa
    n = 1.0 / np.sqrt(n2)
    return BoundState(e1=float(e1), q=float(q), kappa=float(kappa),
                      n_inside=float(n),
                      a_outside=float(n * np.cos(q * a) * np.exp(kappa * a)))


def _level_shift(spec: BarrierSpec, bs: BoundState) -> float:
    """First-order shift v11 = -v1 a_out^2 e^(-2 kappa b) / kappa of the bound
    level by the potential drop beyond |x| > b."""
    return -spec.v1 * bs.a_outside**2 * np.exp(-2 * bs.kappa * spec.b) / bs.kappa


def bound_state_residual(spec: BarrierSpec, bs: BoundState) -> float:
    return abs(bs.q * np.tan(bs.q * spec.a) - bs.kappa)


def even_scattering_state(spec: BarrierSpec, k) -> ScatteringState:
    """Delta-normalized even continuum state of the bare well at wavenumber k,
    or the states at every k of an array, one array per field."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ConfigError("scattering states need k > 0")
    mu, hbar, a, v0 = spec.mu, spec.hbar, spec.a, spec.v0
    q = np.sqrt(k**2 + 2 * mu * v0 / hbar**2)
    c = 1.0 / np.sqrt(np.pi)
    delta = np.arctan2(q * np.sin(q * a), k * np.cos(q * a)) - k * a
    bamp = c / np.sqrt(np.cos(q * a) ** 2 + (q / k) ** 2 * np.sin(q * a) ** 2)
    fields = (x if k.ndim else float(x) for x in (k, q, bamp, delta))
    return ScatteringState(*fields, c_outside=float(c))


def _pq_split(spec: BarrierSpec, k):
    """Exponential splitting of the outside solution for inside amplitude 1.

    Returns P, Q with u_out(x) = P e^{ikx} + Q e^{-ikx}; the delta-normalized
    amplitude is sqrt(4 P Q)/sqrt(pi), analytic in k away from the well's own
    resonance zeros.
    """
    mu, hbar, a, v0 = spec.mu, spec.hbar, spec.a, spec.v0
    k = np.asarray(k, dtype=complex)
    q = np.sqrt(k**2 + 2 * mu * v0 / hbar**2)
    cqa, sqa = np.cos(q * a), np.sin(q * a)
    P = 0.5 * np.exp(-1j * k * a) * (cqa + 1j * q * sqa / k)
    Q = 0.5 * np.exp(+1j * k * a) * (cqa - 1j * q * sqa / k)
    return P, Q


def coupling_vs_k(spec: BarrierSpec, bs: BoundState, k):
    """Analytic continuation of the outer-region overlap -V1 * 2
    \\int_b^inf psi_1 psi_k dx to complex wavenumbers."""
    kk = np.asarray(k, dtype=complex)
    P, Q = _pq_split(spec, kk)
    m2 = 4.0 * P * Q
    if np.any(np.abs(m2) < 1e-12) or np.any(np.abs(np.angle(m2)) > 0.9 * np.pi):
        raise AnalyticityError("scattering normalizer crosses its branch cut along "
                               "this path; use a shallower contour")
    m = np.sqrt(m2)
    kap, b, v1 = bs.kappa, spec.b, spec.v1
    tail = (P * np.exp((1j * kk - kap) * b) / (kap - 1j * kk)
            + Q * np.exp(-(1j * kk + kap) * b) / (kap + 1j * kk))
    out = -2.0 * v1 * bs.a_outside * tail / (np.sqrt(np.pi) * m)
    return out if np.ndim(k) else complex(out)


def _cos_products(g: np.ndarray, p: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """\\int_lo^hi cos(g_i x + p_i) cos(g_j x + p_j) dx in closed form for
    every pair i, j: half the integrals of the difference and sum angles."""
    total = 0.0
    for s in (-1.0, 1.0):
        gg, pp = g[:, None] + s * g[None, :], p[:, None] + s * p[None, :]
        flat = np.abs(gg) < 1e-12
        total = total + np.where(flat, np.cos(pp) * (hi - lo),
                                 (np.sin(gg * hi + pp) - np.sin(gg * lo + pp))
                                 / np.where(flat, 1.0, gg))
    return 0.5 * total


def matrix_elements(spec: BarrierSpec) -> dict:
    """Level shift v11, coupling samples v_1k and the inner-region continuum
    kernel v_kk' on the threshold-resolving wavenumber grid ``default_k_grid``."""
    bs = solve_bound_state(spec)
    k_grid = default_k_grid(spec)
    st = even_scattering_state(spec, k_grid)
    inner = (np.outer(st.b_inside, st.b_inside)
             * _cos_products(st.q, np.zeros_like(st.q), 0.0, spec.a))
    outer = st.c_outside**2 * _cos_products(k_grid, st.delta, spec.a, spec.b)
    return {"bound": bs, "v11": float(_level_shift(spec, bs)), "k_grid": k_grid,
            "v_1k": coupling_vs_k(spec, bs, k_grid).real,
            "v_kk": spec.v1 * 2.0 * (inner + outer)}


def default_k_grid(spec: BarrierSpec) -> np.ndarray:
    """K_POINTS wavenumbers, log-spaced near threshold plus a linear tail."""
    k_top = np.sqrt(2 * spec.mu * spec.v0) / spec.hbar * 6.0
    n, n_log = K_POINTS, K_POINTS // 3
    return np.concatenate([np.geomspace(1e-3, 0.3 * k_top, n_log, endpoint=False),
                           np.linspace(0.3 * k_top, k_top, n - n_log)])


def _open_level(spec: BarrierSpec, bs: BoundState) -> tuple[float, float]:
    """The level shift v11 and the corrected level (E1 + V11) - (V0 - V1)
    above the continuum threshold, refused when the channel is closed."""
    v11 = _level_shift(spec, bs)
    gap = (bs.e1 + v11) - (spec.v0 - spec.v1)
    if gap <= 0:
        raise ChannelClosedError(
            f"corrected level {bs.e1 + v11:.6f} sits below the continuum threshold "
            f"{spec.v0 - spec.v1:.6f}: no open decay channel, no imaginary part")
    return float(v11), float(gap)


def _width(spec: BarrierSpec, bs: BoundState) -> BarrierResonance:
    """Second-order width of the bound state ``bs`` of the well of ``spec``."""
    v11, gap = _open_level(spec, bs)
    k_tilde = float(np.sqrt(2 * spec.mu * gap) / spec.hbar)
    v1k = complex(coupling_vs_k(spec, bs, complex(k_tilde))).real
    width = float(2 * np.pi * spec.mu / (spec.hbar**2 * k_tilde) * v1k * v1k)
    return BarrierResonance(e1=bs.e1, v11=v11, k_tilde=k_tilde,
                            width=width, survival_rate=width)


def resonance_width(spec: BarrierSpec) -> BarrierResonance:
    """Second-order complex shift of the bound level through the open channel."""
    return _width(spec, solve_bound_state(spec))


def to_friedrichs_model(spec: BarrierSpec, n_nodes: int = 800) -> ModelSpec:
    """Map the even sector onto the generic model.

    Energies are shifted so the continuum starts at zero: the level sits at
    (E1 + V11) - (V0 - V1) and the coupling picks up the wavenumber-to-energy
    Jacobian, V(w) = v_1k(k(w)) sqrt(mu / (hbar^2 k(w))).  The contour has
    depth min(0.3, level / 2) and cutoff max(20, 10 level).
    """
    bs = solve_bound_state(spec)
    _, omega_eff = _open_level(spec, bs)
    mu, hbar = spec.mu, spec.hbar

    def v_of_energy(z):
        z = np.asarray(z, dtype=complex)
        k = np.sqrt(2 * mu * z) / hbar
        return coupling_vs_k(spec, bs, k) * np.sqrt(mu / (hbar**2 * k))

    return ModelSpec(omega_level=omega_eff, coupling=1.0,
                     form_factor=FormFactor("barrier_even_channel", (), v_of_energy),
                     contour=ContourSpec(depth=min(0.3, omega_eff / 2.0),
                                         cutoff=float(max(20.0, 10.0 * omega_eff)),
                                         n_nodes=n_nodes))


def width_sweep(spec: BarrierSpec, b_values) -> list[dict]:
    """Width as a function of the barrier length (all other parameters fixed),
    from one solve of the well, whose bound state does not depend on b."""
    bs = solve_bound_state(spec)
    rows = []
    for b in b_values:
        r = _width(replace(spec, b=float(b)), bs)
        rows.append({"b": float(b), "barrier_length": float(b - spec.a),
                     "width": r.width, "k_tilde": r.k_tilde})
    return rows
