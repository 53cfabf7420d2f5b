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
from scipy.optimize import brentq

from .contour import ContourSpec
from .errors import AnalyticityError, ChannelClosedError, ConfigError, ConvergenceError
from .model import ModelSpec, form_factor_from_callable

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
        if min(self.a, self.b, self.v0, self.mu, self.hbar) <= 0:
            raise ConfigError("a, b, v0, mu, hbar must all be positive")
        if not 0 < self.v1 < self.v0:
            raise ConfigError("need 0 < v1 < v0 for a barrier to appear")
        if self.b < MIN_RATIO * self.a:
            raise ConfigError(f"need b >= {MIN_RATIO} a so the outer region "
                              "is weakly coupled")
        # Python floats: an extreme section overflows to inf without a warning
        z0 = self.a * math.sqrt(2 * self.mu * self.v0) / self.hbar
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
    k: float
    q: float            # inside wavenumber sqrt(k^2 + 2 mu v0 / hbar^2)
    b_inside: float
    delta: float        # outer phase, amplitude 1/sqrt(pi)
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

    lo, hi = 1e-12, z0 * (1 - 1e-14)
    if match(lo) > 0 or match(hi) < 0:
        raise ConvergenceError("even matching equation lost its bracket; "
                               "inconsistent well parameters")
    z = brentq(match, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
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


def even_scattering_state(spec: BarrierSpec, k: float) -> ScatteringState:
    """Delta-normalized even continuum state of the bare well at wavenumber k."""
    if k <= 0:
        raise ConfigError("scattering states need k > 0")
    mu, hbar, a, v0 = spec.mu, spec.hbar, spec.a, spec.v0
    q = np.sqrt(k**2 + 2 * mu * v0 / hbar**2)
    c = 1.0 / np.sqrt(np.pi)
    delta = float(np.arctan2(q * np.sin(q * a), k * np.cos(q * a)) - k * a)
    bamp = c / np.sqrt(np.cos(q * a) ** 2 + (q / k) ** 2 * np.sin(q * a) ** 2)
    return ScatteringState(k=float(k), q=float(q), b_inside=float(bamp),
                           delta=delta, c_outside=float(c))


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


def _cos_overlap(alpha: float, beta: float, lo: float, hi: float) -> float:
    """\\int_lo^hi cos(alpha x) cos(beta x) dx in closed form."""
    def half(g):
        if abs(g) < 1e-12:
            return hi - lo
        return (np.sin(g * hi) - np.sin(g * lo)) / g
    return 0.5 * (half(alpha - beta) + half(alpha + beta))


def matrix_elements(spec: BarrierSpec) -> dict:
    """Level shift v11, coupling samples v_1k and the inner-region continuum
    kernel v_kk' on the threshold-resolving wavenumber grid ``default_k_grid``."""
    bs = solve_bound_state(spec)
    k_grid = default_k_grid(spec)
    v11 = _level_shift(spec, bs)
    v1k = np.array([coupling_vs_k(spec, bs, complex(k)).real for k in k_grid])
    states = [even_scattering_state(spec, float(k)) for k in k_grid]
    n = len(k_grid)
    vkk = np.zeros((n, n))
    a, b, v1 = spec.a, spec.b, spec.v1
    for i, si in enumerate(states):
        for j in range(i, n):
            sj = states[j]
            inner = si.b_inside * sj.b_inside * _cos_overlap(si.q, sj.q, 0.0, a)
            # outer piece on [a, b]: cos(k x + delta) products via shifted angles
            ki, kj = si.k, sj.k
            di, dj = si.delta, sj.delta
            def seg(g, p):
                if abs(g) < 1e-12:
                    return np.cos(p) * (b - a)
                return (np.sin(g * b + p) - np.sin(g * a + p)) / g
            outer = 0.5 * si.c_outside * sj.c_outside * (
                seg(ki - kj, di - dj) + seg(ki + kj, di + dj))
            vkk[i, j] = vkk[j, i] = v1 * 2.0 * (inner + outer)
    return {"bound": bs, "v11": float(v11), "k_grid": k_grid, "v_1k": v1k,
            "v_kk": vkk}


def default_k_grid(spec: BarrierSpec) -> np.ndarray:
    """K_POINTS wavenumbers, log-spaced near threshold plus a linear tail."""
    k_top = np.sqrt(2 * spec.mu * spec.v0) / spec.hbar * 6.0
    n, n_log = K_POINTS, K_POINTS // 3
    return np.concatenate([np.geomspace(1e-3, 0.3 * k_top, n_log, endpoint=False),
                           np.linspace(0.3 * k_top, k_top, n - n_log)])


def resonance_width(spec: BarrierSpec) -> BarrierResonance:
    """Second-order complex shift of the bound level through the open channel."""
    bs = solve_bound_state(spec)
    v11 = _level_shift(spec, bs)
    gap = (bs.e1 + v11) - (spec.v0 - spec.v1)
    if gap <= 0:
        raise ChannelClosedError(
            f"corrected level {bs.e1 + v11:.6f} sits below the continuum threshold "
            f"{spec.v0 - spec.v1:.6f}: no open decay channel, no imaginary part")
    k_tilde = float(np.sqrt(2 * spec.mu * gap) / spec.hbar)
    v1k = complex(coupling_vs_k(spec, bs, complex(k_tilde))).real
    width = float(2 * np.pi * spec.mu / (spec.hbar**2 * k_tilde) * v1k * v1k)
    return BarrierResonance(e1=bs.e1, v11=float(v11), k_tilde=k_tilde,
                            width=width, survival_rate=width)


def to_friedrichs_model(spec: BarrierSpec, n_nodes: int = 800) -> ModelSpec:
    """Map the even sector onto the generic model.

    Energies are shifted so the continuum starts at zero: the level sits at
    (E1 + V11) - (V0 - V1) and the coupling picks up the wavenumber-to-energy
    Jacobian, V(w) = v_1k(k(w)) sqrt(mu / (hbar^2 k(w))).  The contour has
    depth min(0.3, level / 2) and cutoff max(20, 10 level).
    """
    bs = solve_bound_state(spec)
    v11 = _level_shift(spec, bs)
    omega_eff = (bs.e1 + v11) - (spec.v0 - spec.v1)
    if omega_eff <= 0:
        raise ChannelClosedError("closed channel: the mapped level would not sit "
                                 "inside the continuum")
    mu, hbar = spec.mu, spec.hbar

    def v_of_energy(z):
        z = np.asarray(z, dtype=complex)
        k = np.sqrt(2 * mu * z) / hbar
        return coupling_vs_k(spec, bs, k) * np.sqrt(mu / (hbar**2 * k))

    ff = form_factor_from_callable(v_of_energy, name="barrier_even_channel")
    return ModelSpec(omega_level=float(omega_eff), coupling=1.0, form_factor=ff,
                     kernel=None,
                     contour=ContourSpec(depth=min(0.3, omega_eff / 2.0),
                                         cutoff=float(max(20.0, 10.0 * omega_eff)),
                                         n_nodes=n_nodes))


def width_sweep(spec: BarrierSpec, b_values) -> list[dict]:
    """Width as a function of the barrier length (all other parameters fixed)."""
    rows = []
    for b in b_values:
        r = resonance_width(replace(spec, b=float(b)))
        rows.append({"b": float(b), "barrier_length": float(b - spec.a),
                     "width": r.width, "k_tilde": r.k_tilde})
    return rows
