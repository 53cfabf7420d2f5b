from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.fft import next_fast_len

from respectra import oracle
from respectra.dynamics import _vector_on_grid
from respectra.errors import ConfigError, EvaluationError
from respectra.model import FormFactor2, make_model, separable_test_kernel
from respectra.oracle import (SecularSystem, _fast_len, _pole_gaps, _PoleSums, _secular_roots,
                              amplitude_curve, commutator_apply, discretize, propagate,
                              secular_system)
from respectra.states import random_analytic

_EPS = np.finfo(float).eps


def _spanning(m, cutoff):
    """The model on the continuum [0, cutoff]: the oracle's bins span it."""
    return replace(m, contour=replace(m.contour, cutoff=cutoff))


def test_free_limit_spectrum():
    m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    d = discretize(m, 200)
    evals = np.sort(d.eigenvalues)
    expect = np.sort(np.concatenate([[1.0], d.grid]))
    assert np.max(np.abs(evals - expect)) < 1e-12


def test_minimum_size():
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1)
    for oracle_of in (secular_system, discretize):
        with pytest.raises(ConfigError):
            oracle_of(m, 50)


def test_hermiticity_guard():
    # a factor that is complex on the axis makes K = g(z) g(z') non-Hermitian:
    # both oracles refuse it, and the same factor made real is solved
    h = separable_test_kernel().factor
    bad = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                     kernel=FormFactor2("complex", lambda z: (1.0 + 0.5j) * h(z)))
    for oracle_of in (secular_system, discretize):
        with pytest.raises(EvaluationError):
            oracle_of(bad, 200)
    good = make_model("sqrt_exp", [1.0], 1.0, 0.1, kernel=FormFactor2("real", h))
    assert isinstance(secular_system(good, 200), SecularSystem)


def test_coincident_kernel_eigenvalues_are_refused():
    # a kernel that couples one bin only, with g^2 one bin width, lifts that
    # bin's eigenvalue exactly onto the next midpoint, which stays an
    # eigenvalue of its own: no secular equation separates the two
    w = (100 + 0.5) / 16.0
    one_bin = FormFactor2("one_bin", lambda z: np.where(np.abs(z - w) < 0.01, 2.0, 0.0))
    m = _spanning(make_model("sqrt_exp", [1.0], 1.0, 0.5, kernel=one_bin), 16.0)
    with pytest.raises(EvaluationError, match="coincident"):
        secular_system(m, 256)


def test_propagate_identity_and_unitarity(default_model):
    d = discretize(default_model, 300)
    v = np.zeros(d.dimension, dtype=complex)
    v[0] = 1.0
    assert np.max(np.abs(propagate(d, v, 0.0) - v)) < 1e-12
    out = propagate(d, v, 37.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # population over the full basis stays one
    total = np.sum(np.abs(out) ** 2)
    assert abs(total - 1.0) < 1e-10


def test_propagate_shape_guard(default_model):
    d = discretize(default_model, 150)
    with pytest.raises(ConfigError):
        propagate(d, np.zeros(5), 1.0)


def test_commutator_identity(default_model):
    d = discretize(default_model, 200)
    eye = np.eye(d.dimension, dtype=complex)
    assert np.max(np.abs(commutator_apply(d, eye))) == 0.0


def test_provenance_fields(default_model):
    d = discretize(_spanning(default_model, 18.0), 128)
    assert d.n == 128 and d.omega_max == 18.0 and d.dimension == 129


def test_level_repulsion_grows_with_coupling():
    gaps = {}
    for eps in (0.05, 0.1):
        m = make_model("sqrt_exp", [1.0], 1.0, eps)
        d = secular_system(m, 1000)
        gaps[eps] = np.sort(np.abs(d.eigenvalues - 1.0))[0]
    assert gaps[0.1] > 1.5 * gaps[0.05]


def test_nearest_gap_scales_like_sqrt_bin():
    # the avoided-crossing gap at the level tracks V(Omega) sqrt(bin width);
    # average over sub-bin offsets of the level to wash out grid alignment
    ns = (500, 1000, 2000)
    mean_gaps = []
    for n in ns:
        dw = 20.0 / n
        vals = []
        for off in np.linspace(0.0, 1.0, 6, endpoint=False):
            m = make_model("sqrt_exp", [1.0], 1.0 + off * dw, 0.1)
            d = secular_system(m, n)
            vals.append(np.sort(np.abs(d.eigenvalues - m.omega_level))[0])
        mean_gaps.append(np.mean(vals))
    slope = np.polyfit(np.log([20.0 / n for n in ns]), np.log(mean_gaps), 1)[0]
    assert 0.35 < slope < 0.75


def test_self_convergence(default_model):
    # doubling the grid moves late-time survival by less than 1e-4
    from respectra.dynamics import default_time_grid, oracle_survival_curve
    ts = default_time_grid(default_model, 40)
    a = oracle_survival_curve(default_model, ts, n_levels=1000)
    b = oracle_survival_curve(default_model, ts, n_levels=2000)
    assert np.max(np.abs(a.survival - b.survival)) < 1e-4


@pytest.mark.parametrize("a,b,uniform", [
    (-1.3, 1.0, False), (1.0, 0.0, False), (-1.0, 0.0, False),
    (-1.3, 1.0, True), (1.0, 0.0, True), (-1.0, 0.0, True),
], ids=["arrowhead", "rank_one_up", "rank_one_down",
        "arrowhead_uniform", "rank_one_up_uniform", "rank_one_down_uniform"])
def test_secular_roots_are_eigenvalues(a, b, uniform):
    # a + b lam - sum_j c_j / (lam - p_j) = 0 is the characteristic equation
    # of the arrowhead [[-a, z^T], [z, diag(p)]] (b = 1) and of
    # diag(p) + a z z^T (b = 0, a = +-1), with z = sqrt(c); uniform poles
    # take the far-field series for every inner root
    rng = np.random.default_rng(4)
    m = 300 if uniform else 40
    p = (np.arange(m) + 0.5) * (3.0 / m) if uniform else np.sort(rng.uniform(0.0, 3.0, m))
    z = rng.uniform(0.01, 0.3, m) * (np.sqrt(40 / m) if uniform else 1.0)
    if b:
        H = np.diag(np.r_[-a, p])
        H[0, 1:] = H[1:, 0] = z
    else:
        H = np.diag(p) + a * np.outer(z, z)
    sums = _PoleSums(p, (z * z)[:, None])
    assert (sums.step is not None) == uniform
    origin, tau = _secular_roots(a, b, sums)
    assert np.max(np.abs(p[origin] + tau - np.linalg.eigvalsh(H))) <= 1e-14


def _direct_reduced(a, b, p, c, origin, tau):
    """F and the sum of c_j / (lam - p_j)^2 over j != origin, summed over every
    pole by ``_pole_gaps``: the reference of the far-field series."""
    F, s2 = np.empty(len(tau)), np.empty(len(tau))
    for sl, d in _pole_gaps(p, origin, tau):
        inv = 1.0 / d
        inv[np.arange(len(inv)), origin[sl]] = 0.0
        F[sl] = a + b * (p[origin[sl]] + tau[sl]) - inv @ c
        s2[sl] = (inv * inv) @ c
    return F, s2


def _weight_rounding(a, basis):
    """Per eigenvalue, ascending, the rounding of the level weight
    w = 1 / (1 + S_2) that the rounding of its root's offset tau brings,
    S_k = sum_j c_j / (lam - p_j)^k over every pole: |dw/dtau| = 2 w^2 |S_3|
    times the least change of tau that the solve resolves.  The solve
    accepts a root where the secular function is within 8 eps (noise +
    c_o / |tau|) of 0, noise as in ``_secular_roots``, and the function's
    slope is 1 + S_2.  A deflated pole's weight is 0 exactly."""
    p, c, origin, tau = basis.p, (basis.z * np.conj(basis.z)).real, basis.origin, basis.tau
    out = np.empty(len(tau))
    for sl, d in _pole_gaps(p, origin, tau):
        inv = 1.0 / d
        s2, s3 = (inv * inv) @ c, (inv ** 3) @ c
        inv[np.arange(len(inv)), origin[sl]] = 0.0
        lam = p[origin[sl]] + tau[sl]
        noise = np.abs(a) + np.abs(lam) + np.sqrt(np.sum(c) * ((inv * inv) @ c))
        w = 1.0 / (1.0 + s2)
        dtau = 8.0 * _EPS * (noise + c[origin[sl]] / np.abs(tau[sl])) / (1.0 + s2)
        out[sl] = dtau * 2.0 * w * w * np.abs(s3)
    return np.r_[out, np.zeros(np.count_nonzero(~basis.keep))][basis.order]


@given(family=st.sampled_from(["sqrt_exp", "poly_exp", "lorentz_sqrt"]),
       param=st.floats(1.0, 3.0), omega=st.floats(0.1, 2.0),
       eps=st.floats(1e-4, 0.5), n=st.integers(100, 2000), kernel=st.booleans())
# a draw whose level weights differ by 1.3e-15, each solve right to its rounding
@example(family="poly_exp", param=1.298096046741425, omega=1.9334387135614979,
         eps=0.2008779483218699, n=1488, kernel=False)
def test_far_field_matches_the_direct_sums(family, param, omega, eps, n, kernel):
    # the secular function at the midpoint sweep and at the converged roots,
    # series against direct, to the solver's own rounding bound, for every
    # secular solve of the oracle: the level's over the midpoints, or with a
    # kernel the kernel block's (diag(w) + g g^T) over the midpoints and the
    # level's over its eigenvalues, with weights |Q^T v|^2; and the whole
    # oracle against the one that takes the direct sums everywhere
    m = make_model(family, [param], omega, eps,
                   kernel="separable_sqrt_exp" if kernel else None)
    s = secular_system(m, n)
    over_midpoints = s.kernel if kernel else s.arrow
    for a, b, basis in ((-omega, 1.0, s.arrow), (1.0, 0.0, s.kernel)):
        if basis is None:
            continue
        p, c = basis.p, (basis.z * np.conj(basis.z)).real
        sums = _PoleSums(p, c[:, None])
        if basis is over_midpoints:
            assert sums.step is not None
        roots = _secular_roots(a, b, sums)
        midpoints = (np.arange(len(p) - 1), 0.5 * (p[1:] - p[:-1]))
        for origin, tau in (roots, midpoints):
            F, _ = oracle._reduced(a, b, sums, origin, tau)
            F_direct, s2 = _direct_reduced(a, b, p, c, origin, tau)
            noise = np.abs(a) + b * np.abs(p[origin] + tau) + np.sqrt(np.sum(c) * s2)
            assert np.max(np.abs(F - F_direct) / noise) <= 2.0 * _EPS
    with mock.patch.object(oracle, "_lattice", lambda p: None):
        d = secular_system(m, n)
    assert np.max(np.abs(s.eigenvalues - d.eigenvalues)) <= 1e-15
    # beside a pole of large weight a level weight is conditioned far worse
    # than 1e-15: it is held to its offset's rounding there, 1e-15 elsewhere
    bound = np.maximum(1e-15, _weight_rounding(-omega, s.arrow))
    assert np.all(np.abs(s.level_weights - d.level_weights) <= bound)


def _direct_roots(monkeypatch):
    """The (pole count, origins, offsets) of every set of roots that takes
    the direct sums, recorded as the oracle solves."""
    seen = []

    def recording(p, origin, tau):
        if len(tau):
            seen.append((len(p), origin, tau))
        return _pole_gaps(p, origin, tau)

    monkeypatch.setattr(oracle, "_pole_gaps", recording)
    return seen


def test_fast_len_is_the_least_5_smooth_length():
    assert [_fast_len(n) for n in range(1, 10_001)] == [
        next_fast_len(n, real=True) for n in range(1, 10_001)]


def test_uniform_poles_take_the_direct_sums_only_at_the_outer_roots(monkeypatch):
    # no inner root of an oracle goes through the O(n) direct sums: at most
    # the two outer roots, which may lie beyond the series' reach.  With a
    # kernel at eps <= 0.1 this holds for the level's solve too, whose poles
    # (the kernel block's eigenvalues) lie off the midpoint lattice by under
    # 0.004 steps
    n = 4000
    seen = _direct_roots(monkeypatch)
    for kernel, eps in ((None, 0.3), ("separable_sqrt_exp", 0.01), ("separable_sqrt_exp", 0.1)):
        for family, param in (("sqrt_exp", 1.0), ("lorentz_sqrt", 2.0)):
            s = secular_system(make_model(family, [param], 1.0, eps, kernel=kernel), n)
            assert oracle._lattice(s.arrow.p) is not None
    for m, origin, tau in seen:
        assert len(tau) <= 2
        assert np.all(np.isin(origin, (0, m - 1)))
        assert np.all(np.abs(tau) > 0.5 * (20.0 / n))


def test_poles_far_off_the_lattice_take_the_direct_sums(monkeypatch):
    # at eps = 0.5 the kernel block's eigenvalues stray 0.08 steps from the
    # midpoint lattice, past the series' bound: every root of the level's
    # solve is summed directly
    n = 1000
    m = make_model("sqrt_exp", [1.0], 1.0, 0.5, kernel="separable_sqrt_exp")
    seen = _direct_roots(monkeypatch)
    s = secular_system(m, n)
    p = s.arrow.p
    h = (p[-1] - p[0]) / (n - 1)
    assert np.max(np.abs(p - p[0] - h * np.arange(n))) > oracle._OFFSET_BOUND * h
    assert oracle._lattice(p) is None
    assert any(count == n and len(tau) >= n - 1 for count, _, tau in seen)


def test_amplitude_curve_is_the_phase_sum(default_model):
    # the mode sum by phase_sum against exp(-i t lambda) @ modes, both
    # for real modes (the level-only survival) and for complex ones
    ts = np.linspace(0.0, 60.0, 200)
    s = secular_system(default_model, 1000)
    level = np.zeros(s.dimension, dtype=complex)
    level[0] = 1.0
    modes = s.modes(level, level)
    assert not np.any(modes.imag)
    rng = np.random.default_rng(11)
    d = discretize(default_model, 300)
    v = rng.standard_normal((2, d.dimension)) + 1j * rng.standard_normal((2, d.dimension))
    left, right = v / np.linalg.norm(v, axis=1, keepdims=True)
    for sys, l, r in ((s, level, level), (d, left, right)):
        direct = np.exp(-1j * np.outer(ts, sys.eigenvalues)) @ sys.modes(l, r)
        assert np.max(np.abs(amplitude_curve(sys, l, r, ts) - direct)) <= 1e-14


def _dense_gaps(m, n, seed, ts=np.linspace(0.0, 60.0, 7)):
    """Eigenvalue, level-weight and amplitude gaps between the structured and
    the dense solution of the same matrix."""
    s, d = secular_system(m, n), discretize(m, n)
    rng = np.random.default_rng(seed)
    psi, phi = random_analytic(rng), random_analytic(rng)
    left, right = _vector_on_grid(psi, d), _vector_on_grid(phi, d)
    return (np.max(np.abs(s.eigenvalues - d.eigenvalues)),
            np.max(np.abs(s.level_weights - np.abs(d.transform[0]) ** 2)),
            np.max(np.abs(amplitude_curve(s, left, right, ts)
                          - amplitude_curve(d, left, right, ts))))


@given(family=st.sampled_from(["sqrt_exp", "poly_exp", "lorentz_sqrt"]),
       param=st.floats(1.0, 3.0), omega=st.floats(0.1, 2.0),
       eps=st.floats(0.0, 0.5).filter(lambda e: e == 0.0 or e >= 1e-4),
       n=st.integers(100, 600), kernel=st.booleans(), seed=st.integers(0, 2**16))
def test_secular_matches_dense(family, param, omega, eps, n, kernel, seed):
    # levels up to 2 keep the default cutoff at 20; the dense eigh's own
    # level-weight error grows with the cutoff (1.4e-12 at cutoff 80,
    # omega = 8, against 3.6e-15 for the secular weights in a 40-digit check)
    m = make_model(family, [param], omega, eps,
                   kernel="separable_sqrt_exp" if kernel else None)
    eig, weight, amp = _dense_gaps(m, n, seed)
    assert eig <= 1e-12 and weight <= 1e-12 and amp <= 1e-11


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
@pytest.mark.parametrize("family,param,omega,eps", [
    ("sqrt_exp", 1.0, 1.0, 0.0),                   # nothing couples
    ("poly_exp", 30.0, 1.0, 0.3),                  # V underflows to 0 past w ~ 12
    ("sqrt_exp", 1.0, (10 + 0.5) * (20.0 / 200), 0.1),   # level on a bin midpoint
], ids=["eps0", "underflowing_tail", "level_on_midpoint"])
def test_secular_matches_dense_at_edges(family, param, omega, eps, kernel):
    m = make_model(family, [param], omega, eps, kernel=kernel)
    eig, weight, amp = _dense_gaps(m, 200, 5)
    assert eig <= 1e-12 and weight <= 1e-12 and amp <= 1e-11


def test_secular_roots_stop_at_the_rounding_floor():
    # a property search found this root, next to the level, where the
    # secular function only reaches the rounding of its own terms: Newton
    # steps of 1e-17 stalled it until the sweep limit
    m = make_model("sqrt_exp", [4.09878867055183], 8.73652970419443, 0.12,
                   kernel="separable_sqrt_exp")
    eig, weight, amp = _dense_gaps(_spanning(m, 0.7858520535283344 * 20.0), 700, 0)
    assert eig <= 1e-12 and weight <= 1e-12 and amp <= 1e-11

