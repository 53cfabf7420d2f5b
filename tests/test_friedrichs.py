import numpy as np
import pytest
from hypothesis import given, strategies as st

from respectra.contour import ContourSpec, SampledPV, build_contour
from respectra.errors import ContourError, ConvergenceError, EvaluationError, RespectraError
from respectra.friedrichs import (SampledEta, _newton, _newton_batch, eta, eta_boundary,
                                  eta_prime, exact_system, find_pole)
from respectra.model import eval_V, eval_Vbar, make_model, separable_test_kernel
from respectra.perturbation import BiorthogonalSystem, PlainTerm, VectorCoeffs, pair_coeffs
from respectra.states import random_analytic, real_axis_inner, real_axis_inner_H

# independent high-precision solve (40-digit arithmetic, X = 60) of the pole
# equation for the default coupling; the 20-cutoff truncation shifts the pole
# by about 2e-11, well inside the comparison tolerance
POLE_REF_EPS01 = 0.996941194255540769088 - 0.011675012185118667783j


def test_eta_free_limit(default_grid):
    m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    assert eta(m, 0.7 - 0.2j, default_grid) == (0.7 - 0.2j) - 1.0


def test_eta_boundary_value_on_axis(default_model, default_grid):
    # limit onto the real level from inside the strip: imaginary part is
    # +pi eps^2 Omega e^-Omega
    val = eta(default_model, 1.0 + 0j, default_grid)
    assert abs(val.imag - np.pi * 0.01 * np.exp(-1.0)) < 1e-12


def test_eta_is_analytic(default_model, default_grid, rng):
    # Cauchy-Riemann via central differences at random strip points
    for _ in range(4):
        lam = complex(rng.uniform(0.5, 5.0), rng.uniform(-0.3, -0.05))
        h = 1e-6
        dx = (eta(default_model, lam + h, default_grid)
              - eta(default_model, lam - h, default_grid)) / (2 * h)
        dy = (eta(default_model, lam + 1j * h, default_grid)
              - eta(default_model, lam - 1j * h, default_grid)) / (2j * h)
        assert abs(dx - dy) < 1e-8


def test_eta_near_contour_guard(default_model, default_grid):
    with pytest.raises(EvaluationError):
        eta(default_model, complex(default_grid.nodes[50]) + 1e-4j, default_grid)


def test_eta_prime_matches_difference_quotient(default_model, default_grid):
    lam = 0.9 - 0.1j
    h = 1e-6
    fd = (eta(default_model, lam + h, default_grid)
          - eta(default_model, lam - h, default_grid)) / (2 * h)
    assert abs(eta_prime(default_model, lam, default_grid) - fd) < 1e-9


def test_eta_side_jump(default_model, default_grid):
    u = complex(default_grid.nodes[default_grid.n // 3])
    ep = eta_boundary(default_model, u, +1, default_grid)
    em = eta_boundary(default_model, u, -1, default_grid)
    v2 = eval_V(default_model, u) * eval_Vbar(default_model, u)
    assert abs((ep - em) - 2j * np.pi * v2) < 1e-13


def test_kernel_rejected(default_spec):
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec,
                   kernel=separable_test_kernel())
    with pytest.raises(EvaluationError):
        eta(m, 0.9 - 0.1j)


class TestFindPole:
    def test_free_limit(self):
        m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
        pr = find_pole(m)
        assert pr.lambda_pole == 1.0 and pr.iterations == 0

    def test_regression_constant(self, default_model):
        pr = find_pole(default_model)
        assert pr.method == "fixed_point"
        assert pr.residual <= 1e-12
        assert abs(pr.lambda_pole - POLE_REF_EPS01) < 2e-9

    def test_width_grows_quadratically(self, default_spec):
        w = {}
        for eps in (0.1, 0.2):
            m = make_model("sqrt_exp", [1.0], 1.0, eps, default_spec)
            w[eps] = -2.0 * find_pole(m).lambda_pole.imag
        assert w[0.2] / w[0.1] == pytest.approx(4.0, rel=0.05)

    def test_pole_below_contour_rejected(self):
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                       ContourSpec(depth=0.005, cutoff=20.0, n_nodes=300))
        with pytest.raises(ContourError):
            find_pole(m)

    def test_unique_pole_scan_passes(self, default_model):
        find_pole(default_model, check_unique=True)

    def test_second_zero_in_the_strip_is_refused(self):
        # a strong coupling whose eta has a second zero near 0.1908 - 0.5753i,
        # below the pole 0.6285 - 0.1197i that the solve itself finds
        m = make_model("poly_exp", [1.6405057455466898], 0.6394595514379333,
                       0.7740707818134304,
                       ContourSpec(0.6603008494493032, 10.0, "rectangle", 341))
        assert find_pole(m, check_unique=False).residual <= 1e-13
        with pytest.raises(ContourError, match=r"additional zeros .* \(0\.1908\d*-0\.5753"):
            find_pole(m)

    def test_shape_insensitivity(self, default_model):
        # the semi-ellipse path is kept for sensitivity runs: same pole
        m_e = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                         ContourSpec(0.5, 20.0, "semi_ellipse", 240))
        m_r = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                         ContourSpec(0.5, 20.0, "rectangle", 240))
        gap = abs(find_pole(m_e).lambda_pole - find_pole(m_r).lambda_pole)
        assert gap < 1e-8


@given(family=st.sampled_from(["sqrt_exp", "poly_exp", "lorentz_sqrt"]),
       param=st.floats(0.2, 3.0), omega=st.floats(0.2, 5.0), eps=st.floats(0.05, 0.8),
       depth=st.floats(0.1, 1.5), shape=st.sampled_from(["rectangle", "semi_ellipse"]),
       n_nodes=st.integers(16, 400), max_iter=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_batched_polish_is_newton_per_start(family, param, omega, eps, depth, shape, n_nodes,
                                            max_iter, seed):
    # the scan's batched Newton against one scalar _newton per start: the
    # same zero bit for bit, NaN exactly where _newton raises (a start on a
    # node, an iterate near the curve, no convergence within max_iter)
    try:
        se = SampledEta(make_model(family, [param], omega, eps,
                                   ContourSpec(depth, 10.0, shape, n_nodes)))
    except RespectraError:
        return
    rng = np.random.default_rng(seed)
    starts = np.concatenate([rng.uniform(0.0, 10.0, 10) - 1j * rng.uniform(0.0, depth, 10),
                             se.grid.nodes[[0, n_nodes // 2]]])
    ref = []
    for lam0 in starts:
        try:
            ref.append(_newton(se, lam0, 1e-11, max_iter)[0])
        except (ConvergenceError, EvaluationError):
            ref.append(np.nan)
    assert np.array_equal(_newton_batch(se, starts, 1e-11, max_iter),
                          np.array(ref, dtype=complex), equal_nan=True)


@given(family=st.sampled_from(["sqrt_exp", "poly_exp", "lorentz_sqrt"]),
       param=st.floats(0.2, 3.0), omega=st.floats(0.2, 5.0),
       eps=st.floats(0.0, 0.5).filter(lambda e: e == 0.0 or e >= 1e-4),
       depth=st.floats(0.02, 2.0), shape=st.sampled_from(["rectangle", "semi_ellipse"]),
       cutoff=st.floats(5.0, 40.0), n_nodes=st.integers(16, 400))
def test_pole_in_strip_or_typed_error(family, param, omega, eps, depth, shape, cutoff,
                                      n_nodes):
    # every model either yields a pole between the curve and the positive
    # axis whose residual is |eta| there, or fails with a package error
    tol = 1e-13
    try:
        m = make_model(family, [param], omega, eps, ContourSpec(depth, cutoff, shape, n_nodes))
        grid = build_contour(m.contour)
        pr = find_pole(m, tol=tol, grid=grid)
    except RespectraError:
        return
    lam = pr.lambda_pole
    assert 0.0 < lam.real < cutoff and -depth < lam.imag <= 0.0
    assert pr.residual <= tol
    assert pr.residual == abs(eta(m, lam, grid))
    # the moments over an array of lambda are the scalar moments
    se = SampledEta(m, grid)
    lams = lam + np.array([0.0, 0.3, -0.2 + 0.1j, 1.0 - 0.05j])
    for power in (1, 2):
        ref = np.array([se.moment(x, power) for x in lams])
        assert np.all(np.abs(se.moment(lams, power) - ref) <= 1e-14 * np.abs(ref))


class TestExactSystem:
    def test_discrete_normalization(self, default_model, default_grid):
        s = BiorthogonalSystem.from_exact(default_model, default_grid)
        assert abs(pair_coeffs(s.disc_left, s.disc_right, default_grid) - 1) < 1e-8

    def test_free_limit_vectors(self, default_grid):
        m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
        sx = exact_system(m, default_grid)
        assert sx.norm == 1.0
        s = BiorthogonalSystem.from_exact(m, default_grid)
        assert s.cont_right.d[37] == 0.0 and s.cont_left.d[37] == 0.0

    def test_cross_orthogonality(self, default_model, default_grid):
        s = BiorthogonalSystem.from_exact(default_model, default_grid)
        picks = slice(5, None, default_grid.n // 10)
        worst = max(np.max(np.abs(s.cont_right.pair(s.disc_left)[picks])),
                    np.max(np.abs(s.cont_left.pair(s.disc_right)[picks])))
        assert worst < 1e-8

    def test_weak_delta(self, default_model, default_grid):
        # integrate the continuum family against a smooth weight first: the
        # superposition G = \int du' g(u') f_{u'} is a regular vector, and
        # pairing <f~_u|G> must reproduce g(u)
        s = BiorthogonalSystem.from_exact(default_model, default_grid)
        g = lambda z: np.exp(-0.6 * z) * (1.0 + 0.5 * z)
        paired = s.cont_left.pair(family_superposition(s, g))
        for i in (default_grid.n // 4, default_grid.n // 2):
            assert abs(paired[i] - g(default_grid.nodes[i])) < 1e-6


def family_superposition(system, g):
    """\\int du' g(u') f_{u'} as plain coefficients (atoms integrate to g)."""
    grid, model = system.grid, system.model
    zs, ws = grid.nodes, grid.weights
    fam = system.cont_right
    d_total = complex(np.sum(ws * g(zs) * fam.d))
    vv = lambda z: eval_V(model, z) * eval_Vbar(model, z)

    def coef(w):
        # every right member has the numerator a(u') V(z), a(u') =
        # Vbar(u')/eta(u' + i0), rebuilt from the closed form (at the nodes
        # it is the family's coef)
        pv = SampledPV(grid, np.ravel(w))
        eta_plus = pv.u - model.omega_level - pv(vv, +1)
        return (eval_Vbar(model, pv.u) / eta_plus).reshape(np.shape(w))

    def smooth(z):
        z = np.asarray(z, dtype=complex)
        zf = z.reshape(-1)
        # \\int du' g(u') a(u') / (u' + i0 - z) = -J(pole=z, side=-1)
        val = -SampledPV(grid, zf)(lambda w: g(w) * coef(w), -1)
        return (val * eval_V(model, zf) + g(zf)).reshape(z.shape)

    return VectorCoeffs(d=d_total, smooth=(PlainTerm(smooth),))


def test_completeness_and_generator(default_model, default_grid, axis_grid, rng):
    s = BiorthogonalSystem.from_exact(default_model, default_grid)
    worst_i = worst_h = 0.0
    for _ in range(5):
        psi, phi = random_analytic(rng), random_analytic(rng)
        worst_i = max(worst_i, abs(s.reconstruct_inner(psi, phi)
                                   - real_axis_inner(psi, phi, axis_grid)))
        worst_h = max(worst_h, abs(s.reconstruct_H(psi, phi)
                                   - real_axis_inner_H(default_model, psi, phi, axis_grid)))
    assert worst_i < 1e-6
    assert worst_h < 1e-6
