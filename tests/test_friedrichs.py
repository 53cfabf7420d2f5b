import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.optimize import brentq

from respectra.contour import ContourSpec, SampledPV, build_contour, real_axis_grid
from respectra.errors import BoundStateError, ContourError, EvaluationError, RespectraError
from respectra.friedrichs import (COUNT_SAMPLES, SampledEta, _count_zeros, exact_system,
                                  find_pole)
from respectra.model import (default_contour, eval_V, eval_Vbar, make_model,
                             separable_test_kernel)
from respectra.perturbation import BiorthogonalSystem, pair_coeffs
from respectra.states import AnalyticVector, random_analytic, real_axis_inner, real_axis_inner_H

# independent high-precision solve (40-digit arithmetic, X = 60) of the pole
# equation for the default coupling; the 20-cutoff truncation shifts the pole
# by about 2e-11, well inside the comparison tolerance
POLE_REF_EPS01 = 0.996941194255540769088 - 0.011675012185118667783j


def test_eta_free_limit(default_grid):
    m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    assert SampledEta(m, default_grid)(0.7 - 0.2j) == (0.7 - 0.2j) - 1.0


def test_eta_boundary_value_on_axis(default_model, default_grid):
    # limit onto the real level from inside the strip: imaginary part is
    # +pi eps^2 Omega e^-Omega
    val = SampledEta(default_model, default_grid)(1.0 + 0j)
    assert abs(val.imag - np.pi * 0.01 * np.exp(-1.0)) < 1e-12


def test_eta_is_analytic(default_model, default_grid, rng):
    # Cauchy-Riemann via central differences at random strip points
    eta = SampledEta(default_model, default_grid)
    for _ in range(4):
        lam = complex(rng.uniform(0.5, 5.0), rng.uniform(-0.3, -0.05))
        h = 1e-6
        dx = (eta(lam + h) - eta(lam - h)) / (2 * h)
        dy = (eta(lam + 1j * h) - eta(lam - 1j * h)) / (2j * h)
        assert abs(dx - dy) < 1e-8


def test_eta_near_contour_guard(default_model, default_grid):
    with pytest.raises(EvaluationError):
        SampledEta(default_model, default_grid)(complex(default_grid.nodes[50]) + 1e-4j)


def test_eta_prime_matches_difference_quotient(default_model, default_grid):
    eta = SampledEta(default_model, default_grid)
    lam = 0.9 - 0.1j
    h = 1e-6
    fd = (eta(lam + h) - eta(lam - h)) / (2 * h)
    assert abs(eta.prime(lam) - fd) < 1e-9


def test_eta_side_jump(default_model, default_grid):
    u = complex(default_grid.nodes[default_grid.n // 3])
    ep, em = (complex(b[0]) for b in
              SampledEta(default_model, default_grid).boundary(SampledPV(default_grid, u)))
    v2 = eval_V(default_model, u) * eval_Vbar(default_model, u)
    assert abs((ep - em) - 2j * np.pi * v2) < 1e-13


def test_kernel_rejected(default_spec):
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec,
                   kernel=separable_test_kernel())
    with pytest.raises(EvaluationError):
        SampledEta(m)(0.9 - 0.1j)


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
        assert find_pole(default_model).zero_count == 1

    def test_second_zero_in_the_strip_is_refused(self):
        # a strong coupling whose eta has a second zero near 0.1908 - 0.5753i,
        # below the pole 0.6285 - 0.1197i that the solve itself finds: the
        # count runs only once the solve has converged to tol (an unconverged
        # solve is a ConvergenceError first), so the refusal shows both
        m = make_model("poly_exp", [1.6405057455466898], 0.6394595514379333,
                       0.7740707818134304,
                       ContourSpec(0.6603008494493032, 10.0, "rectangle", 341))
        with pytest.raises(ContourError, match=r"eta has 2 zeros in the strip"):
            find_pole(m)

    @pytest.mark.parametrize("n_nodes", [400, 800])
    @pytest.mark.parametrize("eps,count", [(0.45, 1), (0.52, 2), (0.54, 2)])
    def test_zero_count_on_a_deep_rectangle(self, n_nodes, eps, count):
        # at eps = 0.52 and 0.54 a second zero of eta sits in the strip, near
        # 0.046 - 0.712i and 0.091 - 0.628i, which a scan of the strip missed
        m = make_model("sqrt_exp", [1.0], 1.0, eps, ContourSpec(1.0, 20.0, "rectangle", n_nodes))
        if count == 1:
            assert find_pole(m).zero_count == 1
        else:
            with pytest.raises(ContourError, match=f"eta has {count} zeros in the strip"):
                find_pole(m)

    def test_unresolved_curve_step_is_refused(self):
        # one zero in the strip, but |eta(u + i0)| dips to 0.02 on the
        # vertical leg, where the sampled phase jumps by ~1.9-2.2 rad.  At
        # n = 800 every node sampled turns by at most 1.18 rad and counts 1,
        # yet the exact system is not complete (off by ~0.1): refining the
        # step would accept a wrong system
        for n_nodes, turn, node in ((400, r"-1\.9\d*", 40), (800, r"-2\.15\d*", 80)):
            m = make_model("sqrt_exp", [1.0], 1.0, 0.5,
                           ContourSpec(1.0, 20.0, "rectangle", n_nodes))
            with pytest.raises(ContourError, match=rf"turns by {turn} rad .* node {node} "):
                find_pole(m)

    def test_newton_fallback(self, rng):
        # a strong coupling whose fixed-point iteration stops contracting, so
        # Newton on eta finds the pole; a deeper, finer rectangle gives the
        # same pole, and the exact system built on it is complete
        m = make_model("poly_exp", [1.0], 0.7, 0.9, ContourSpec(0.6, 20.0, "rectangle", 320))
        pr = find_pole(m)
        assert (pr.method, pr.iterations, pr.zero_count) == ("newton", 16, 1)
        assert pr.residual <= 1e-13
        deeper = make_model("poly_exp", [1.0], 0.7, 0.9,
                            ContourSpec(0.7, 20.0, "rectangle", 400))
        assert abs(find_pole(deeper).lambda_pole - pr.lambda_pole) < 1e-13
        s = BiorthogonalSystem.from_exact(m)
        axis = real_axis_grid(20.0, 400)
        for _ in range(3):
            psi, phi = random_analytic(rng), random_analytic(rng)
            assert abs(s.reconstruct_inner(psi, phi) - real_axis_inner(psi, phi, axis)) < 1e-10

    def test_shape_insensitivity(self, default_model):
        # the semi-ellipse path is kept for sensitivity runs: same pole
        m_e = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                         ContourSpec(0.5, 20.0, "semi_ellipse", 240))
        m_r = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                         ContourSpec(0.5, 20.0, "rectangle", 240))
        gap = abs(find_pole(m_e).lambda_pole - find_pole(m_r).lambda_pole)
        assert gap < 1e-8


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
    assert pr.residual == abs(SampledEta(m, grid)(lam))


def test_node_sweep_holds_no_table_per_node_pair():
    # the node sweep with three targets holds no (N, N) table: at n = 1600
    # that is 41 MB, the bound 4 MB
    grid = build_contour(ContourSpec(0.5, 20.0, "rectangle", 1600))
    h = lambda z: np.sqrt(z + 0j) * np.exp(-0.5 * z)
    F = lambda z: np.stack([np.exp(-a * z) for a in (0.3, 0.8, 1.5)], axis=-2)
    tracemalloc.start()
    try:
        SampledPV(grid)(h, np.array([+1, -1, +1]), F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _traced_count(eta: SampledEta) -> tuple[int, float]:
    """The zero count of ``_count_zeros`` on the strided curve samples, its
    loop closed by tracing eta on the return path X -> X + ih -> ih -> 0, h
    the contour depth: 78 points, bisected until no phase step exceeds pi/4,
    at most 4096 of them.  (count, min_boundary), or the ContourError of the
    count."""
    X, h, k = eta.model.contour.cutoff, eta.model.contour.depth, -(-eta.grid.n // COUNT_SAMPLES)
    u = eta.grid.nodes[::k]
    plus = eta.boundary(SampledPV(eta.grid, slice(None, None, k)))[0]
    at = lambda lams: np.array([lam - eta.omega - eta.moment(lam) for lam in lams])
    back = np.concatenate([X + 1j * h * np.linspace(0.0, 1.0, 8), np.linspace(X, 0.0, 64)[1:-1]
                           + 1j * h, 1j * h * np.linspace(1.0, 0.0, 8)])
    vals = at(back)
    while (bad := np.flatnonzero(np.abs(np.angle(vals[1:] / vals[:-1])) > np.pi / 4)).size:
        if back.size > 4096:
            raise ContourError("the phase of eta on the return path above the axis does not "
                               "resolve; the zeros in the strip cannot be counted")
        mid = 0.5 * (back[bad] + back[bad + 1])
        back = np.insert(back, bad + 1, mid)
        vals = np.insert(vals, bad + 1, at(mid))
    curve = np.concatenate([vals[-1:], plus, vals[:1]])
    steps = np.angle(curve[1:] / curve[:-1])
    count = int(round((steps.sum() + np.angle(vals[1:] / vals[:-1]).sum()) / (2 * np.pi)))
    if count != 1:
        raise ContourError(f"eta has {count} zeros in the strip, not 1; the single-pole "
                           "assumption fails for this model")
    j = int(np.argmax(np.abs(steps)))
    if abs(steps[j]) > np.pi / 2:
        where = "0" if j == 0 else f"node {(j - 1) * k} (u={complex(u[j - 1]):.5g})"
        raise ContourError(f"eta(u + i0) turns by {steps[j]:.3f} rad in one step from {where} "
                           "along the curve; its samples cannot fix the zero count")
    return count, float(np.min(np.abs(plus)))


@given(family=st.sampled_from(["sqrt_exp", "poly_exp", "lorentz_sqrt"]),
       param=st.floats(0.2, 3.0), omega=st.floats(0.2, 5.0), eps=st.floats(0.01, 0.8),
       depth=st.floats(0.05, 2.5), shape=st.sampled_from(["rectangle", "semi_ellipse"]),
       cutoff=st.floats(5.0, 30.0), n_nodes=st.integers(16, 899))
def test_zero_count_closes_its_loop_from_two_corners(family, param, omega, eps, depth, shape,
                                                     cutoff, n_nodes):
    # eta has no zero above the axis, so its phases at 0 and X close the loop
    # as tracing the return path does: the same count and min_boundary, or
    # the same refusal, with no pole solve; and eta is taken off the curve at
    # those two points alone
    try:
        m = make_model(family, [param], omega, eps, ContourSpec(depth, cutoff, shape, n_nodes))
        eta = SampledEta(m)
    except RespectraError:
        return      # a form-factor singularity inside the contour depth, or X <= Omega
    try:
        want = _traced_count(eta)
    except ContourError as e:
        with pytest.raises(ContourError) as info:
            _count_zeros(eta)
        assert str(info.value) == str(e)
        return
    off_curve = []
    eta.moment = lambda lam, power=1: off_curve.append(lam) or SampledEta.moment(eta, lam, power)
    assert _count_zeros(eta) == want
    assert off_curve == [0.0, cutoff]


@given(family=st.sampled_from(["sqrt_exp", "poly_exp", "lorentz_sqrt"]),
       param=st.floats(0.8, 1.25), s=st.floats(1.5, 3.0), omega=st.floats(0.8, 1.5),
       eps=st.floats(0.05, 0.12), shape=st.sampled_from(["rectangle", "semi_ellipse"]),
       n_nodes=st.sampled_from([200, 800]))
def test_one_zero_over_the_benchmark_ranges(family, param, s, omega, eps, shape, n_nodes):
    # the argument principle finds exactly the pole, on the first solve, whose
    # curve samples are nodes addressed by index (the same as those nodes
    # given as points), and on the exact system's, which counts on its own
    # boundary sweep
    m = make_model(family, [s if family == "lorentz_sqrt" else param], omega, eps,
                   default_contour(omega, n_nodes, shape=shape))
    grid = build_contour(m.contour)
    pr = find_pole(m, grid=grid)
    eta = SampledEta(m, grid)
    k = -(-n_nodes // COUNT_SAMPLES)
    plus = eta.boundary(SampledPV(grid, grid.nodes[::k]))[0]
    assert pr.zero_count == 1 and pr.min_boundary == float(np.min(np.abs(plus)))
    strided, swept = _count_zeros(eta), _count_zeros(eta, eta.boundary()[0])
    assert strided[0] == swept[0] == 1
    assert swept[1] == pytest.approx(strided[1], rel=1e-14)
    again = exact_system(m, grid).pole
    assert again.lambda_pole == pr.lambda_pole and again.zero_count == 1
    assert again.min_boundary == pytest.approx(pr.min_boundary, rel=1e-12)


@given(family=st.sampled_from(["sqrt_exp", "poly_exp", "lorentz_sqrt"]),
       param=st.floats(0.8, 1.25), s=st.floats(1.5, 3.0), omega=st.floats(0.5, 2.0),
       eps=st.floats(0.05, 0.9), depth=st.floats(0.3, 0.8),
       shape=st.sampled_from(["rectangle", "semi_ellipse"]), n_nodes=st.integers(100, 400))
# the Newton fallback of TestFindPole
@example(family="poly_exp", param=1.0, s=2.0, omega=0.7, eps=0.9, depth=0.6,
         shape="rectangle", n_nodes=320)
def test_exact_system_solves_the_pole_find_pole_solves(family, param, s, omega, eps, depth,
                                                       shape, n_nodes):
    # the exact system's own solve, on its boundary sweep, is find_pole's on
    # the same grid; where find_pole refuses, so does the exact system
    m = make_model(family, [s if family == "lorentz_sqrt" else param], omega, eps,
                   ContourSpec(depth, max(20.0, 10.0 * omega), shape, n_nodes))
    grid = build_contour(m.contour)
    try:
        want = find_pole(m, grid=grid)
    except RespectraError as e:
        with pytest.raises(type(e)):
            BiorthogonalSystem.from_exact(m, grid)
        return
    got = BiorthogonalSystem.from_exact(m, grid).pole_result
    assert got.lambda_pole == want.lambda_pole and got.residual == want.residual
    assert (got.iterations, got.method, got.zero_count) == (
        want.iterations, want.method, want.zero_count)


def test_perturbative_system_has_no_pole_result(default_model, default_grid):
    assert BiorthogonalSystem.from_perturbation(default_model, 2, default_grid).pole_result is None


def test_bound_level_is_refused_with_its_energy():
    # sqrt_exp at Omega = 0.1, eps = 0.5: \int V Vbar / x = 0.25 > Omega binds
    # the level at -0.09972; the exact system refuses it as find_pole does
    m = make_model("sqrt_exp", [1.0], 0.1, 0.5)
    with pytest.raises(BoundStateError, match="real zero at lambda = -0.0997") as info:
        find_pole(m)
    assert info.value.energy == pytest.approx(-0.09972, abs=1e-5)
    with pytest.raises(BoundStateError):
        exact_system(m)


def test_bound_state_energy_is_brentq_root():
    # sqrt_exp (a = 1) at Omega = 1, eps = 1.1: \int V Vbar / x = 1.21 > Omega
    # binds the level; its energy is brentq's root of Re eta below 0
    m = make_model("sqrt_exp", [1.0], 1.0, 1.1)
    with pytest.raises(BoundStateError) as info:
        find_pole(m)
    eta = SampledEta(m)
    root = brentq(lambda lam: (lam - eta.omega - eta.moment(lam)).real, -8.0, 0.0,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert abs(info.value.energy - root) <= 1e-14


def test_unresolved_eta_quadrature_is_refused_by_name():
    # lorentz_sqrt (s = 2.334) on a rectangle of depth 2.323, just above the
    # form factor's pole: the quadrature of \int V Vbar / z, which is real,
    # reads 1.09 + 5.41i, whose real part alone would bind the level at a
    # made-up energy of -2.29.  Both solves refuse it, naming both depths
    m = make_model("lorentz_sqrt", [2.334], 0.762, 0.77,
                   ContourSpec(2.323, 20.0, "rectangle", 319))
    for solve in (find_pole, exact_system):
        with pytest.raises(ContourError, match=r"unresolved.*reads 1\.08596\+5\.40681j.*"
                                               r"depth 2\.323, .* pole depth being 2\.334"):
            solve(m)


@given(family=st.sampled_from(["sqrt_exp", "poly_exp", "lorentz_sqrt"]),
       param=st.floats(0.3, 3.0), omega=st.floats(0.02, 2.0), eps=st.floats(0.1, 1.5),
       depth=st.floats(0.05, 2.5), shape=st.sampled_from(["rectangle", "semi_ellipse"]),
       n_nodes=st.integers(100, 800))
def test_bound_state_refused_iff_eta_is_positive_below_threshold(family, param, omega, eps,
                                                                 depth, shape, n_nodes):
    # eta(0-) = Re sum_j w_j V Vbar(z_j) / z_j - Omega > 0 binds the level:
    # exactly then the pole solve refuses with a BoundStateError, whose energy
    # zeroes eta.  Below the threshold eta is real; the imaginary part of its
    # quadrature there is the quadrature's error, which the real solve ignores
    try:
        m = make_model(family, [param], omega, eps, ContourSpec(depth, 20.0, shape, n_nodes))
        eta = SampledEta(m)
    except RespectraError:
        return      # a form-factor singularity inside the contour depth
    moment = complex(np.sum(eta.wvv / eta.grid.nodes))
    if abs(moment.imag) > 1e-6 * abs(moment):
        # the quadrature does not resolve eta, and the test cannot be read
        with pytest.raises(ContourError, match="unresolved"):
            find_pole(m, grid=eta.grid)
        return
    binding = moment.real
    assume(abs(binding - omega) > 1e-9 * omega)
    try:
        find_pole(m, grid=eta.grid)
    except BoundStateError as e:
        assert binding > omega
        assert e.energy < 0.0
        assert abs((e.energy - omega - eta.moment(e.energy)).real) <= 1e-12
        return
    except RespectraError:
        pass
    assert binding < omega


class TestExactSystem:
    def test_discrete_normalization(self, default_model, default_grid):
        s = BiorthogonalSystem.from_exact(default_model, default_grid)
        assert abs(pair_coeffs(s.disc_left, s.disc_right, default_grid) - 1) < 1e-8

    def test_one_node_sweep(self, default_model, monkeypatch):
        # the pole's zero count reads the exact system's boundary sweep, on
        # the principal value both families then pair through; a bound level
        # is refused before any sweep
        grid = build_contour(ContourSpec(0.5, 20.0, "rectangle", 800))
        sweeps = []
        total = SampledPV.sum
        monkeypatch.setattr(SampledPV, "sum",
                            lambda pv, *a, **kw: sweeps.append(pv) or total(pv, *a, **kw))
        s = BiorthogonalSystem.from_exact(default_model, grid)
        assert [len(pv.u) for pv in sweeps] == [800]
        assert s.cont_right.pv is s.cont_left.pv is sweeps[0]
        sweeps.clear()
        bound = make_model("sqrt_exp", [1.0], 0.1, 0.5, ContourSpec(0.5, 20.0, "rectangle", 800))
        with pytest.raises(BoundStateError, match="real zero at lambda = -0.0997") as info:
            BiorthogonalSystem.from_exact(bound, grid)
        assert info.value.energy == pytest.approx(-0.09972, abs=1e-5)
        assert sweeps == []

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
    """\\int du' g(u') f_{u'} as a vector (atoms integrate to g)."""
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

    def profile(z):
        z = np.asarray(z, dtype=complex)
        zf = z.reshape(-1)
        # \\int du' g(u') a(u') / (u' + i0 - z) = -J(pole=z, side=-1)
        val = -SampledPV(grid, zf)(lambda w: g(w) * coef(w), -1)
        return (val * eval_V(model, zf) + g(zf)).reshape(z.shape)

    return AnalyticVector(d_total, profile)


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
