import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import example, given, strategies as st

from respectra.contour import (ASYMPTOTIC_NODES, MIN_NODES, PV_TILE, ContourSpec, SampledPV,
                               _gauss, _stride, build_contour, integrate_contour, phase_sum,
                               plemelj_integral, pole_kernel_integral, real_axis_grid)
from respectra.errors import ContourError, EvaluationError
from respectra.liouville import LiouvilleSystem
from respectra.model import make_form_factor, make_model
from respectra.oracle import secular_system


def test_spec_validation():
    # a depth or cutoff that is not positive and finite is refused by its value
    for name, value in (("depth", -0.1), ("depth", math.inf), ("cutoff", 0.0),
                        ("cutoff", math.inf), ("cutoff", -math.inf)):
        with pytest.raises(ContourError, match=f"{name} must be positive and finite, got {value}"):
            ContourSpec(**{name: value})
    with pytest.raises(ContourError):
        ContourSpec(shape="circle")
    with pytest.raises(ContourError):
        ContourSpec(n_nodes=8)


@pytest.mark.parametrize("cutoff, n, message", [
    (0.0, 400, "cutoff must be positive and finite, got 0.0"),
    (-3.0, 400, "cutoff must be positive and finite, got -3.0"),
    (math.nan, 400, "cutoff must be positive and finite, got nan"),
    (math.inf, 400, "cutoff must be positive and finite, got inf"),
    (-math.inf, 400, "cutoff must be positive and finite, got -inf"),
    (20.0, 8, f"n_nodes must be at least {MIN_NODES}, got 8")])
def test_real_axis_grid_refuses_by_the_names_it_was_given(cutoff, n, message):
    with pytest.raises(ContourError, match=re.escape(message)):
        real_axis_grid(cutoff, n)


@pytest.mark.parametrize("shape", ["rectangle", "semi_ellipse", "real_axis"])
@given(depth=st.floats(0.05, 2.0), cutoff=st.floats(2.0, 60.0),
       n=st.integers(MIN_NODES, 1600))
@example(depth=0.5, cutoff=20.0, n=200)
def test_path_integrals(shape, depth, cutoff, n):
    # every path from 0 to X integrates 1 and z exactly; 5e-12 relative is
    # 1e-10 and 1e-9 absolute at X = 20.  The one-panel semi-ellipse needs
    # 32 nodes: at 16 its first moment is off by 1.5e-9
    if shape == "semi_ellipse":
        n = max(n, 32)
    grid = (real_axis_grid(cutoff, n) if shape == "real_axis" else
            build_contour(ContourSpec(depth=depth, cutoff=cutoff, shape=shape, n_nodes=n)))
    assert grid.n == n
    assert abs(np.sum(grid.weights) - cutoff) <= 5e-12 * cutoff
    assert abs(np.sum(grid.weights * grid.nodes) - cutoff**2 / 2) <= 5e-12 * cutoff**2 / 2


@pytest.mark.parametrize("shape", ["rectangle", "semi_ellipse"])
def test_repeated_builds_are_bit_identical(shape):
    # the Gauss-Legendre rules are computed once per size and shared
    spec = ContourSpec(depth=0.5, cutoff=20.0, shape=shape, n_nodes=200)
    a, b = build_contour(spec), build_contour(spec)
    for x, y in ((a.nodes, b.nodes), (a.weights, b.weights), (a.tangents, b.tangents)):
        assert x.tobytes() == y.tobytes()
    r1, r2 = real_axis_grid(20.0, 400), real_axis_grid(20.0, 400)
    assert r1.nodes.tobytes() == r2.nodes.tobytes()
    assert r1.weights.tobytes() == r2.weights.tobytes()


def test_cached_rules_are_read_only():
    x, w = _gauss(24)
    assert _gauss(24)[0] is x
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _reference_rule(n, x0):
    """The node of the n-point Gauss-Legendre rule on [-1, 1] next to x0, by two
    Newton steps at 40 digits from a start good to 1e-15, and its weight
    2 (1 - x^2) / (n P_(n-1)(x))^2, with P_n and P_(n-1) from the three-term
    recurrence."""
    with mpmath.workdps(40):
        def legendre(x):
            p0, p1 = mpmath.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            return p0, p1
        x = mpmath.mpf(x0)
        for _ in range(2):
            p0, p1 = legendre(x)
            x -= p1 * (1 - x * x) / (n * (p0 - x * p1))
        return x, 2 * (1 - x * x) / (n * legendre(x)[0]) ** 2


@pytest.mark.parametrize("n", [2, 3, 16, 17, 99, 100, 101, 608, 2432, 10_000])
def test_gauss_rule_matches_a_40_digit_reference(n):
    # at the outer three nodes and the middle one (the rule is mirror
    # symmetric): nodes within 4e-16 on [-1, 1], weights within 2e-15
    # relative, and nodes below 1/2 within 4 eps relative on [0, 1]
    s, w = _gauss(n)
    for k in sorted({0, 1, 2, (n - 1) // 2} & set(range(n))):
        x, weight = _reference_rule(n, 2 * s[k] - 1)
        assert abs(2 * s[k] - 1 - x) <= 4e-16, k
        assert abs(2 * w[k] - weight) <= 2e-15 * weight, k
        assert abs(s[k] - (1 + x) / 2) <= 4 * np.finfo(float).eps * s[k], k


def test_gauss_rule_is_mirror_symmetric_and_exact():
    # on both sides of ASYMPTOTIC_NODES: the nodes above 1/2 are 1 minus those
    # below, the weights a palindrome, and the moments of s^k, k < 24, exact
    for n in range(1, 2 * ASYMPTOTIC_NODES):
        s, w = _gauss.__wrapped__(n)
        h = n // 2
        assert np.array_equal(s[n - h:], 1.0 - s[:h][::-1]) and np.array_equal(w, w[::-1])
        k = np.arange(min(2 * n, 24))
        assert np.max(np.abs(w @ s[:, None] ** k * (k + 1) - 1.0)) <= 2e-15, n


def test_gauss_rule_is_linear_time():
    # 10^4 nodes in under 10 ms; a rule of O(n^2) work takes about a second
    spent = []
    for _ in range(5):
        t0 = time.perf_counter()
        _gauss.__wrapped__(10_000)
        spent.append(time.perf_counter() - t0)
    assert min(spent) < 0.010


def test_conjugate_grid(default_grid):
    up = default_grid.conjugated()
    assert np.allclose(up.nodes, np.conj(default_grid.nodes))
    assert np.allclose(up.weights, np.conj(default_grid.weights))


def test_exponential_integral():
    grid = build_contour(ContourSpec(depth=0.5, cutoff=40.0, n_nodes=300))
    got = integrate_contour(grid, lambda z: np.exp(-z))
    assert abs(got - 1.0) < 1e-10


def test_non_finite_integrand(default_grid):
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError):
            integrate_contour(default_grid,
                              lambda z: 1.0 / (z - default_grid.nodes[3]))


def test_deformation_identity(default_grid, axis_grid, rng):
    # products of registry form factors and polynomials agree with the
    # undeformed quadrature to 1e-8 at 200 nodes
    families = [make_form_factor("sqrt_exp", [1.0]),
                make_form_factor("poly_exp", [1.0]),
                make_form_factor("lorentz_sqrt", [3.0])]
    worst = 0.0
    for k in range(20):
        ff = families[k % 3]
        c = rng.standard_normal(3)
        f = lambda z, c=c, ff=ff: ff.fn(z) * (c[0] + c[1] * z + c[2] * z**2) * np.exp(-0.3 * z)
        lhs = integrate_contour(default_grid, f)
        rhs = np.sum(axis_grid.weights.real * f(axis_grid.nodes.real))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_node_doubling_improves():
    f = lambda z: np.exp(-z) / (1.5 - z)
    ref = integrate_contour(build_contour(ContourSpec(0.5, 20.0, "rectangle", 1200)), f)
    e1 = abs(integrate_contour(build_contour(ContourSpec(0.5, 20.0, "rectangle", 48)), f) - ref)
    e2 = abs(integrate_contour(build_contour(ContourSpec(0.5, 20.0, "rectangle", 96)), f) - ref)
    assert e1 / max(e2, 1e-300) >= 4.0


def _pv_excision_oracle(f, x0, cutoff, delta=1e-3):
    """Symmetric excision with Richardson extrapolation of the O(delta) term."""
    def ex(d):
        a, _ = si.quad(f, 0.0, x0 - d, limit=400)
        b, _ = si.quad(f, x0 + d, cutoff, limit=400)
        return a + b
    f_over = lambda w: f(w) / (w - x0)
    def ex2(d):
        a, _ = si.quad(f_over, 0.0, x0 - d, limit=400)
        b, _ = si.quad(f_over, x0 + d, cutoff, limit=400)
        return a + b
    return 2.0 * ex2(delta / 2) - ex2(delta)


class TestPlemelj:
    def test_no_pole_contribution(self, axis_grid):
        # f(x0) = 0 kills the delta part: purely real result for real f
        x0 = 1.3
        f = lambda w: (w - x0) ** 2 * np.exp(-w)
        val = plemelj_integral(f, x0, +1, grid=axis_grid)
        direct, _ = si.quad(lambda w: f(w) / (x0 - w), 0, 20.0, limit=400)
        assert abs(val.imag) < 1e-12
        assert abs(val.real - direct) < 1e-9

    def test_against_excision_oracle(self):
        f = lambda w: np.exp(-w)
        val = plemelj_integral(f, 1.0, +1, grid=real_axis_grid(40.0, 500))
        pv = _pv_excision_oracle(f, 1.0, 40.0)
        expect = -1j * np.pi * np.exp(-1.0) - pv
        assert abs(val - expect) < 1e-9

    def test_side_conjugation(self, axis_grid):
        f = lambda w: np.exp(-0.5 * w) * (1 + w)
        a = plemelj_integral(f, 2.0, +1, grid=axis_grid)
        b = plemelj_integral(f, 2.0, -1, grid=axis_grid)
        assert abs(np.conj(a) - b) < 1e-12

    def test_bad_side_and_range(self, axis_grid):
        # one side convention, +1 or -1, as pole_kernel_integral takes it
        for side in ("up", "+i0", 0, 2):
            with pytest.raises(ValueError, match="side must be"):
                plemelj_integral(np.exp, 1.0, side, grid=axis_grid)
        with pytest.raises(EvaluationError):
            plemelj_integral(np.exp, 25.0, +1, grid=axis_grid)

    def test_contour_consistency(self, default_grid, axis_grid):
        # the deformed integral of f/(x0 - z) equals the +i0 boundary value
        f = lambda z: np.exp(-0.8 * z) * (2.0 + z)
        for x0 in (0.7, 1.0, 3.5):
            lhs = integrate_contour(default_grid, lambda z: f(z) / (x0 - z))
            rhs = plemelj_integral(f, x0, +1, grid=axis_grid)
            assert abs(lhs - rhs) < 1e-8


class TestCurvePV:
    def test_prescriptions_differ_by_residue(self, default_grid):
        h = lambda z: np.exp(-z) * z
        u = complex(default_grid.nodes[default_grid.n // 2])
        jp = pole_kernel_integral(default_grid, h, u, +1)
        jm = pole_kernel_integral(default_grid, h, u, -1)
        assert abs((jm - jp) - 2j * np.pi * h(u)) < 1e-12

    def test_matches_displaced_quadrature(self):
        # off-node pole slightly inside the strip: plain quadrature converges
        # to the +i0 value as the displacement shrinks
        grid = build_contour(ContourSpec(0.5, 20.0, "rectangle", 600))
        h = lambda z: np.exp(-z)
        u = complex(grid.nodes[grid.n // 2])
        target = pole_kernel_integral(grid, h, u, +1)
        fine = build_contour(ContourSpec(0.5, 20.0, "rectangle", 4000))
        for d, tol in ((0.05, 2e-2), (0.02, 5e-3)):
            lam = u + 1j * d
            disp = integrate_contour(fine, lambda z: h(z) / (lam - z))
            assert abs(disp - target) < tol

    def test_endpoint_rejected(self, default_grid):
        with pytest.raises(EvaluationError):
            pole_kernel_integral(default_grid, np.exp, 0.0 + 0j, +1)
        with pytest.raises(EvaluationError):
            SampledPV(default_grid, [1.0 - 0.5j, 20.0])

    @pytest.mark.parametrize("shape", ["rectangle", "semi_ellipse"])
    @pytest.mark.parametrize("side", [+1, -1])
    @pytest.mark.parametrize("h, dh", [
        # entire, the eta integrand V Vbar of the default coupling
        (lambda z: 0.01 * z * np.exp(-z), lambda z: 0.01 * (1 - z) * np.exp(-z)),
        # branch point at the origin, as the sqrt_exp form factor
        (lambda z: np.sqrt(z) * np.exp(-0.7 * z) * (1 + z),
         lambda z: np.exp(-0.7 * z) * ((1 + z) / (2 * np.sqrt(z))
                                       + np.sqrt(z) * (1 - 0.7 * (1 + z))))],
        ids=["entire", "sqrt"])
    def test_sampled_matches_analytic_derivative(self, shape, side, h, dh):
        # the sampled operator at every node against a node-by-node loop
        # whose removable diagonal is the analytic -h'(u), and, with two
        # targets, against the same nodes given as points, which skip the
        # antisymmetric tiles; a sweep repeats bit for bit.  The sizes are
        # below one tile, one tile, one tile and a node, and several tiles
        # and a rest
        F = lambda z: np.stack([np.ones_like(z), np.exp(-0.3 * z)], axis=-2)
        for n in (16, PV_TILE, PV_TILE + 1, 800):
            grid = build_contour(ContourSpec(0.5, 20.0, shape, n))
            z, w, X = grid.nodes, grid.weights, grid.cutoff
            ref = np.empty(grid.n, dtype=complex)
            for i, u in enumerate(z):
                off = np.arange(grid.n) != i
                q = np.empty(grid.n, dtype=complex)
                q[off] = (h(z[off]) - h(u)) / (u - z[off])
                q[i] = -dh(u)
                ref[i] = np.sum(w * q) + h(u) * (np.log(u) - np.log(X - u)) \
                    - side * 1j * np.pi * h(u)
            got = SampledPV(grid)(h, side)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12
            tiled = SampledPV(grid)(h, side, F)
            assert SampledPV(grid)(h, side, F).tobytes() == tiled.tobytes()
            points = SampledPV(grid, grid.nodes.copy())(h, side, F)
            assert np.max(np.abs(tiled - points)) <= 1e-14 * np.max(np.abs(points))

    def test_sampled_rows_targets_and_off_node_points(self, default_grid):
        # a shared integrand alone (h), with a target axis (h F_p) of one
        # side and of one side per target, at nodes and at points between
        # nodes of the bottom segment, against the scalar reference
        grid = default_grid
        mid = 0.5 * (grid.nodes[60:140:20] + grid.nodes[61:141:20])
        u = np.concatenate([grid.nodes[::25], mid])
        a = np.array([0.3, 0.8, 1.5])
        h = lambda z: np.sqrt(z + 0j) * np.exp(-0.6 * z)
        F = lambda z, ap: np.exp(-ap * z) * (1 + z)
        Fp = lambda z: F(z[:, None, :], a[:, None])
        pv = SampledPV(grid, u)
        got = pv(h, +1)
        got_f = pv(h, -1, F=Fp)
        sides = np.array([+1, -1, +1])
        got_s = pv(h, sides, F=Fp)
        for i, ui in enumerate(u):
            ref = pole_kernel_integral(grid, h, ui, +1)
            assert abs(got[i] - ref) <= 1e-13 * abs(ref)
            for p, ap in enumerate(a):
                for res, side in ((got_f, -1), (got_s, sides[p])):
                    ref = pole_kernel_integral(grid, lambda z: h(z) * F(z, ap), ui, side)
                    assert abs(res[i, p] - ref) <= 1e-13 * abs(ref)

    def test_per_point_integrand_refused(self, default_grid):
        # an integrand of one row per point, h or F, is refused rather than
        # read as if it were shared
        pv = SampledPV(default_grid, default_grid.nodes[::25])
        c = np.linspace(0.4, 1.2, len(pv.u))[:, None]
        with pytest.raises(EvaluationError, match="one row shared"):
            pv(lambda z: np.exp(-c * z), +1)
        with pytest.raises(EvaluationError, match="one row shared"):
            pv(np.ones_like, +1, F=lambda z: np.exp(-c[:, None] * z[:, None, :]))

    @pytest.mark.parametrize("n", [44, 257])
    def test_pointwise_rounds_each_point_alike_in_any_block(self, n):
        # a point swept alone gives its row of the whole-grid sweep bit for
        # bit; at n = 257 the blocks hold 127, 127 and 3 points
        grid = build_contour(ContourSpec(0.5, 20.0, "rectangle", n))
        h = lambda z: np.sqrt(z + 0j) * np.exp(-0.5 * z)
        rows = (lambda z: np.exp(-z), h)
        F = lambda z: np.stack([row(z) for row in rows], axis=-2)
        sides = np.array([+1, -1])
        pointwise = lambda pv: pv.sum(*_sampled(pv, h, rows), sides, pointwise=True)
        full = pointwise(SampledPV(grid))
        for i in range(n):
            assert np.array_equal(pointwise(SampledPV(grid, grid.nodes[i])), full[i:i + 1])
        # the same values as the block product, to rounding
        ref = SampledPV(grid)(h, sides, F)
        assert np.max(np.abs(full - ref)) <= 1e-14 * np.max(np.abs(ref))


def _sampled(pv: SampledPV, h, rows) -> tuple:
    """h F_p for each function F_p of ``rows``, sampled by ``pv.sample`` as
    ``SampledPV.sum`` takes it: w h F_p at the nodes and h F_p at the points
    and their stencils."""
    hn, hp = pv.sample(h)
    Fn, Fp = zip(*(pv.sample(row) for row in rows))
    return pv.grid.weights * hn * np.stack(Fn), hp[:, None, :] * np.stack(Fp, axis=-2)


@given(n=st.integers(MIN_NODES, 300), points=st.sampled_from(["every", "slice", "one"]),
       start=st.integers(0, 299), step=st.integers(1, 40), side=st.sampled_from([+1, -1]),
       targets=st.booleans())
def test_summed_samples_are_the_function_sweep(n, points, start, step, side, targets):
    # the one summation fed with samples taken by SampledPV.sample gives
    # __call__ on the same functions bit for bit, and so does its pointwise
    # sum the pointwise sum of the samples __call__ takes, at every
    # node (whose node rows are the stencils' first column, copied
    # contiguous), at a slice of the nodes and at one node, with and without
    # a target axis
    grid = build_contour(ContourSpec(0.5, 20.0, "rectangle", n))
    pv = {"every": SampledPV(grid), "slice": SampledPV(grid, slice(start % n, None, step)),
          "one": SampledPV(grid, grid.nodes[start % n])}[points]
    h = lambda z: np.sqrt(z + 0j) * np.exp(-0.5 * z)
    hn, hp = pv.sample(h)
    assert hn.shape == (n,) and hn.flags.c_contiguous and hp.shape == (len(pv.u), 5)
    if not targets:
        got = pv.sum((grid.weights * hn)[None], hp[:, None, :], side)[:, 0]
        assert got.tobytes() == pv(h, side).tobytes()
        return
    rows = (lambda z: np.exp(-z), h)
    F = lambda z: np.stack([row(z) for row in rows], axis=-2)
    samples = _sampled(pv, h, rows)
    assert pv.sum(*samples, side).tobytes() == pv(h, side, F).tobytes()
    assert (pv.sum(*samples, side, pointwise=True).tobytes()
            == pv.sum(*pv._integrand(h, F), side, pointwise=True).tobytes())


def test_concurrent_sweeps_keep_their_own_blocks():
    # each thread forms its Cauchy tiles in a block buffer of its own: two
    # threads sweeping at once get the single-thread results bit for bit
    grid = build_contour(ContourSpec(0.5, 20.0, "rectangle", 600))
    fs = [lambda z, a=a: np.exp(-a * z) * (1 + z) for a in (0.3, 0.9)]
    ref = [SampledPV(grid)(f, +1) for f in fs]
    with ThreadPoolExecutor(2) as pool:
        for _ in range(5):
            got = pool.map(lambda f: SampledPV(grid)(f, +1), fs)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_real_axis_grid_handles_quarter_powers():
    # the quartic map at the origin makes w**(1/4) integrands spectral; compare
    # against adaptive quadrature on the same truncated window
    grid = real_axis_grid(20.0, 400)
    got = np.sum(grid.weights.real * grid.nodes.real**0.25 * np.exp(-grid.nodes.real))
    ref, _ = si.quad(lambda w: w**0.25 * np.exp(-w), 0.0, 20.0, limit=200)
    assert abs(got - ref) < 1e-10


@cache
def _spectrum(kind: str) -> np.ndarray:
    """Points z of the sums the package takes: contour nodes, real oracle
    eigenvalues, and the Liouville branch eigenvalues with their sign flipped
    (the branch factors are exp(+i lambda t))."""
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, ContourSpec(n_nodes=200))
    if kind == "nodes":
        return build_contour(m.contour).nodes
    if kind == "eigenvalues":
        return secular_system(m, 300).eigenvalues.astype(complex)
    lsys = LiouvilleSystem(m)
    return -np.concatenate([lsys.lam_u1(lsys.grids.gamma_bar.nodes),
                            lsys.lam_1u(lsys.grids.gamma.nodes)])


_EPS = np.finfo(float).eps


@given(T=st.integers(1, 400), kind=st.sampled_from(["nodes", "eigenvalues", "liouville"]),
       t0=st.floats(0.0, 50.0), span=st.floats(0.1, 200.0), seed=st.integers(0, 2**16))
# short grids, primes and squares
@example(T=1, kind="nodes", t0=0.0, span=1.0, seed=0)
@example(T=2, kind="liouville", t0=0.0, span=80.0, seed=1)
@example(T=7, kind="eigenvalues", t0=3.0, span=60.0, seed=2)
@example(T=15, kind="nodes", t0=0.0, span=80.0, seed=3)
@example(T=16, kind="liouville", t0=0.0, span=80.0, seed=4)
@example(T=197, kind="eigenvalues", t0=0.0, span=200.0, seed=5)
@example(T=225, kind="nodes", t0=10.0, span=150.0, seed=6)
@example(T=397, kind="liouville", t0=0.0, span=200.0, seed=7)
@example(T=400, kind="eigenvalues", t0=0.0, span=200.0, seed=8)
def test_phase_sum_is_the_exponential_table(T, kind, t0, span, seed):
    # the factored sum on a linspace grid, and the anchors-only sum on a
    # geometric one, against the T x N table of exponentials times m; the
    # bound is the rounding of the phases exp(-i z t) (plus one for the sum)
    z = _spectrum(kind)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(len(z)) + 1j * rng.standard_normal(len(z))
    ts = np.linspace(t0, t0 + span, T)
    assert _stride(ts, len(z))[0] == math.isqrt(T - 1) + 1
    direct = np.exp(-1j * np.outer(ts, z)) @ m
    bound = 8 * _EPS * (1 + np.max(np.abs(np.outer(ts, z)))) * np.sum(np.abs(m))
    assert np.max(np.abs(phase_sum(ts, z, m) - direct)) <= bound
    if T >= 3:
        ts = np.geomspace(1e-3 * (t0 + span), t0 + span, T)
        assert _stride(ts, len(z)) == (1, 0.0)
        direct = np.exp(-1j * np.outer(ts, z)) @ m
        assert np.max(np.abs(phase_sum(ts, z, m) - direct)) <= 1e-15 * np.sum(np.abs(m))
