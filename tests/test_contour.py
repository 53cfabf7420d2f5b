import numpy as np
import pytest
import scipy.integrate as si

from respectra.contour import (ContourSpec, SampledPV, _gauss, build_contour,
                               integrate_contour, plemelj_integral, pole_kernel_integral,
                               real_axis_grid)
from respectra.errors import ContourError, EvaluationError
from respectra.model import make_form_factor


def test_spec_validation():
    with pytest.raises(ContourError):
        ContourSpec(depth=-0.1)
    with pytest.raises(ContourError):
        ContourSpec(cutoff=0.0)
    with pytest.raises(ContourError):
        ContourSpec(shape="circle")
    with pytest.raises(ContourError):
        ContourSpec(n_nodes=8)


@pytest.mark.parametrize("shape", ["rectangle", "semi_ellipse"])
def test_path_integrals(shape):
    grid = build_contour(ContourSpec(depth=0.5, cutoff=20.0, shape=shape, n_nodes=200))
    assert grid.n == 200
    assert abs(np.sum(grid.weights) - 20.0) < 1e-10
    assert abs(np.sum(grid.weights * grid.nodes) - 20.0**2 / 2) < 1e-9


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


def test_conjugate_grid(default_grid):
    up = default_grid.conjugated()
    assert np.allclose(up.nodes, np.conj(default_grid.nodes))
    assert np.allclose(up.weights, np.conj(default_grid.weights))
    assert up.conjugate and not default_grid.conjugate


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
        f = lambda z, c=c, ff=ff: ff.eval(z) * (c[0] + c[1] * z + c[2] * z**2) * np.exp(-0.3 * z)
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
        val = plemelj_integral(f, x0, "+i0", grid=axis_grid)
        direct, _ = si.quad(lambda w: f(w) / (x0 - w), 0, 20.0, limit=400)
        assert abs(val.imag) < 1e-12
        assert abs(val.real - direct) < 1e-9

    def test_against_excision_oracle(self):
        f = lambda w: np.exp(-w)
        val = plemelj_integral(f, 1.0, "+i0", cutoff=40.0, n_nodes=500)
        pv = _pv_excision_oracle(f, 1.0, 40.0)
        expect = -1j * np.pi * np.exp(-1.0) - pv
        assert abs(val - expect) < 1e-9

    def test_side_conjugation(self, axis_grid):
        f = lambda w: np.exp(-0.5 * w) * (1 + w)
        a = plemelj_integral(f, 2.0, "+i0", grid=axis_grid)
        b = plemelj_integral(f, 2.0, "-i0", grid=axis_grid)
        assert abs(np.conj(a) - b) < 1e-12

    def test_bad_side_and_range(self, axis_grid):
        with pytest.raises(ValueError):
            plemelj_integral(np.exp, 1.0, "up", grid=axis_grid)
        with pytest.raises(EvaluationError):
            plemelj_integral(np.exp, 25.0, "+i0", grid=axis_grid)

    def test_contour_consistency(self, default_grid, axis_grid):
        # the deformed integral of f/(x0 - z) equals the +i0 boundary value
        f = lambda z: np.exp(-0.8 * z) * (2.0 + z)
        for x0 in (0.7, 1.0, 3.5):
            lhs = integrate_contour(default_grid, lambda z: f(z) / (x0 - z))
            rhs = plemelj_integral(f, x0, "+i0", grid=axis_grid)
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
        # whose removable diagonal is the analytic -h'(u)
        grid = build_contour(ContourSpec(0.5, 20.0, shape, 200))
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

    def test_sampled_rows_targets_and_off_node_points(self, default_grid):
        # one integrand per point (h_i), a target axis (h_i F_p), a shared
        # integrand with one side per target and points between nodes of the
        # bottom segment, against the scalar reference
        grid = default_grid
        mid = 0.5 * (grid.nodes[60:140:20] + grid.nodes[61:141:20])
        u = np.concatenate([grid.nodes[::25], mid])
        c = np.linspace(0.4, 1.2, len(u))
        a = np.array([0.3, 0.8, 1.5])
        h = lambda z, ci: np.sqrt(z + 0j) * np.exp(-ci * z)
        F = lambda z, ap: np.exp(-ap * z) * (1 + z)
        pv = SampledPV(grid, u)
        got = pv(lambda z: h(z, c[:, None]), +1)
        got_f = pv(lambda z: h(z, c[:, None]), -1, F=lambda z: F(z[:, None, :], a[:, None]))
        sides = np.array([+1, -1, +1])
        got_s = pv(lambda z: h(z, 0.6), sides, F=lambda z: F(z[:, None, :], a[:, None]))
        for i, (ui, ci) in enumerate(zip(u, c)):
            ref = pole_kernel_integral(grid, lambda z: h(z, ci), ui, +1)
            assert abs(got[i] - ref) <= 1e-13 * abs(ref)
            for p, ap in enumerate(a):
                ref = pole_kernel_integral(grid, lambda z: h(z, ci) * F(z, ap), ui, -1)
                assert abs(got_f[i, p] - ref) <= 1e-13 * abs(ref)
                ref = pole_kernel_integral(grid, lambda z: h(z, 0.6) * F(z, ap), ui, sides[p])
                assert abs(got_s[i, p] - ref) <= 1e-13 * abs(ref)


def test_real_axis_grid_handles_quarter_powers():
    # the quartic map at the origin makes w**(1/4) integrands spectral; compare
    # against adaptive quadrature on the same truncated window
    grid = real_axis_grid(20.0, 400)
    got = np.sum(grid.weights.real * grid.nodes.real**0.25 * np.exp(-grid.nodes.real))
    ref, _ = si.quad(lambda w: w**0.25 * np.exp(-w), 0.0, 20.0, limit=200)
    assert abs(got - ref) < 1e-10
