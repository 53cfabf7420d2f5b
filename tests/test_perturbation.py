import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from respectra import model as model_module, perturbation
from respectra.contour import ContourSpec, SampledPV, build_contour, pole_kernel_integral
from respectra.errors import AnalyticityError, ConfigError, DegeneratePairError, EvaluationError
from respectra.friedrichs import SampledEta, find_pole
from respectra.liouville import LiouvilleGrids, LiouvilleSystem
from respectra.model import (FormFactor2, SampledRows, eval_V, eval_V2, eval_Vbar, make_model,
                             separable_test_kernel)
from respectra.perturbation import (BiorthogonalSystem, ContinuumFamily, SampledVector,
                                    normalize_pair, pair_coeffs, pair_families,
                                    perturb_continuous, perturb_discrete)
from respectra.states import AnalyticVector, random_analytic, real_axis_inner, real_axis_inner_H

# PV of w e^-w / (w - 1) over the positive axis, 40-digit reference
PV_SQRT_EXP_OMEGA1 = 0.3028251167649339


def test_order_zero(default_model, default_grid):
    ser = perturb_discrete(default_model, 0, default_grid)
    assert ser.eigenvalue == 1.0
    assert ser.orders[0][1].d == 1.0 and ser.orders[0][2].d == 1.0


def test_first_order_shift_vanishes_identically(default_model, default_grid):
    ser = perturb_discrete(default_model, 2, default_grid)
    assert ser.lambda_at(1) == 0.0
    cont = perturb_continuous(default_model, complex(default_grid.nodes[40]), 2,
                              default_grid)
    assert cont.lambda_at(1) == 0.0 and cont.lambda_at(2) == 0.0


def test_gauge_conditions_exact(default_model, default_grid):
    ser = perturb_discrete(default_model, 2, default_grid)
    for _, r, l in ser.orders[1:]:
        assert r.d == 0.0 and l.d == 0.0
    u = complex(default_grid.nodes[60])
    cont = perturb_continuous(default_model, u, 2, default_grid)
    # order 0 is the bare member: the unit atom at u and nothing else
    for bare in cont.orders[0][1:]:
        assert bare.u.tolist() == [u] and bare.d[0] == 0.0 and bare.coef is None
    assert cont.right_total().u.tolist() == [u]


def test_second_order_eigenvalue_closed_form(default_model, default_grid):
    # the boundary-value identity: shift = -PV - i pi V(Omega)^2
    lam = perturb_discrete(default_model, 2, default_grid).eigenvalue
    assert abs(lam.imag + np.pi * 0.01 * np.exp(-1.0)) < 1e-8
    assert abs(lam.real - (1.0 - 0.01 * PV_SQRT_EXP_OMEGA1)) < 1e-8


def test_gap_to_exact_pole_is_fourth_order(default_spec):
    # without a kernel the eigenvalue series is even in the coupling, so the
    # order-2 truncation error scales as the fourth power: halving the
    # coupling shrinks the gap ~16x
    gaps = {}
    for eps in (0.2, 0.1, 0.05):
        m = make_model("sqrt_exp", [1.0], 1.0, eps, default_spec)
        lam2 = perturb_discrete(m, 2).eigenvalue
        gaps[eps] = abs(find_pole(m).lambda_pole - lam2)
    assert 11.0 <= gaps[0.2] / gaps[0.1] <= 22.0
    assert 11.0 <= gaps[0.1] / gaps[0.05] <= 22.0


# form-factor parameter range of each family (as in the benchmark's draws,
# widened for the two exponential families)
_PARAM_RANGE = {"sqrt_exp": (0.5, 2.0), "poly_exp": (0.5, 2.0), "lorentz_sqrt": (1.5, 3.0)}


@given(family=st.sampled_from(sorted(_PARAM_RANGE)), frac=st.floats(0.0, 1.0),
       omega=st.floats(0.8, 1.5), eps=st.floats(0.03, 0.1))
def test_order2_gap_to_exact_pole_is_fourth_order(family, frac, omega, eps):
    # the kernel-free series is even in the coupling: halving it shrinks the
    # gap between the exact pole and the order-2 eigenvalue 16x
    lo, hi = _PARAM_RANGE[family]
    gaps = []
    for e in (eps, eps / 2):
        m = make_model(family, [lo + frac * (hi - lo)], omega, e,
                       ContourSpec(0.5, 20.0, "rectangle", 400))
        gaps.append(abs(find_pole(m).lambda_pole - perturb_discrete(m, 2).eigenvalue))
    assert 14.0 <= gaps[0] / gaps[1] <= 18.0


def test_continuum_rejects_the_level_position(default_model, default_grid):
    # a curve point can never coincide with the real level; guard anyway
    from respectra.errors import EvaluationError
    with pytest.raises(EvaluationError):
        perturb_continuous(default_model, 1.0 + 0j, 2, default_grid)


def test_continuum_free_limit(default_grid):
    m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    u = complex(default_grid.nodes[30])
    ser = perturb_continuous(m, u, 2, default_grid)
    total = ser.right_total()
    assert total.d[0] == 0.0 and total.u.tolist() == [u]
    # zero-coupling pole terms are identically zero numerators
    assert total.coef[0] == 0.0 and total.kernel_coef is None


def test_free_system_reconstruction(default_grid, axis_grid, rng):
    # coupling off: the assembled decomposition is the bare identity and the
    # reconstruction error is pure quadrature noise
    m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    s = BiorthogonalSystem.from_perturbation(m, 2, default_grid)
    psi, phi = random_analytic(rng), random_analytic(rng)
    assert abs(s.reconstruct_inner(psi, phi)
               - real_axis_inner(psi, phi, axis_grid)) < 1e-9


def test_continuum_branch_explicit_coefficients(default_model, default_grid):
    u = complex(default_grid.nodes[55])
    ser = perturb_continuous(default_model, u, 2, default_grid)
    om = 1.0
    d1 = ser.orders[1][1].d[0]
    assert abs(d1 - eval_Vbar(default_model, u) / (u - om)) < 1e-16
    # second-order numerator is V(z) * Vbar(u)/(u - Omega)
    t2 = ser.orders[2][1]
    assert abs(t2.coef[0] - eval_Vbar(default_model, u) / (u - om)) < 1e-16
    assert t2.u.tolist() == [u] and t2.side == +1 and t2.kernel_coef is None
    # left mirrors with the conjugate prescription: Vbar(z) * V(u)/(u - Omega)
    l2 = ser.orders[2][2]
    assert l2.side == -1
    assert abs(l2.coef[0] - eval_V(default_model, u) / (u - om)) < 1e-16


def test_continuum_matches_exact_expansion(default_spec, default_grid):
    # the truncated continuum pair differs from the exact one at third order
    from respectra.friedrichs import exact_system
    diffs = {}
    for eps in (0.1, 0.05):
        m = make_model("sqrt_exp", [1.0], 1.0, eps, default_spec)
        sx = exact_system(m, default_grid)
        i = default_grid.n // 2
        u = complex(default_grid.nodes[i])
        total = perturb_continuous(m, u, 2, default_grid).right_total()
        # exact right member: Vbar(u)/eta(u+i0) on the level and as the
        # coefficient of the numerator V(z)
        a_exact = eval_Vbar(m, u) / sx.eta_plus[i]
        probe = 1.8 - 0.4j
        n_pert = total.coef[0] * eval_V(m, probe)
        n_exact = a_exact * eval_V(m, probe)
        diffs[eps] = abs(total.d[0] - a_exact) + abs(n_pert - n_exact)
    assert diffs[0.1] / diffs[0.05] > 6.0   # third-order scaling (8x)


class TestNormalizePair:
    def test_already_normalized(self, default_grid):
        r = AnalyticVector(d=1.0 + 0j)
        l = AnalyticVector(d=1.0 + 0j)
        rn, ln = normalize_pair(r, l, default_grid)
        assert rn.d == 1.0 and ln.d == 1.0

    def test_scaling_by_half(self, default_grid):
        r = AnalyticVector(d=2.0 + 0j)
        l = AnalyticVector(d=2.0 + 0j)
        rn, ln = normalize_pair(r, l, default_grid)
        assert abs(rn.d - 1.0) < 1e-15 and abs(ln.d - 1.0) < 1e-15

    def test_self_orthogonal_raises(self, default_grid):
        r = AnalyticVector(d=1.0 + 0j)
        l = AnalyticVector(d=0j)
        with pytest.raises(DegeneratePairError):
            normalize_pair(r, l, default_grid)

    def test_pairing_is_one_after(self, default_model, default_grid):
        ser = perturb_discrete(default_model, 2, default_grid)
        r, l = normalize_pair(ser.right_total(), ser.left_total(), default_grid)
        assert abs(pair_coeffs(l, r, default_grid) - 1.0) < 1e-14

    def test_matches_exact_normalization_to_fourth_order(self, default_model,
                                                         default_grid):
        ser = perturb_discrete(default_model, 2, default_grid)
        r, _ = normalize_pair(ser.right_total(), ser.left_total(), default_grid)
        pole = find_pole(default_model, grid=default_grid)
        eta = SampledEta(SampledRows(default_model, SampledPV(default_grid, ())))
        exact = 1.0 / np.sqrt(eta.prime(pole.lambda_pole))
        assert abs(r.d - exact) < default_model.coupling ** 4


def test_biorthogonality_residual_scaling(default_spec, default_grid):
    # order-2 truncation leaves third-order residuals: halving the coupling
    # must shrink them at least as fast as the cube (one-sided bound)
    res = {}
    for eps in (0.1, 0.05):
        m = make_model("sqrt_exp", [1.0], 1.0, eps, default_spec)
        s = BiorthogonalSystem.from_perturbation(m, 2, default_grid)
        picks = slice(10, None, default_grid.n // 8)
        worst = max(abs(pair_coeffs(s.disc_left, s.disc_right, default_grid) - 1.0),
                    np.max(np.abs(s.cont_right.pair(s.disc_left)[picks])),
                    np.max(np.abs(s.cont_left.pair(s.disc_right)[picks])))
        res[eps] = worst
    assert res[0.05] <= 2.0 * (0.5 ** 3) * res[0.1]


@pytest.mark.parametrize("order", [3, 4])
def test_system_refuses_continuum_orders_it_does_not_build(default_model, default_grid, order):
    # the continuous branch stops at order 2; a system labelled with a higher
    # order would hold a second-order continuum.  The discrete branch takes
    # any order but a negative one
    with pytest.raises(ConfigError, match="continuous branch is implemented through order 2"):
        BiorthogonalSystem.from_perturbation(default_model, order, default_grid)
    with pytest.raises(ConfigError, match="continuous branch is implemented through order 2"):
        perturb_continuous(default_model, default_grid.nodes[20], order, default_grid)
    with pytest.raises(ConfigError, match="order must be non-negative"):
        perturb_discrete(default_model, 2 - order, default_grid)


def test_projector_algebra(rng):
    vec = AnalyticVector(complex(rng.standard_normal(), rng.standard_normal()),
                         lambda z: np.exp(-z))
    pd = vec.project_d()
    pc = vec.project_continuum()
    back = pd + pc
    assert back.d == vec.d and back.profile is vec.profile
    assert pd.project_continuum().d == 0
    assert pd.project_continuum().profile is None
    assert pc.project_d().d == 0
    with pytest.raises(ValueError):
        vec + AnalyticVector(1.0, side="lower")


def test_left_not_conjugate_of_right(default_model, default_grid):
    s = BiorthogonalSystem.from_perturbation(default_model, 2, default_grid)
    sr = s.disc_right.at(default_grid.nodes)
    sl = s.disc_left.at(default_grid.nodes)
    assert np.max(np.abs(sl - np.conj(sr))) > 1e-6


def test_completeness_residual_third_order(default_spec, default_grid, axis_grid):
    # assembled order-2 system: reconstruction residual is an honest
    # third-order truncation effect, not spurious quadrature error
    rng = np.random.default_rng(5)
    pairs = [(random_analytic(rng), random_analytic(rng)) for _ in range(3)]
    res = {}
    for eps in (0.1, 0.05):
        m = make_model("sqrt_exp", [1.0], 1.0, eps, default_spec)
        s = BiorthogonalSystem.from_perturbation(m, 2, default_grid)
        worst = 0.0
        for psi, phi in pairs:
            worst = max(worst, abs(s.reconstruct_inner(psi, phi)
                                   - real_axis_inner(psi, phi, axis_grid)))
        res[eps] = worst
    assert res[0.1] < 5e-3
    assert res[0.05] <= 2.0 * (0.5 ** 3) * res[0.1]


class TestSeparableKernel:
    """The continuum-continuum kernel enters the eigenvalue first at third
    order (the double-integral term); an exact pole for the separable kernel
    is available by reducing the implicit equation to scalar integrals."""

    @staticmethod
    def _oracle_pole(model, grid):
        om = model.omega_level
        z, w = grid.nodes, grid.weights
        v = eval_V(model, z)
        vb = eval_Vbar(model, z)
        eh = np.sqrt(eval_V2(model, z, z) + 0j)   # coupling * h(z)

        def implicit(lam):
            j_vv = np.sum(w * vb * v / (lam - z))
            j_vh = np.sum(w * v * eh / (lam - z))
            j_bh = np.sum(w * vb * eh / (lam - z))
            j_hh = np.sum(w * eh * eh / (lam - z))
            return om + j_vv + j_bh * j_vh / (1.0 - j_hh) - lam

        lam = om - 0.01 - 0.01j
        for _ in range(80):
            f0 = implicit(lam)
            d = 1e-7
            der = (implicit(lam + d) - implicit(lam - d)) / (2 * d)
            lam = lam - f0 / der
            if abs(f0) < 1e-14:
                break
        return lam

    def test_third_order_term_is_the_double_integral(self, default_spec, default_grid):
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec,
                       kernel="separable_sqrt_exp")
        z, w = default_grid.nodes, default_grid.weights
        eh = np.sqrt(eval_V2(m, z, z) + 0j)
        direct = (np.sum(w * eval_Vbar(m, z) * eh / (1.0 - z))
                  * np.sum(w * eh * eval_V(m, z) / (1.0 - z)))
        lam3 = perturb_discrete(m, 3, default_grid).lambda_at(3)
        assert abs(lam3 - direct) < 1e-14
        assert abs(lam3) > 1e-5   # genuinely nonzero with a kernel

    def test_series_approaches_exact_pole(self, default_spec, default_grid):
        gap2, gap4 = {}, {}
        for eps in (0.2, 0.1):
            m = make_model("sqrt_exp", [1.0], 1.0, eps, default_spec,
                           kernel="separable_sqrt_exp")
            lam_o = self._oracle_pole(m, default_grid)
            gap2[eps] = abs(perturb_discrete(m, 2, default_grid).eigenvalue - lam_o)
            gap4[eps] = abs(perturb_discrete(m, 4, default_grid).eigenvalue - lam_o)
        # orders 3+4 buy at least an order of magnitude at the default coupling
        assert gap4[0.1] < gap2[0.1] / 10.0
        # remainders scale as the 4th / 6th power of the coupling
        assert 10.0 <= gap2[0.2] / gap2[0.1] <= 26.0
        assert 30.0 <= gap4[0.2] / gap4[0.1] <= 110.0

    def test_family_pairing_matches_member_pairing(self):
        # the array pairing of the kernel families (orders 1 and 2 with the
        # double integral) against member i paired alone, as a one-point
        # family on SampledPV(grid, u_i)
        spec = ContourSpec(0.5, 20.0, "rectangle", 48)
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1, spec, kernel="separable_sqrt_exp")
        grid = build_contour(spec)
        s = BiorthogonalSystem.from_perturbation(m, 2, grid)
        vec = random_analytic(np.random.default_rng(3))
        for fam in (s.cont_right, s.cont_left):
            got = fam.pair(vec)[::5]
            ref = np.array([ContinuumFamily(SampledRows(m, SampledPV(grid, fam.u[i])),
                                            fam.side, fam.d[i:i + 1], fam.coef[i:i + 1],
                                            fam.kernel_coef[i:i + 1]).pair(vec)[0]
                            for i in range(0, grid.n, 5)])
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_kernel_reconstruction_matches_recorded_value(self, default_spec):
        # order-2 reconstruct_inner of a kernel system, recorded before the
        # two families were paired in one sweep
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel="separable_sqrt_exp")
        s = BiorthogonalSystem.from_perturbation(m, 2)
        rng = np.random.default_rng(7)
        psi, phi = random_analytic(rng), random_analytic(rng)
        ref = -0.7297511103422434 + 0.5330794624363246j
        assert abs(s.reconstruct_inner(psi, phi) - ref) <= 1e-13 * abs(ref)

    def test_reference_generator_adds_the_kernel_term(self, default_spec, axis_grid, rng):
        # the kernel term of the axis reference <Psi|H|Phi> is the separable
        # double sum eps^2 (sum w psi h)(sum w h phi), h = sqrt(w) exp(-w/2)
        eps = 0.1
        with_k, without = (make_model("sqrt_exp", [1.0], 1.0, eps, default_spec, kernel)
                           for kernel in ("separable_sqrt_exp", None))
        w, ww = axis_grid.nodes.real, axis_grid.weights.real
        h = np.sqrt(w) * np.exp(-w / 2)
        for _ in range(5):
            psi, phi = random_analytic(rng), random_analytic(rng)
            got = (real_axis_inner_H(with_k, psi, phi, axis_grid)
                   - real_axis_inner_H(without, psi, phi, axis_grid))
            want = eps**2 * np.sum(ww * psi.at(w) * h) * np.sum(ww * h * phi.at(w))
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_generator_gap_is_third_order(self, default_spec, axis_grid, rng):
        # an order-2 kernel system reconstructs <Psi|H|Phi> up to the kernel's
        # third-order term: doubling the coupling multiplies the gap by ~8
        pairs = [(random_analytic(rng), random_analytic(rng)) for _ in range(5)]
        gaps = {}
        for eps in (0.04, 0.08, 0.10):
            m = make_model("sqrt_exp", [1.0], 1.0, eps, default_spec, kernel="separable_sqrt_exp")
            s = BiorthogonalSystem.from_perturbation(m, 2)
            gaps[eps] = max(abs(s.reconstruct_H(psi, phi)
                                - real_axis_inner_H(m, psi, phi, axis_grid)) for psi, phi in pairs)
        assert 6.0 <= gaps[0.08] / gaps[0.04] <= 10.0
        assert gaps[0.10] <= 5e-3

    def test_kernel_contributes_to_continuum_branch(self, default_spec, default_grid):
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec,
                       kernel="separable_sqrt_exp")
        u = complex(default_grid.nodes[50])
        ser = perturb_continuous(m, u, 2, default_grid)
        # first-order kernel column g(u) g(z), g = coupling * h, with g(u)
        # taken on an array as the family takes it: numpy's complex exp of a
        # scalar and of an array may differ in the last bit
        assert np.array_equal(ser.orders[1][1].kernel_coef,
                              0.1 * m.kernel.factor(np.array([u])))
        assert abs(ser.orders[2][1].d[0]) > 0         # second-order d-component


def _direct_pairing(m, grid, u, side, vec, orders):
    """The pairing of vec with the member at u of the continuous-branch
    orders ``orders`` (of 1 and 2), from the kernel itself: d plus the pole
    term whose numerator is K(z, u) at order 1 and coef B(z) + k(z) at order
    2, K from eval_V2 (transposed on the left) and k(z) = \\int K(z, z')
    K(z', u)/(u + side*i0 - z') dz' one scalar principal value per target."""
    om = m.omega_level
    K = (lambda z, zp: eval_V2(m, z, zp)) if side > 0 else (lambda z, zp: eval_V2(m, zp, z))
    level, basis = (eval_Vbar, eval_V) if side > 0 else (eval_V, eval_Vbar)
    d1 = level(m, u) / (u - om)
    d2 = pole_kernel_integral(grid, lambda z: level(m, z) * K(z, u), u, side) / (u - om)

    def k(z):
        vals = [pole_kernel_integral(grid, lambda zp: K(t, zp) * K(zp, u), u, side)
                for t in np.ravel(z)]
        return np.reshape(vals, np.shape(z))

    parts = {1: (d1, lambda z: K(z, u)), 2: (d2, lambda z: d1 * basis(m, z) + k(z))}
    num = lambda z: sum(parts[o][1](z) for o in orders)
    return (vec.d * sum(parts[o][0] for o in orders)
            + pole_kernel_integral(grid, lambda z: vec.at(z) * num(z), u, side))


@pytest.mark.parametrize("side", [+1, -1])
def test_factored_kernel_pairing_matches_the_direct_kernel(side):
    # the order-1 and order-2 kernel families of the whole grid, and their
    # sum, paired as arrays, against the per-member formula on K itself; the
    # coupling is not the kernel's factor, so no row stands in for another
    spec = ContourSpec(0.5, 20.0, "rectangle", 48)
    m = make_model("poly_exp", [1.0], 1.0, 0.1, spec, kernel="separable_sqrt_exp")
    grid = build_contour(spec)
    vec = random_analytic(np.random.default_rng(29))
    o1, o2 = perturbation._branch_orders(SampledRows(m, SampledPV(grid)), 2)[(1 - side) // 2]
    for fam, orders in ((o1, (1,)), (o2, (2,)), (o1 + o2, (1, 2))):
        got = fam.pair(vec)
        for i in range(3, grid.n, 8):
            ref = _direct_pairing(m, grid, complex(grid.nodes[i]), side, vec, orders)
            assert abs(got[i] - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_one_point_series_is_the_assembled_member(default_spec, default_grid, kernel):
    # perturb_continuous at node u_i sums to the member that from_perturbation
    # holds at u_i: at every node the same arrays to rounding, and the same
    # pairing up to rounding
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
    s = BiorthogonalSystem.from_perturbation(m, 2, default_grid)
    vec = random_analytic(np.random.default_rng(23))
    eps = np.finfo(float).eps
    for i in range(default_grid.n):
        ser = perturb_continuous(m, default_grid.nodes[i], 2, default_grid)
        for member, fam in ((ser.right_total(), s.cont_right),
                            (ser.left_total(), s.cont_left)):
            assert member.side == fam.side
            for got, ref in ((member.d, fam.d), (member.coef, fam.coef),
                             (member.kernel_coef, fam.kernel_coef)):
                assert got is ref is None or \
                    np.max(np.abs(got - ref[i:i + 1])) <= 4 * eps * np.max(np.abs(ref))
            if i in (7, default_grid.n // 2, default_grid.n - 3):
                got, ref = member.pair(vec)[0], fam.pair(vec)[i]
                assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_order_pairings_add_up_to_the_total(default_spec, default_grid, kernel):
    # only the bare order carries the atom at u, so the orders paired one by
    # one add up to the paired total on both sides
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
    ser = perturb_continuous(m, default_grid.nodes[50], 2, default_grid)
    vec = random_analytic(np.random.default_rng(5))
    for slot, total in ((1, ser.right_total()), (2, ser.left_total())):
        assert [o[slot].atom for o in ser.orders] == [1.0, 0.0, 0.0] and total.atom == 1.0
        got = sum(o[slot].pair(vec)[0] for o in ser.orders)
        ref = total.pair(vec)[0]
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_pair_with_analytic_vector(default_model, default_grid, axis_grid):
    s = BiorthogonalSystem.from_exact(default_model, default_grid)
    rng = np.random.default_rng(11)
    psi = random_analytic(rng)
    # pairing <psi | f_disc> is finite and reproducible
    a = pair_coeffs(psi, s.disc_right, default_grid)
    b = pair_coeffs(psi, s.disc_right, default_grid)
    assert a == b


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_discrete_pair_pairs_on_another_grid(default_spec, kernel):
    # a discrete-order profile reuses its samples only on its own grid's
    # nodes; on a shallower contour it is evaluated there, and the pairing
    # is the same integral by another quadrature
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
    g1 = build_contour(default_spec)
    g2 = build_contour(replace(default_spec, depth=0.35))
    s = BiorthogonalSystem.from_perturbation(m, 2, g1)
    gap = pair_coeffs(s.disc_left, s.disc_right, g2) - pair_coeffs(s.disc_left, s.disc_right, g1)
    assert abs(gap) <= 1e-9


def test_pairing_on_the_own_grid_evaluates_no_kernel(default_spec):
    # the discrete pair of an order-2 kernel system pairs on its grid from
    # the samples the series computed, without evaluating the kernel's
    # factor again
    calls = []
    h = separable_test_kernel().factor
    kernel = FormFactor2("counting", lambda z: calls.append(1) or h(z))
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
    s = BiorthogonalSystem.from_perturbation(m, 2)
    calls.clear()
    pair_coeffs(s.disc_left, s.disc_right, s.grid)
    assert calls == []


def test_profile_off_its_grid_forms_each_order_once(default_model, axis_grid, monkeypatch):
    # off its grid an order-n profile forms orders 1..n there once, so it
    # evaluates the coupling once at any order; a profile that called the
    # lower profiles would make Fibonacci-many calls, 377 at order 16
    profile = perturb_discrete(default_model, 16).orders[16][1]
    rows = _counted_rows(monkeypatch)
    profile.at(axis_grid.nodes)
    assert len(rows["V"]) <= 1


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_total_off_its_grid_forms_each_order_once(default_spec, axis_grid, kernel,
                                                  monkeypatch):
    # the total of orders 0..16 off its grid forms each order once, 16 in
    # all; a sum of the order profiles, each forming its lower orders again,
    # forms 16 * 17 / 2 = 136; on its nodes it forms none
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
    grid = build_contour(default_spec)
    series = perturb_discrete(m, 16, grid)
    calls = []

    def counting(*args, _real=perturbation._discrete_order):
        calls.append(1)
        return _real(*args)

    monkeypatch.setattr(perturbation, "_discrete_order", counting)
    for total in (series.right_total(), series.left_total()):
        calls.clear()
        total.at(axis_grid.nodes)
        assert len(calls) == 16
        calls.clear()
        total.at(grid.nodes)
        assert calls == []


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_profile_on_a_copy_of_its_nodes_is_its_samples(default_spec, kernel):
    # a copy of the nodes misses the shortcut to the samples, and the orders
    # formed there are the samples the series was built from
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
    grid = build_contour(default_spec)
    for _, right, left in perturb_discrete(m, 12, grid).orders[1:]:
        for vec in (right, left):
            assert np.array_equal(vec.at(grid.nodes.copy()), vec.at(grid.nodes))


@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("shape", ["rectangle", "semi_ellipse"])
@pytest.mark.parametrize("family, param", [("sqrt_exp", 1.0), ("poly_exp", 1.0),
                                           ("lorentz_sqrt", 2.0)])
def test_overlap_tables_match_one_family_pairings(n, shape, family, param):
    # both families in one sweep (two targets, sides +1 and -1) against the
    # one-family pairing of each
    spec = ContourSpec(0.5, 20.0, shape, n)
    s = BiorthogonalSystem.from_exact(make_model(family, [param], 1.0, 0.08, spec))
    rng = np.random.default_rng(n)
    psi, phi = random_analytic(rng), random_analytic(rng)
    _, _, a, b = s.overlap_tables(psi, phi)
    for got, ref in ((a, s.cont_right.pair(psi)), (b, s.cont_left.pair(phi))):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_overlap_tables_of_the_last_pair_are_kept(default_spec, monkeypatch, kernel):
    # reconstruct_inner then reconstruct_H on one pair make one pairing
    # sweep; another psi object, even an equal one, is paired afresh; the
    # kept tables are read-only and bit-identical to a fresh system's
    calls = []

    def counting(pairs, _real=perturbation.pair_families):
        calls.append(len(pairs))
        return _real(pairs)

    def build():
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
        return (BiorthogonalSystem.from_exact(m) if kernel is None
                else BiorthogonalSystem.from_perturbation(m, 2))

    s = build()
    rng = np.random.default_rng(17)
    psi, phi = random_analytic(rng), random_analytic(rng)
    monkeypatch.setattr(perturbation, "pair_families", counting)
    s.reconstruct_inner(psi, phi)
    s.reconstruct_H(psi, phi)
    tables = s.overlap_tables(psi, phi)
    assert calls == [2]
    for arr in tables[2:]:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    s.overlap_tables(replace(psi), phi)
    assert calls == [2, 2]
    for got, ref in zip(tables, build().overlap_tables(psi, phi)):
        assert np.array_equal(got, ref)


def test_families_of_one_sweep_share_their_points(default_model, default_grid):
    fams = [ContinuumFamily(SampledRows(default_model, SampledPV(default_grid)), side,
                            np.zeros(default_grid.n), np.ones(default_grid.n))
            for side in (+1, -1)]
    vec = SampledVector.of(random_analytic(np.random.default_rng(1)), fams[0].pv)
    with pytest.raises(EvaluationError):
        pair_families([(fams[0], vec), (fams[1], vec)])


def _counted_rows(monkeypatch) -> dict:
    """Count at the one seam every row goes through, ``model._row`` and
    ``model._check_region``: "V", "Vbar" and "g" -> the shape of each
    evaluation of that row, and "checks" -> the shapes of the point sets of
    each region check."""
    calls = {"V": [], "Vbar": [], "g": [], "checks": []}
    row, check = model_module._row, model_module._check_region
    monkeypatch.setattr(model_module, "_row", lambda m, name, z: calls[name].append(np.shape(z))
                        or row(m, name, z))
    monkeypatch.setattr(model_module, "_check_region", lambda m, *zs: calls["checks"].append(
        tuple(np.shape(z) for z in zs)) or check(m, *zs))
    return calls


def _clear(calls: dict):
    for seen in calls.values():
        seen.clear()


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_a_reconstruction_samples_each_vector_once_and_no_row(default_spec, monkeypatch,
                                                              kernel):
    # reconstruct_inner samples each vector's profile once, at the stencils
    # of every node, and evaluates no row: the families read V, Vbar and g
    # from their system's table, and the discrete pair pairs on the node
    # samples it holds
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
    s = (BiorthogonalSystem.from_exact(m) if kernel is None
         else BiorthogonalSystem.from_perturbation(m, 2))
    rng = np.random.default_rng(31)
    shapes = []
    psi, phi = (AnalyticVector(v.d, lambda z, p=v.profile: shapes.append(np.shape(z)) or p(z))
                for v in (random_analytic(rng), random_analytic(rng)))
    rows = _counted_rows(monkeypatch)
    s.reconstruct_inner(psi, phi)
    assert shapes == [(default_spec.n_nodes, 5)] * 2
    assert rows == {"V": [], "Vbar": [], "g": [], "checks": []}


def test_the_exact_system_samples_its_rows_once(monkeypatch):
    # from_exact samples V and Vbar once, at the stencils of every node,
    # after one region check: one table for eta's moments, the boundary
    # sweep and the families.  find_pole samples its table at the nodes and
    # at the stencils of its zero count's strided points, one check covering
    # both sets
    spec = ContourSpec(0.5, 20.0, "rectangle", 800)
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, spec)
    grid = build_contour(spec)
    rows = _counted_rows(monkeypatch)
    BiorthogonalSystem.from_exact(m, grid)
    assert rows == {"V": [(800, 5)], "Vbar": [(800, 5)], "g": [], "checks": [((800, 5),)]}
    _clear(rows)
    find_pole(m, grid=grid)
    assert rows == {"V": [(800,), (200, 5)], "Vbar": [(800,), (200, 5)], "g": [],
                    "checks": [((800,), (200, 5))]}


def test_a_perturbative_system_samples_each_row_once(monkeypatch):
    # an order-2 kernel system samples V, Vbar and g once each, at the
    # stencils of every node, with one region check: its discrete branch
    # reads the table's node rows.  perturb_discrete samples each node row
    # once at any order, and an off-grid total its side's row and g once.
    # LiouvilleSystem samples V and Vbar once per curve, besides the
    # coupling check of its model on seven axis points
    n = 44
    spec = ContourSpec(0.5, 20.0, "rectangle", n)
    m = make_model("sqrt_exp", [1.0], 1.0, 0.06, spec, "separable_sqrt_exp")
    grid = build_contour(spec)
    rows = _counted_rows(monkeypatch)
    BiorthogonalSystem.from_perturbation(m, 2, grid)
    assert rows == {"V": [(n, 5)], "Vbar": [(n, 5)], "g": [(n, 5)], "checks": [((n, 5),)]}
    _clear(rows)
    series = perturb_discrete(m, 6, grid)
    assert rows == {"V": [(n,)], "Vbar": [(n,)], "g": [(n,)], "checks": [((n,),)]}
    _clear(rows)
    z = grid.nodes.copy()
    series.right_total().at(z)
    series.left_total().at(z)
    assert rows == {"V": [(n,)], "Vbar": [(n,)], "g": [(n,)] * 2, "checks": [((n,),)] * 2}
    kernel_free = make_model("sqrt_exp", [1.0], 1.0, 0.06, spec)
    _clear(rows)
    LiouvilleSystem(kernel_free, LiouvilleGrids(grid))
    assert rows == {"V": [(7,), (n,), (n,)], "Vbar": [(n,), (n,)], "g": [],
                    "checks": [((7,),), ((n,),), ((n,),)]}


def test_a_one_point_table_checks_its_nodes_and_stencils_at_once(monkeypatch):
    # a table on a one-point principal value samples its rows at the nodes
    # and at the point's stencil after one check of both sets, which refuses
    # a point outside the region in either set with the message of that set
    spec = ContourSpec(0.5, 20.0, "rectangle", 64)
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, spec)
    grid = build_contour(spec)
    rows = _counted_rows(monkeypatch)
    perturb_continuous(m, grid.nodes[20], 2, grid)
    assert rows == {"V": [(64,), (1, 5)], "Vbar": [(64,), (1, 5)], "g": [],
                    "checks": [((64,), (1, 5))]}
    deep = build_contour(replace(spec, depth=0.8))       # nodes below the region
    for pv in (SampledPV(grid, 30.0 - 0.5j), SampledPV(deep, 1.0 - 0.5j)):
        _clear(rows)
        with pytest.raises(AnalyticityError) as refused:
            SampledRows(m, pv)
        assert rows == {"V": [], "Vbar": [], "g": [], "checks": [((64,), (1, 5))]}
        bad = pv.points if pv.grid is grid else pv.grid.nodes
        with pytest.raises(AnalyticityError, match=re.escape(str(refused.value))):
            eval_V(m, bad)
