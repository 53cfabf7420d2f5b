from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from respectra import perturbation
from respectra.contour import ContourSpec, SampledPV, build_contour
from respectra.errors import DegeneratePairError, EvaluationError
from respectra.friedrichs import eta_prime, find_pole
from respectra.model import eval_V, eval_V2, eval_Vbar, make_model
from respectra.perturbation import (BiorthogonalSystem, ContinuumFamily, PlainTerm,
                                    VectorCoeffs, as_coeffs, normalize_pair, pair_coeffs,
                                    pair_families, perturb_continuous, perturb_discrete)
from respectra.states import AnalyticVector, random_analytic, real_axis_inner

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
    assert total.coef[0] == 0.0 and total.kernel_orders == ()


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
    assert t2.u.tolist() == [u] and t2.side == +1 and t2.kernel_orders == ()
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
        r = VectorCoeffs(d=1.0 + 0j)
        l = VectorCoeffs(d=1.0 + 0j)
        rn, ln = normalize_pair(r, l, default_grid)
        assert rn.d == 1.0 and ln.d == 1.0

    def test_scaling_by_half(self, default_grid):
        r = VectorCoeffs(d=2.0 + 0j)
        l = VectorCoeffs(d=2.0 + 0j)
        rn, ln = normalize_pair(r, l, default_grid)
        assert abs(rn.d - 1.0) < 1e-15 and abs(ln.d - 1.0) < 1e-15

    def test_self_orthogonal_raises(self, default_grid):
        r = VectorCoeffs(d=1.0 + 0j)
        l = VectorCoeffs(d=0j)
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
        exact = 1.0 / np.sqrt(eta_prime(default_model, pole.lambda_pole, default_grid))
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


def test_projector_algebra(rng):
    vec = VectorCoeffs(d=complex(rng.standard_normal(), rng.standard_normal()),
                       smooth=(PlainTerm(lambda z: np.exp(-z)),))
    pd = vec.project_d()
    pc = vec.project_continuum()
    back = pd + pc
    assert back.d == vec.d and back.smooth == vec.smooth
    assert pd.project_continuum().d == 0
    assert not pd.project_continuum().smooth
    assert pc.project_d().d == 0


def test_left_not_conjugate_of_right(default_model, default_grid):
    s = BiorthogonalSystem.from_perturbation(default_model, 2, default_grid)
    sr = sum(t.values(default_grid) for t in s.disc_right.smooth)
    sl = sum(t.values(default_grid) for t in s.disc_left.smooth)
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
        vec = as_coeffs(random_analytic(np.random.default_rng(3)))
        for fam in (s.cont_right, s.cont_left):
            got = fam.pair(vec)[::5]
            ref = np.array([ContinuumFamily(m, SampledPV(grid, fam.u[i]), fam.side,
                                            fam.d[i:i + 1], fam.coef[i:i + 1],
                                            fam.kernel_orders).pair(vec)[0]
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

    def test_kernel_contributes_to_continuum_branch(self, default_spec, default_grid):
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec,
                       kernel="separable_sqrt_exp")
        u = complex(default_grid.nodes[50])
        ser = perturb_continuous(m, u, 2, default_grid)
        assert ser.orders[1][1].kernel_orders == (1,)  # first-order kernel column
        assert abs(ser.orders[2][1].d[0]) > 0         # second-order d-component


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_one_point_series_is_the_assembled_member(default_spec, default_grid, kernel):
    # perturb_continuous at node u_i sums to the member that from_perturbation
    # holds at u_i: the same arrays, and the same pairing up to rounding
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec, kernel)
    s = BiorthogonalSystem.from_perturbation(m, 2, default_grid)
    vec = as_coeffs(random_analytic(np.random.default_rng(23)))
    for i in (7, default_grid.n // 2, default_grid.n - 3):
        ser = perturb_continuous(m, default_grid.nodes[i], 2, default_grid)
        for member, fam in ((ser.right_total(), s.cont_right),
                            (ser.left_total(), s.cont_left)):
            assert member.side == fam.side and member.kernel_orders == fam.kernel_orders
            assert np.array_equal(member.d, fam.d[i:i + 1])
            assert np.array_equal(member.coef, fam.coef[i:i + 1])
            got, ref = member.pair(vec)[0], fam.pair(vec)[i]
            assert abs(got - ref) <= 1e-13 * abs(ref)


def test_pair_with_analytic_vector(default_model, default_grid, axis_grid):
    s = BiorthogonalSystem.from_exact(default_model, default_grid)
    rng = np.random.default_rng(11)
    psi = random_analytic(rng)
    vec = as_coeffs(psi)
    # pairing <psi | f_disc> is finite and reproducible
    a = pair_coeffs(vec, s.disc_right, default_grid)
    b = pair_coeffs(vec, s.disc_right, default_grid)
    assert a == b


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
    for got, ref in ((a, s.cont_right.pair(as_coeffs(psi))),
                     (b, s.cont_left.pair(as_coeffs(phi)))):
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
    fams = [ContinuumFamily(default_model, SampledPV(default_grid), side,
                            np.zeros(default_grid.n), np.ones(default_grid.n))
            for side in (+1, -1)]
    vec = as_coeffs(random_analytic(np.random.default_rng(1)))
    with pytest.raises(EvaluationError):
        pair_families([(fams[0], vec), (fams[1], vec)])
