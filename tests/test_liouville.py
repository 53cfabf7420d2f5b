from dataclasses import replace

import numpy as np
import pytest

from respectra.contour import ContourGrid, ContourSpec, _stride
from respectra.dynamics import decay_rate, default_time_grid, oracle_survival_curve
from respectra.errors import ConfigError, EvaluationError
from respectra.liouville import (BlockObservable, GeneralizedState, LiouvilleGrids,
                                 LiouvilleSystem, apply_L, check_physicality,
                                 evolve_state, identity_observable, relaxation_curve,
                                 unstable_state_functional)
from respectra.model import FormFactor, eval_V, make_model, separable_test_kernel
from respectra.oracle import DiscretizedSystem, commutator_apply, discretize


@pytest.fixture(scope="module")
def li_model():
    return make_model("sqrt_exp", [1.0], 1.0, 0.1,
                      ContourSpec(depth=0.5, cutoff=20.0, n_nodes=128))


@pytest.fixture(scope="module")
def li_grids(li_model):
    return LiouvilleGrids.for_model(li_model)


@pytest.fixture(scope="module")
def li_sys(li_model, li_grids):
    return LiouvilleSystem(li_model, li_grids)


def _rnd_profile(rng):
    c = rng.standard_normal(3) / 2
    a = rng.uniform(0.4, 1.0, 3)
    return lambda z, c=c, a=a: sum(ci * np.exp(-ai * np.asarray(z, complex))
                                   for ci, ai in zip(c, a))


def observable_to_matrix(O: BlockObservable, dsys: DiscretizedSystem) -> np.ndarray:
    """Dense image of a block observable on the oracle's midpoint grid."""
    n = dsys.n
    w = dsys.grid
    dw = dsys.d_omega
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[0, 0] = O.o1
    if O.o_omega is not None:
        M[1:, 1:] += np.diag(np.asarray(O.o_omega(w), dtype=complex))
    if O.o_omom is not None:
        M[1:, 1:] += np.asarray(O.o_omom(w[:, None], w[None, :]), dtype=complex) * dw
    if O.o_om1 is not None:
        M[1:, 0] = np.asarray(O.o_om1(w), dtype=complex) * np.sqrt(dw)
    if O.o_1om is not None:
        M[0, 1:] = np.asarray(O.o_1om(w), dtype=complex) * np.sqrt(dw)
    return M


def matrix_blocks(M: np.ndarray, dsys: DiscretizedSystem) -> dict:
    """Inverse of ``observable_to_matrix`` up to the singular-diagonal split."""
    dw = dsys.d_omega
    return {
        "o1": complex(M[0, 0]),
        "o_om1": np.asarray(M[1:, 0]) / np.sqrt(dw),
        "o_1om": np.asarray(M[0, 1:]) / np.sqrt(dw),
        "o_omom_plus_diag": np.asarray(M[1:, 1:]) / dw,
    }


class TestApplyL:
    def test_identity_is_annihilated(self, li_model, li_grids):
        out = apply_L(li_model, identity_observable(), li_grids)
        w = li_grids.real.nodes.real[::40]
        assert abs(out.o1) < 1e-14
        assert out.o_omega is None
        assert np.max(np.abs(out.o_om1(li_grids.gamma_bar.nodes[::20]))) < 1e-14
        assert np.max(np.abs(out.o_1om(li_grids.gamma.nodes[::20]))) < 1e-14

    def test_free_action_scales_blocks(self, li_grids):
        m0 = make_model("sqrt_exp", [1.0], 1.0, 0.0,
                        ContourSpec(depth=0.5, cutoff=20.0, n_nodes=128))
        f = lambda z: np.exp(-0.5 * np.asarray(z, complex))
        O = BlockObservable(o_om1=f, o_1om=f)
        out = apply_L(m0, O, li_grids)
        z = li_grids.gamma_bar.nodes[::25]
        assert np.max(np.abs(out.o_om1(z) - (z - 1.0) * f(z))) < 1e-14
        zp = li_grids.gamma.nodes[::25]
        assert np.max(np.abs(out.o_1om(zp) - (1.0 - zp) * f(zp))) < 1e-14

    def test_against_matrix_commutator(self, li_model, rng):
        # same midpoint measure on both sides isolates the block algebra
        dsys = discretize(li_model, 400)
        w, dw = dsys.grid, dsys.d_omega
        spec = li_model.contour
        mid = ContourGrid(spec.cutoff, w.astype(complex), np.full(len(w), dw, dtype=complex),
                          np.ones(len(w), dtype=complex))
        grids = LiouvilleGrids(mid)
        O = BlockObservable(o1=0.7 + 0j, o_omega=_rnd_profile(rng),
                            o_omom=(lambda f1, f2: (lambda z, zp: f1(z) * f2(zp)))(
                                _rnd_profile(rng), _rnd_profile(rng)),
                            o_om1=_rnd_profile(rng), o_1om=_rnd_profile(rng))
        LO = apply_L(li_model, O, grids)
        blocks = matrix_blocks(commutator_apply(dsys, observable_to_matrix(O, dsys)),
                               dsys)
        assert abs(LO.o1 - blocks["o1"]) < 1e-8
        assert np.max(np.abs(LO.o_om1(w) - blocks["o_om1"])) < 1e-8
        assert np.max(np.abs(LO.o_1om(w) - blocks["o_1om"])) < 1e-8
        assert np.max(np.abs(LO.o_omom(w[:, None], w[None, :])
                             - blocks["o_omom_plus_diag"])) < 1e-8

    def test_requires_plain_coupling(self, li_grids):
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                       ContourSpec(depth=0.5, cutoff=20.0, n_nodes=128),
                       kernel=separable_test_kernel())
        with pytest.raises(EvaluationError):
            apply_L(m, identity_observable(), li_grids)

    def test_p0_block_product_vanishes_identically(self, li_model, li_grids):
        # the interaction maps the invariant sector entirely out of itself:
        # no level or diagonal block ever comes back at first order
        rng = np.random.default_rng(3)
        O = BlockObservable(o1=1.3 + 0j, o_omega=_rnd_profile(rng))
        out = apply_L(li_model, O, li_grids)
        assert out.o1 == 0j            # interaction part: no 1-block from P0
        assert out.o_omega is None     # and never a diagonal block


class TestZeroSector:
    def test_decay_eigenvalue(self, li_model, li_sys):
        v2 = float(np.real(eval_V(li_model, 1.0) ** 2))
        assert abs(li_sys.lam_d - 2j * np.pi * v2) < 1e-10
        assert abs(li_sys.lam_d.real) < 1e-12

    def test_free_limit(self, li_grids):
        m0 = make_model("sqrt_exp", [1.0], 1.0, 0.0,
                        ContourSpec(depth=0.5, cutoff=20.0, n_nodes=128))
        assert LiouvilleSystem(m0, li_grids).lam_d == 0.0

    def test_level_outside_window_rejected(self):
        # diagonal atom at the level is undefined when the grids' continuum
        # window does not contain it
        m = make_model("sqrt_exp", [1.0], 1.5, 0.05,
                       ContourSpec(depth=0.2, cutoff=20.0, n_nodes=64))
        narrow = LiouvilleGrids.for_model(
            make_model("sqrt_exp", [1.0], 0.5, 0.05,
                       ContourSpec(depth=0.2, cutoff=1.2, n_nodes=64)))
        with pytest.raises(EvaluationError):
            LiouvilleSystem(m, narrow)

    def test_complex_coupling_rejected(self, li_model):
        # a constant phase keeps |V| but makes V complex on the positive axis
        ff = li_model.form_factor
        phased = replace(li_model, form_factor=FormFactor(
            "phased", (), lambda z: np.exp(0.3j) * ff.fn(z)))
        with pytest.raises(EvaluationError, match="real on the positive axis"):
            LiouvilleSystem(phased)

    def test_zero_sector_orthogonality_atoms(self, li_model, li_sys):
        # symbolic atom bookkeeping of the degenerate sector
        left, right = li_sys.decay_left, li_sys.decay_right
        # (Psi_d|Phi_d): level against level (curve blocks are orthogonal to
        # the invariant-sector functionals)
        assert left.c1 * right.c1 == 1.0
        # (Psi_omega~|Phi_d): the decay operator has no diagonal block to pair
        assert not right.atoms and right.omega_smooth is None
        # (Psi_d|Phi_omega~): the level reading of |omega~) + delta(omega~-L)|1)
        # cancels against the -(L| atom exactly at omega~ = L
        atom_weights = dict(left.atoms)
        assert atom_weights[li_model.omega_level] == -1.0
        assert left.c1 + atom_weights[li_model.omega_level] == 0.0

    def test_zero_sector_completeness(self, li_model, li_grids, rng):
        # P0 reconstruction acts as the identity on invariant-sector states
        g = _rnd_profile(rng)
        rho = GeneralizedState(c1=0.4 + 0j, omega_smooth=lambda w: np.real(g(w)),
                               atoms=((2.5, 0.2),))
        O = BlockObservable(o1=0.9 + 0j, o_omega=_rnd_profile(rng))
        direct = rho.expect(O, li_grids)
        om = li_model.omega_level
        o_at_level = complex(np.asarray(O.o_omega(om)).item())
        # decay mode: (rho|Phi_d)(Psi_d|O) with (rho|Phi_d) = c1
        recon = rho.c1 * (O.o1 - o_at_level)
        # invariant family: \int dm (rho|Phi_m)(m|O) with the atom algebra
        w = li_grids.real.nodes.real
        ww = li_grids.real.weights.real
        recon += np.sum(ww * np.asarray(rho.omega_smooth(w)) * np.asarray(O.o_omega(w)))
        recon += 0.2 * complex(np.asarray(O.o_omega(2.5)).item())
        recon += rho.c1 * o_at_level
        assert abs(recon - direct) < 1e-8


class TestBranches:
    def test_free_limit(self, li_grids):
        m0 = make_model("sqrt_exp", [1.0], 1.0, 0.0,
                        ContourSpec(depth=0.5, cutoff=20.0, n_nodes=128))
        u = complex(li_grids.gamma_bar.nodes[40])
        sys0 = LiouvilleSystem(m0, li_grids)
        assert sys0.lam_u1(u) == u - 1.0 and sys0.shift_lower == 0.0

    def test_upper_shift(self, li_model, li_sys):
        v2 = float(np.real(eval_V(li_model, 1.0) ** 2))
        assert abs(li_sys.shift_lower.imag - np.pi * v2) < 1e-10
        assert abs(li_sys.shift_upper.imag - np.pi * v2) < 1e-10

    def test_eigenvalue_symmetry(self, li_sys):
        assert li_sys.symmetry_defect() < 1e-10

    def test_branch_point_must_be_a_node(self, li_grids, li_sys):
        u = complex(li_grids.gamma_bar.nodes[25])
        with pytest.raises(EvaluationError):
            li_sys.left_u1(u + 1e-3)
        with pytest.raises(EvaluationError):
            li_sys.left_1u(u)                # an upper-curve point
        with pytest.raises(EvaluationError):
            li_sys.left_uu(u, u)

    def test_physicality(self, li_grids, li_sys):
        ok, val = check_physicality(li_sys.decay_left, li_sys.lam_d, li_grids)
        assert ok and val == 0.0
        u = complex(li_grids.gamma_bar.nodes[25])
        up = np.conj(u)
        for left, eigenvalue in ((li_sys.left_u1(u), li_sys.lam_u1(u)),
                                 (li_sys.left_1u(up), li_sys.lam_1u(up)),
                                 (li_sys.left_uu(u, up), u - up)):
            ok, val = check_physicality(left, eigenvalue, li_grids)
            assert ok and val <= 1e-8

    def test_left_functionals_annihilate_the_identity_at_every_node(self, li_grids, li_sys):
        # (Psi|I) of the decay mode and of both single branches, at every
        # node of both curves: the level part cancels the diagonal atom exactly
        assert li_sys.decay_left.normalization(li_grids) == 0.0
        for u in li_grids.gamma_bar.nodes:
            assert li_sys.left_u1(u).normalization(li_grids) == 0.0
        for up in li_grids.gamma.nodes:
            assert li_sys.left_1u(up).normalization(li_grids) == 0.0

    def test_invariant_family_carries_probability(self, li_grids):
        inv = GeneralizedState(atoms=((2.0, 1.0 + 0j),))
        assert inv.normalization(li_grids) == 1.0
        assert check_physicality(inv, 0.0, li_grids) == (True, 1.0)


class TestEvolution:
    def test_negative_time_refused(self, li_sys):
        with pytest.raises(ConfigError):
            evolve_state(li_sys, unstable_state_functional(), -1.0)

    def test_non_invariant_input_refused(self, li_grids, li_sys):
        rho = GeneralizedState(c1=1.0 + 0j, f_om1=np.zeros(li_grids.gamma_bar.n, complex),
                               grids=li_grids)
        with pytest.raises(ConfigError):
            evolve_state(li_sys, rho, 1.0)

    def test_initial_state_recovered(self, li_model, li_grids):
        lsys = LiouvilleSystem(li_model, li_grids)
        st = evolve_state(lsys, unstable_state_functional(), 0.0)
        # fourth-order-coherent at t=0
        assert abs(st.c1 - 1.0) < 5e-4
        assert abs(st.atom_weight(1.0, li_grids)) < 5e-4
        assert abs(st.normalization(li_grids) - 1.0) < 1e-12

    def test_survival_and_atom_growth(self, li_model, li_grids):
        lsys = LiouvilleSystem(li_model, li_grids)
        rate = decay_rate(li_model)
        rho0 = unstable_state_functional()
        for t in (0.5 / rate, 1.5 / rate):
            st = evolve_state(lsys, rho0, t)
            assert abs(st.c1 - np.exp(-rate * t)) < 5.0 * li_model.coupling**2
            aw = st.atom_weight(1.0, li_grids)
            assert abs(aw - (1.0 - np.exp(-rate * t))) < 5.0 * li_model.coupling**2
            assert abs(st.c1.imag) < 1e-14
            assert abs(st.normalization(li_grids) - 1.0) < 1e-8
            assert abs(st.atom_weight(1.0, li_grids) + st.c1 - 1.0) < 1e-12

    def test_off_resonance_atoms_are_invariant(self, li_model, li_grids):
        lsys = LiouvilleSystem(li_model, li_grids)
        rho0 = GeneralizedState(c1=0.5 + 0j, atoms=((3.0, 0.5),))
        st = evolve_state(lsys, rho0, 8.0)
        kept = [w for p, w in st.atoms if abs(p - 3.0) < 1e-12]
        assert kept and abs(kept[0] - 0.5) < 1e-15
        assert abs(st.normalization(li_grids) - 1.0) < 1e-8

    def test_matches_hilbert_oracle(self, li_model):
        # short-window consistency at the default coupling; the acceptance
        # suite runs the full window at a smaller coupling
        grids = LiouvilleGrids.for_model(li_model, n_nodes=100)
        lsys = LiouvilleSystem(li_model, grids)
        rate = decay_rate(li_model)
        ts = np.linspace(0.0, 1.2 / rate, 40)
        c1 = np.array([evolve_state(lsys, unstable_state_functional(), float(t)).c1.real
                       for t in ts])
        orac = oracle_survival_curve(li_model, ts, n_levels=1500)
        assert np.max(np.abs(c1 - orac.survival)) < 4.5e-3


    def test_five_block_pairing(self, li_model, li_grids, li_sys, rng):
        # the sampled densities of a relaxed state paired with every block
        # equal a quadrature of the closed-form densities
        om, rate = li_model.omega_level, decay_rate(li_model)
        zu, zl = li_grids.gamma_bar.nodes, li_grids.gamma.nodes
        wu, wl = li_grids.gamma_bar.weights, li_grids.gamma.weights
        a = lambda z: eval_V(li_model, z) / (z - om)
        f, g, h = _rnd_profile(rng), _rnd_profile(rng), _rnd_profile(rng)
        kern = lambda z, zp: np.exp(-0.2 * z - 0.3 * zp - 0.05 * z * zp)
        blocks = {"o_omega": BlockObservable(o_omega=f), "o_om1": BlockObservable(o_om1=g),
                  "o_1om": BlockObservable(o_1om=h), "o_omom": BlockObservable(o_omom=kern),
                  "all": BlockObservable(o1=0.7 + 0j, o_omega=f, o_om1=g, o_1om=h,
                                         o_omom=kern)}
        for t in (0.5 / rate, 2.0 / rate):
            st = evolve_state(li_sys, unstable_state_functional(), t)
            dp = np.exp(1j * li_sys.lam_d * t) / li_sys.norm_d
            e_u1 = np.exp(1j * li_sys.lam_u1(zu) * t) / li_sys.norm_u1
            e_1u = np.exp(1j * li_sys.lam_1u(zl) * t) / li_sys.norm_1u
            f_om1 = a(zu) * (e_u1 - dp)
            f_1om = a(zl) * (e_1u - dp)
            z, zp = zu[:, None], zl[None, :]
            f_omom = a(z) * a(zp) * (dp - e_u1[:, None] - e_1u[None, :]
                                     + np.exp(1j * (z - zp) * t))
            g_up = -a(zu) ** 2 * e_u1
            g_dn = -a(zl) ** 2 * e_1u
            ref = {"o_omega": (1 - dp) * f(om) + np.sum(wu * g_up * f(zu))
                   + np.sum(wl * g_dn * f(zl)),
                   "o_om1": np.sum(wu * f_om1 * g(zu)),
                   "o_1om": np.sum(wl * f_1om * h(zl)),
                   "o_omom": wu @ (f_omom * kern(z, zp)) @ wl}
            ref["all"] = 0.7 * st.c1 + sum(ref.values())
            for name, O in blocks.items():
                got = st.expect(O, li_grids)
                assert abs(got - ref[name]) <= 1e-12 * abs(ref[name]), name

    def test_pairing_refuses_other_grids(self, li_model, li_sys):
        st = evolve_state(li_sys, unstable_state_functional(), 1.0)
        other = LiouvilleGrids.for_model(li_model)
        with pytest.raises(EvaluationError):
            st.expect(identity_observable(), other)
        with pytest.raises(EvaluationError):
            st.atom_weight(li_model.omega_level, other)
        with pytest.raises(EvaluationError):
            li_sys.decay_right.expect(identity_observable(), other)

class TestRelaxationCurve:
    @pytest.mark.parametrize("n_nodes", [100, 150])
    def test_matches_the_state_at_each_time(self, n_nodes):
        m = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                       ContourSpec(depth=0.5, cutoff=20.0, n_nodes=n_nodes))
        lsys = LiouvilleSystem(m)
        om, grids = m.omega_level, lsys.grids
        ts = default_time_grid(m, 200)
        starts = (unstable_state_functional(),
                  # an atom off the resonance, one on it and a diagonal density
                  GeneralizedState(c1=0.5 + 0j, atoms=((3.0, 0.3 + 0j), (om, 0.1 + 0j)),
                                   omega_smooth=lambda w: 0.1 * np.exp(-w)))
        for rho0 in starts:
            curve = relaxation_curve(lsys, rho0, ts)
            states = [evolve_state(lsys, rho0, float(t)) for t in ts]
            for got, want in ((curve.level, [st.c1 for st in states]),
                              (curve.atom_weight, [st.atom_weight(om, grids) for st in states]),
                              (curve.normalization, [st.normalization(grids) for st in states])):
                want = np.array(want)
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_refuses_what_evolve_state_refuses(self, li_model, li_grids, li_sys):
        with pytest.raises(ConfigError):
            relaxation_curve(li_sys, unstable_state_functional(), [0.0, 1.0, -1.0])
        rho = GeneralizedState(c1=1.0 + 0j, f_om1=np.zeros(li_grids.gamma_bar.n, complex),
                               grids=li_grids)
        with pytest.raises(ConfigError):
            relaxation_curve(li_sys, rho, [1.0])

    def test_branch_sums_in_blocks_of_times(self, li_model, li_sys, monkeypatch):
        # on a non-uniform grid every time is an anchor; a phase table cut
        # into blocks of anchors gives the table in one piece, and with it
        # the level population, made of the decay phase and the branch sums
        ts = 40.0 * np.linspace(0.0, 1.0, 37) ** 2
        assert _stride(ts, li_sys.grids.gamma.n) == (1, 0.0)
        rho = unstable_state_functional()
        whole = relaxation_curve(li_sys, rho, ts).level
        monkeypatch.setattr("respectra.contour.PHASE_BLOCK_ENTRIES", 5 * li_sys.grids.gamma.n)
        blocks = relaxation_curve(li_sys, rho, ts).level
        assert np.max(np.abs(whole - blocks)) <= 1e-15 * np.max(np.abs(whole))


def test_level_projector_expectation(li_model, li_grids):
    rho = unstable_state_functional()
    assert rho.expect(BlockObservable(o1=1.0), li_grids) == 1.0
    assert rho.normalization(li_grids) == 1.0
