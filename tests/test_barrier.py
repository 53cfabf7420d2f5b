from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from respectra import barrier
from respectra.barrier import (BarrierSpec, BoundState, ScatteringState,
                               bound_state_residual, coupling_vs_k,
                               even_scattering_state, matrix_elements, resonance_width,
                               solve_bound_state, to_friedrichs_model, width_sweep)
from respectra.errors import ChannelClosedError, ConfigError
from respectra.perturbation import perturb_discrete

# channel-open acceptance parameters: chosen so the doubled-drop run stays
# open and the width ratio sits on the quadratic law (see test below)
SPEC_OPEN = dict(a=0.8, b=10.0, v0=0.25, v1=0.092)


def bound_wavefunction(spec: BarrierSpec, bs: BoundState):
    """The bound state as a function of x, the quadrature reference for its
    closed-form normalization and overlaps."""
    def psi(x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x < spec.a, bs.n_inside * np.cos(bs.q * x),
                        bs.a_outside * np.exp(-bs.kappa * x))
    return psi


def scattering_wavefunction(spec: BarrierSpec, st: ScatteringState):
    """A scattering state as a function of x, the quadrature reference for its
    closed-form overlaps."""
    def psi(x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x < spec.a, st.b_inside * np.cos(st.q * x),
                        st.c_outside * np.cos(st.k * x + st.delta))
    return psi


def _bisect_bound_energy(a, v0, mu=1.0, hbar=1.0):
    """Independent solve of the even matching condition by plain bisection on
    z tan z = sqrt(z0^2 - z^2), z = (inside wavenumber) * a."""
    z0 = a * np.sqrt(2 * mu * v0) / hbar
    lo, hi = 1e-9, z0 - 1e-15
    f = lambda z: z * np.tan(z) - np.sqrt(z0**2 - z**2)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    z = 0.5 * (lo + hi)
    return (z / a) ** 2 * hbar**2 / (2 * mu)


class TestSpecValidation:
    def test_shallow_well_condition(self):
        with pytest.raises(ConfigError):
            BarrierSpec(a=2.0, b=12.0, v0=1.0, v1=0.2)   # z0 > pi/2

    def test_outer_edge_ratio(self):
        with pytest.raises(ConfigError):
            BarrierSpec(a=1.0, b=3.0, v0=0.3, v1=0.1)

    def test_drop_range(self):
        with pytest.raises(ConfigError):
            BarrierSpec(a=1.0, b=6.0, v0=0.3, v1=0.0)
        with pytest.raises(ConfigError):
            BarrierSpec(a=1.0, b=6.0, v0=0.3, v1=0.4)


class TestBoundState:
    def test_against_bisection_oracle(self):
        spec = BarrierSpec(**SPEC_OPEN)
        bs = solve_bound_state(spec)
        e_ref = _bisect_bound_energy(spec.a, spec.v0)
        assert abs(bs.e1 - e_ref) < 1e-12
        assert bound_state_residual(spec, bs) <= 1e-10

    def test_shallow_limit_binds_weakly(self):
        # as the well weakens the level climbs toward the continuum edge
        e_frac = []
        for v0 in (0.3, 0.05, 0.005):
            spec = BarrierSpec(a=1.0, b=10.0, v0=v0, v1=v0 / 4)
            bs = solve_bound_state(spec)
            e_frac.append((v0 - bs.e1) / v0)   # binding fraction
        assert e_frac[0] > e_frac[1] > e_frac[2]
        assert e_frac[2] < 0.02

    @given(a=st.floats(0.05, 5.0), strength=st.floats(0.01, 0.999))
    def test_matches_brentq(self, a, strength):
        # the bracketed Newton-bisection solve finds brentq's root of the even
        # matching condition, z0 = a sqrt(2 v0) = strength pi / 2
        v0 = 0.5 * (strength * np.pi / 2 / a) ** 2
        spec = BarrierSpec(a=a, b=5 * a, v0=v0, v1=v0 / 2)
        z0 = a * np.sqrt(2 * v0)
        z = brentq(lambda z: z * np.tan(z) - np.sqrt(z0**2 - z**2), 1e-12, z0 * (1 - 1e-14),
                   xtol=1e-15, rtol=8.9e-16, maxiter=200)
        assert abs(solve_bound_state(spec).q - z / a) <= 1e-14 * z / a

    def test_normalization_closed_form_vs_quad(self):
        spec = BarrierSpec(**SPEC_OPEN)
        bs = solve_bound_state(spec)
        psi = bound_wavefunction(spec, bs)
        inner, _ = si.quad(lambda x: psi(x) ** 2, 0, spec.a, limit=200)
        outer, _ = si.quad(lambda x: psi(x) ** 2, spec.a, 80.0, limit=400)
        assert abs(2 * (inner + outer) - 1.0) < 1e-10


class TestScatteringStates:
    def test_free_limit_phase(self):
        spec = BarrierSpec(a=1.0, b=6.0, v0=1e-10, v1=0.4e-10)
        st = even_scattering_state(spec, 0.8)
        assert abs(st.delta % np.pi) < 1e-5 or abs(st.delta % np.pi - np.pi) < 1e-5

    def test_k_positive_required(self):
        spec = BarrierSpec(**SPEC_OPEN)
        with pytest.raises(ConfigError):
            even_scattering_state(spec, 0.0)

    def test_orthogonality_to_bound_state(self):
        spec = BarrierSpec(**SPEC_OPEN)
        bs = solve_bound_state(spec)
        psi1 = bound_wavefunction(spec, bs)
        for k in (0.3, 0.9, 2.0):
            st = even_scattering_state(spec, k)
            psik = scattering_wavefunction(spec, st)
            inner, _ = si.quad(lambda x: psi1(x) * psik(x), 0, spec.a, limit=200)
            mid, _ = si.quad(lambda x: psi1(x) * psik(x), spec.a, 60.0, limit=600)
            # analytic tail of e^{-kappa x} cos(kx + delta) beyond the window
            kap, d = bs.kappa, st.delta
            R = 60.0
            tail = bs.a_outside * st.c_outside * np.real(
                np.exp((1j * k - kap) * R + 1j * d) / (kap - 1j * k))
            assert abs(2 * (inner + mid + tail)) < 1e-10

    def test_weak_delta_normalization(self):
        # wavepacket trick: F_g(x) = \int dk' g(k') psi_k'(x) decays, and
        # <psi_k|F_g> must return g(k)
        spec = BarrierSpec(**SPEC_OPEN)
        k0, sig = 0.8, 0.12
        g = lambda k: np.exp(-0.5 * ((k - k0) / sig) ** 2)
        ks = np.linspace(k0 - 6 * sig, k0 + 6 * sig, 301)
        states = [even_scattering_state(spec, float(k)) for k in ks]

        def packet(x):
            vals = np.array([scattering_wavefunction(spec, st)(x) for st in states])
            return np.trapezoid(g(ks)[:, None] * vals, ks, axis=0)

        k_probe = 0.86
        st = even_scattering_state(spec, k_probe)
        psi = scattering_wavefunction(spec, st)
        xs = np.linspace(0, 120.0, 6001)
        integrand = 2.0 * psi(xs) * packet(xs)
        got = np.trapezoid(integrand, xs)
        assert abs(got - g(k_probe)) < 1e-4


class TestMatrixElements:
    def test_linearity_in_drop(self):
        s1 = BarrierSpec(a=0.8, b=10.0, v0=0.25, v1=0.05)
        s2 = BarrierSpec(a=0.8, b=10.0, v0=0.25, v1=0.10)
        m1 = matrix_elements(s1)
        m2 = matrix_elements(s2)
        assert abs(m2["v11"] - 2 * m1["v11"]) < 1e-14
        assert np.max(np.abs(m2["v_1k"] - 2 * m1["v_1k"])) < 1e-13
        assert np.max(np.abs(m2["v_kk"] - 2 * m1["v_kk"])) < 1e-13

    def test_kernel_against_quadrature(self):
        # v_kk' = 2 v1 \int_0^b psi_k psi_k' dx, on and off the diagonal, with
        # each state built at its own wavenumber
        spec = BarrierSpec(**SPEC_OPEN)
        me = matrix_elements(spec)
        for i, j in ((0, 0), (5, 30), (20, 21), (47, 47)):
            psi_i, psi_j = (scattering_wavefunction(spec, even_scattering_state(spec, k))
                            for k in me["k_grid"][[i, j]])
            ref = 2 * spec.v1 * sum(
                si.quad(lambda x: psi_i(x) * psi_j(x), lo, hi, limit=400)[0]
                for lo, hi in ((0.0, spec.a), (spec.a, spec.b)))
            assert abs(me["v_kk"][i, j] - ref) < 1e-12

    def test_level_shift_negative_and_suppressed(self):
        me = matrix_elements(BarrierSpec(**SPEC_OPEN))
        assert me["v11"] < 0
        assert abs(me["v11"]) < 1e-3

    def test_coupling_suppression_slope(self):
        # the coupling envelope decays like exp(-kappa b); sampling the
        # barrier length one oscillation period apart freezes the trig factor
        # so the log-slope isolates the tunneling exponent
        spec = BarrierSpec(**SPEC_OPEN)
        bs = solve_bound_state(spec)
        k = 0.5
        period = 2 * np.pi / k
        bvals = np.array([8.0, 8.0 + period, 8.0 + 2 * period])
        vals = []
        for b in bvals:
            s = BarrierSpec(a=spec.a, b=float(b), v0=spec.v0, v1=spec.v1)
            vals.append(abs(complex(coupling_vs_k(s, bs, complex(k)))))
        slope = np.polyfit(bvals, np.log(vals), 1)[0]
        assert abs(slope + bs.kappa) / bs.kappa < 0.02

    def test_hermiticity(self):
        me = matrix_elements(BarrierSpec(**SPEC_OPEN))
        # real wavefunctions: the coupling is real and the kernel symmetric
        assert np.max(np.abs(np.imag(me["v_1k"]))) == 0.0
        assert np.max(np.abs(me["v_kk"] - me["v_kk"].T)) < 1e-14

    def test_analytic_continuation_matches_real_formula(self):
        spec = BarrierSpec(**SPEC_OPEN)
        bs = solve_bound_state(spec)
        for k in (0.2, 0.7, 1.4):
            st = even_scattering_state(spec, k)
            kap, b = bs.kappa, spec.b
            direct = -2 * spec.v1 * bs.a_outside * st.c_outside * np.exp(-kap * b) \
                * (kap * np.cos(k * b + st.delta) - k * np.sin(k * b + st.delta)) \
                / (kap**2 + k**2)
            assert abs(complex(coupling_vs_k(spec, bs, complex(k))) - direct) < 1e-12


class TestResonanceWidth:
    def test_closed_channel_raises(self):
        with pytest.raises(ChannelClosedError):
            resonance_width(BarrierSpec(a=0.8, b=10.0, v0=0.25, v1=0.02))
        with pytest.raises(ChannelClosedError):
            to_friedrichs_model(BarrierSpec(a=0.8, b=10.0, v0=0.25, v1=0.02))

    def test_width_positive_when_open(self):
        res = resonance_width(BarrierSpec(**SPEC_OPEN))
        assert res.width > 0 and res.k_tilde > 0
        assert res.survival_rate == res.width

    def test_generic_engine_cross_check(self):
        # the mapped level-plus-continuum model reproduces the closed-form
        # width through the deformed-contour shift
        spec = BarrierSpec(**SPEC_OPEN)
        res = resonance_width(spec)
        model = to_friedrichs_model(spec, n_nodes=1600)
        lam2 = perturb_discrete(model, 2).eigenvalue
        assert abs(-2.0 * lam2.imag - res.width) / res.width < 1e-8

    @pytest.mark.parametrize("n_nodes", [800, 1600, 3200])
    @pytest.mark.parametrize("geometry", [(0.703, 10.67, 0.244, 0.0885),
                                          (0.754, 10.41, 0.247, 0.0985),
                                          (0.8, 10.0, 0.25, 0.092)])
    def test_cross_check_does_not_drift_with_the_grid(self, geometry, n_nodes):
        # -2 Im lambda_2 stays within 1e-9 of the closed-form width as the
        # grid grows; Gauss weights that are inaccurate near the ends of a
        # panel make the gap grow with n at the first two geometries
        spec = BarrierSpec(*geometry)
        width = resonance_width(spec).width
        lam2 = perturb_discrete(to_friedrichs_model(spec, n_nodes=n_nodes), 2).eigenvalue
        assert abs(-2.0 * lam2.imag - width) / width <= 1e-9

    def test_width_quadratic_in_drop(self):
        s1 = BarrierSpec(**SPEC_OPEN)
        s2 = BarrierSpec(a=s1.a, b=s1.b, v0=s1.v0, v1=2 * s1.v1)
        ratio = resonance_width(s2).width / resonance_width(s1).width
        assert abs(ratio - 4.0) <= 0.4

    @pytest.mark.parametrize("n_b", [1, 5])
    def test_width_sweep_solves_the_well_once(self, monkeypatch, n_b):
        # the bound state does not depend on b: one solve serves every row,
        # and each row is the width of its own spec
        calls = []
        monkeypatch.setattr(barrier, "solve_bound_state",
                            lambda spec: calls.append(spec) or solve_bound_state(spec))
        spec = BarrierSpec(**SPEC_OPEN)
        rows = width_sweep(spec, spec.b * np.linspace(1.0, 1.6, n_b))
        assert len(rows) == n_b and len(calls) == 1
        assert [r["width"] for r in rows] == [
            resonance_width(replace(spec, b=r["b"])).width for r in rows]

    def test_width_sweep_suppression(self):
        # the width envelope carries exp(-2 kappa (b - a)); comparing one
        # coupling-oscillation period apart (fixed trig phase) doubles the
        # barrier-length exponent
        spec = BarrierSpec(**SPEC_OPEN)
        res = resonance_width(spec)
        bs = solve_bound_state(spec)
        period = 2 * np.pi / res.k_tilde
        rows = width_sweep(spec, [spec.b, spec.b + period])
        assert all(r["width"] > 0 for r in rows)
        ratio = rows[1]["width"] / rows[0]["width"]
        assert abs(np.log(ratio) + 2 * bs.kappa * period) / (2 * bs.kappa * period) < 0.05
