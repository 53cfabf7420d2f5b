"""Superoperator extension: five-block observables, generalized state
functionals, the decay mode, continuum branches and relaxation.

Observables carry blocks {1, omega (singular diagonal), omega-omega',
omega-1, 1-omega'}; the deformed generator acts block-wise with the
omega-omega' kernel living on the conjugate-curve x curve product.  Every
functional on that algebra is a ``GeneralizedState``: the states and the
left eigenfunctionals alike, each paired only through
``GeneralizedState.expect``.  Delta atoms on the singular diagonal are kept
symbolic (position, weight) and paired analytically, never sampled.

Requires a coupling that is real on the positive axis and no
continuum-continuum kernel; all branch formulas are second order.
``LiouvilleSystem`` is the one place that samples the two curves: one
``friedrichs.SampledEta`` per curve, on a ``model.SampledRows`` table of V
and Vbar at that curve's nodes alone, sampled once after one region check,
and the level profile a = V/(z - Omega) formed from that eta's own V row
give the decay mode, the branch eigenvalues, their shifts and left
functionals, the pair normalizers and the relaxed states.
A relaxed state holds its curve densities as node samples on the system's
grids (the kernel-block density as rank-one factor pairs) and pairs them
only on those grids, which ``LiouvilleGrids`` builds from the lower curve
alone.

Relaxation takes a system and reads its model, its decay phase and its two
branch sums, sum over the nodes of w exp(i lambda t), at many times at once;
each branch sum is one ``contour.phase_sum``.  ``evolve_state`` builds the state at one
time from them and from the branch phases at that time;
``relaxation_curve`` takes the level population, the weight at the
resonance position and the normalization at every time of a grid straight
from the sums, without building a state.

Sign conventions: the evolution factor is exp(+i lambda t), which sends the
decay eigenvalue lambda_d = 2 pi i V(Omega)^2 to the damping exp(-2 pi
V(Omega)^2 t).  The curve-1 branch lives on the upper curve, the 1-curve
branch on the lower one, and both second-order shifts point into the upper
half plane, so every factor decays for t > 0; curves too coarse for the
width can put an eigenvalue below the axis, which is a ``ContourError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .contour import ContourGrid, SampledPV, build_contour, phase_sum, real_axis_grid
from .dynamics import _check_times, decay_rate
from .errors import ConfigError, ContourError, EvaluationError
from .friedrichs import SampledEta
from .model import ModelSpec, SampledRows, eval_V


def _require_liouville_model(model: ModelSpec):
    if model.has_kernel():
        raise EvaluationError("the superoperator branch supports no continuum kernel")
    w = np.linspace(0.1, min(5.0, model.contour.cutoff / 2), 7)
    v = np.asarray(eval_V(model, w))
    if np.max(np.abs(v.imag)) > 1e-12 * max(1.0, np.max(np.abs(v))):
        raise EvaluationError("the superoperator branch requires a coupling that is "
                              "real on the positive axis")


class LiouvilleGrids:
    """The lower curve ``gamma``, its mirror ``gamma_bar`` and, for the
    singular block, the undeformed axis ``real`` with max(200, n) nodes."""

    def __init__(self, gamma: ContourGrid):
        self.gamma = gamma
        self.gamma_bar = gamma.conjugated()
        self.real = real_axis_grid(gamma.cutoff, max(200, gamma.n))

    @classmethod
    def for_model(cls, model: ModelSpec, n_nodes: int | None = None) -> "LiouvilleGrids":
        spec = model.contour
        if n_nodes is not None and n_nodes != spec.n_nodes:
            spec = replace(spec, n_nodes=n_nodes)
        return cls(build_contour(spec))


# --------------------------------------------------------------------------
# observables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockObservable:
    """Operator of the five-block class.  Continuum blocks are analytic
    callables (omega block two-sided near the positive axis)."""

    o1: complex = 0j
    o_omega: Callable | None = None
    o_omom: Callable | None = None     # (z upper, z' lower)
    o_om1: Callable | None = None      # z upper
    o_1om: Callable | None = None      # z' lower


def identity_observable() -> BlockObservable:
    return BlockObservable(o1=1.0 + 0j, o_omega=lambda z: np.ones_like(np.asarray(z, complex)))


def apply_L(model: ModelSpec, O: BlockObservable, grids: LiouvilleGrids) -> BlockObservable:
    """Block action of the commutator generator on an observable.

    The free part scales the off-diagonal blocks by (z - Omega), (Omega - z')
    and (z - z') and kills the 1 and omega blocks; the interaction mixes
    blocks through the coupling.  No omega-diagonal block is ever produced.
    The output is generally not Hermitian (a commutator is anti-Hermitian
    under conjugation), so no hermiticity is enforced here.
    """
    _require_liouville_model(model)
    om = model.omega_level
    o1, o_omega, o_omom = complex(O.o1), O.o_omega, O.o_omom

    def single(own: Callable | None, s: int, other: ContourGrid) -> Callable:
        """The singly continuous block s [(z - Omega) own(z) + V(z) (o1 -
        o_omega(z)) - \\int o_omom V over ``other``]: s = +1 gives the
        omega-1 block, whose z is the first argument of o_omom, and s = -1
        the 1-omega' block, whose z' is the second."""
        def block(z):
            z = np.asarray(z, dtype=complex)
            v = eval_V(model, z)
            out = (z - om) * (np.asarray(own(z)) if own is not None else 0.0) + v * o1
            if o_omega is not None:
                out = out - v * np.asarray(o_omega(z))
            if o_omom is not None:
                zz, x = z.reshape(-1, 1), other.nodes[None, :]
                k = np.asarray(o_omom(zz, x) if s > 0 else o_omom(x, zz))
                out = out - (k @ (other.weights * eval_V(model, other.nodes))).reshape(z.shape)
            return s * out
        return block

    def new_omom(z, zp):
        z = np.asarray(z, dtype=complex)
        zp = np.asarray(zp, dtype=complex)
        out = np.zeros(np.broadcast(z, zp).shape, dtype=complex)
        if o_omom is not None:
            out = out + (z - zp) * np.asarray(o_omom(z, zp))
        if O.o_1om is not None:
            out = out + eval_V(model, z) * np.asarray(O.o_1om(zp))
        if O.o_om1 is not None:
            out = out - eval_V(model, zp) * np.asarray(O.o_om1(z))
        return out

    # the upper-curve omega-1 block and the lower-curve 1-omega' block
    sides = ((O.o_om1, 1, grids.gamma_bar, grids.gamma),
             (O.o_1om, -1, grids.gamma, grids.gamma_bar))
    new_o1 = sum(s * np.sum(g.weights * eval_V(model, g.nodes) * np.asarray(own(g.nodes)))
                 for own, s, g, _ in sides if own is not None)
    fed = abs(o1) > 0 or o_omega is not None or o_omom is not None
    om1, one_om = (single(own, s, other) if own is not None or fed else None
                   for own, s, _, other in sides)
    paired = o_omom is not None or O.o_1om is not None or O.o_om1 is not None
    return BlockObservable(o1=complex(new_o1), o_omom=new_omom if paired else None,
                           o_om1=om1, o_1om=one_om)


# --------------------------------------------------------------------------
# states
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedState:
    """Functional on the observable algebra.

    The singular diagonal carries explicit atoms plus a smooth real-axis
    density.  Relaxed states additionally carry curve densities sampled at
    the nodes of ``grids``: ``f_om1`` and ``g_up`` on the upper curve,
    ``f_1om`` and ``g_dn`` on the lower one, and the kernel-block density as
    rank-one factor pairs ``f_omom = ((x_k, y_k), ...)``, the density at
    (z_i, z'_j) being sum_k x_k[i] y_k[j].  The g densities pair with the
    analytically continued omega block; their localized content at the
    resonance position ``g_loc`` is reported by ``atom_weight``.
    """

    c1: complex = 0j
    atoms: tuple = ()                       # ((position, weight), ...)
    omega_smooth: Callable | None = None
    f_om1: np.ndarray | None = None         # density on the upper curve
    f_1om: np.ndarray | None = None         # density on the lower curve
    f_omom: tuple = ()                      # ((upper factor, lower factor), ...)
    g_up: np.ndarray | None = None          # omega-block density on the upper curve
    g_dn: np.ndarray | None = None          # omega-block density on the lower curve
    g_loc: float | None = None              # localization point of the g densities
    grids: LiouvilleGrids | None = None     # grids the curve densities are sampled on

    def is_p0_supported(self) -> bool:
        return self.f_om1 is None and self.f_1om is None and not self.f_omom \
            and self.g_up is None and self.g_dn is None

    def _check_grids(self, grids: LiouvilleGrids):
        if grids is not self.grids and not self.is_p0_supported():
            raise EvaluationError("the curve densities of this state are sampled on "
                                  "other grids")

    def expect(self, O: BlockObservable, grids: LiouvilleGrids) -> complex:
        self._check_grids(grids)
        total = self.c1 * O.o1
        if self.atoms and O.o_omega is not None:
            for pos, wt in self.atoms:
                total += wt * complex(np.asarray(O.o_omega(pos)).item())
        if self.omega_smooth is not None and O.o_omega is not None:
            w = grids.real.nodes.real
            total += np.sum(grids.real.weights.real
                            * np.asarray(self.omega_smooth(w)) * np.asarray(O.o_omega(w)))
        up, dn = grids.gamma_bar, grids.gamma
        # curve densities against the matching observable block
        for dens, block, g in ((self.g_up, O.o_omega, up), (self.g_dn, O.o_omega, dn),
                               (self.f_om1, O.o_om1, up), (self.f_1om, O.o_1om, dn)):
            if dens is not None and block is not None:
                total += np.sum(g.weights * dens * np.asarray(block(g.nodes)))
        if self.f_omom and O.o_omom is not None:
            k = np.asarray(O.o_omom(up.nodes[:, None], dn.nodes[None, :]))
            total += sum((up.weights * x) @ k @ (dn.weights * y) for x, y in self.f_omom)
        return complex(total)

    def normalization(self, grids: LiouvilleGrids) -> complex:
        return self.expect(identity_observable(), grids)

    def atom_weight(self, position: float, grids: LiouvilleGrids) -> complex:
        """Weight concentrated at the given diagonal position: explicit atoms
        plus the localized content of the curve densities (whose poles sit at
        ``g_loc``)."""
        self._check_grids(grids)
        total = sum(wt for pos, wt in self.atoms
                    if abs(complex(pos) - position) < 1e-12)
        if self.g_loc is not None and abs(self.g_loc - position) < 1e-12:
            for dens, g in ((self.g_up, grids.gamma_bar), (self.g_dn, grids.gamma)):
                if dens is not None:
                    total += np.sum(g.weights * dens)
        return complex(total)


def unstable_state_functional() -> GeneralizedState:
    """The bare-level population functional (the pure state of the level)."""
    return GeneralizedState(c1=1.0 + 0j)


# --------------------------------------------------------------------------
# spectrum of the extended generator
# --------------------------------------------------------------------------

def check_physicality(left: GeneralizedState, eigenvalue: complex,
                      grids: LiouvilleGrids) -> tuple[bool, float]:
    """A left functional of nonzero eigenvalue (above 1e-10) must annihilate
    the identity; a zero mode may carry probability.  Returns
    (is_consistent, |(Psi|I)|)."""
    val = abs(left.normalization(grids))
    if abs(eigenvalue) > 1e-10:
        return (val <= 1e-8, val)
    return (True, val)


def _node(grid: ContourGrid, u: complex, curve: str) -> int:
    i = int(grid.node_indices(complex(u))[0])
    if i < 0:
        raise EvaluationError(f"branch point {u} must be a node of the {curve} curve")
    return i


class LiouvilleSystem:
    """Spectrum of the extended generator on one set of grids.

    This is the only code that samples the two curves: one ``SampledEta``
    per curve, on a table of its nodes alone, and the level profile a =
    V(z)/(z - Omega) from its V row give the decay mode (``lam_d``,
    ``decay_right``, ``decay_left``), the branch eigenvalues and left
    functionals, the pair normalizers and the decay phase and branch sums of
    ``evolve_state`` and ``relaxation_curve``.
    Every left functional is a ``GeneralizedState`` reduced to its level and
    diagonal content, the part that pairs with the identity; its atoms in
    the curve blocks are not kept.
    """

    def __init__(self, model: ModelSpec, grids: LiouvilleGrids | None = None):
        _require_liouville_model(model)
        self.model = model
        self.grids = grids if grids is not None else LiouvilleGrids.for_model(model)
        om = model.omega_level
        if not 0.0 < om < self.grids.gamma.cutoff:
            raise EvaluationError("the resonance position must lie inside the continuum "
                                  "window for the diagonal atom to be defined")
        self._etas = tuple(SampledEta(SampledRows(model, SampledPV(g, ())))
                           for g in (self.grids.gamma, self.grids.gamma_bar))
        self.a_lower, self.a_upper = (e.v / (e.grid.nodes - om) for e in self._etas)
        # \int V^2/(z - Omega) over the lower and over the upper curve
        lower, upper = (-e.moment(om) for e in self._etas)
        self.shift_lower, self.shift_upper = lower, -upper   # lam2 of u1 and of 1u
        # the t-independent weights of the branch sums, w V Vbar / (z - Omega)^2
        # per curve, and of the omega-block densities, V Vbar / (z - Omega)^2
        self._w_1u, self._w_u1 = (e.terms(om, 2) for e in self._etas)
        self._g_1u, self._g_u1 = (e.vv / (e.grid.nodes - om) ** 2 for e in self._etas)
        eta2_l, eta2_u = complex(np.sum(self._w_1u)), complex(np.sum(self._w_u1))
        # pair normalizers through second order
        self.norm_d = 1.0 + eta2_l + eta2_u
        self.norm_u1 = 1.0 + eta2_l
        self.norm_1u = 1.0 + eta2_u

        # Degenerate second-order solve on the invariant subspace: the level
        # population maps to itself with coefficient alpha = lower - upper and
        # diagonal densities map to the level with the opposite coefficient,
        # so the sector splits into the decay mode (eigenvalue alpha) and the
        # invariant continuum family (eigenvalue 0).
        self.lam_d = lower - upper
        self.decay_right = GeneralizedState(c1=1.0 + 0j, f_om1=-self.a_upper,
                                            f_1om=-self.a_lower,
                                            f_omom=((self.a_upper, self.a_lower),),
                                            grids=self.grids)
        self.decay_left = GeneralizedState(c1=1.0 + 0j, atoms=((om, -1.0 + 0j),))
        self._lam_u1 = self.lam_u1(self.grids.gamma_bar.nodes)
        self._lam_1u = self.lam_1u(self.grids.gamma.nodes)
        # exp(i lambda t) grows where Im lambda < 0, and overflows into NaN
        lowest = np.min(np.concatenate([[self.lam_d.imag], self._lam_u1.imag, self._lam_1u.imag]))
        if not lowest >= 0.0:
            raise ContourError(f"a mode grows: an eigenvalue has Im {lowest:.3g} < 0, lambda_d = "
                               f"{self.lam_d:.6g} against the golden rule's Im lambda_d = 2 pi "
                               f"|V(Omega)|^2 = {decay_rate(model):.6g}; add nodes to resolve "
                               "the width")

    def lam_u1(self, u) -> np.ndarray:
        return np.asarray(u, dtype=complex) - self.model.omega_level + self.shift_lower

    def lam_1u(self, up) -> np.ndarray:
        return self.model.omega_level - np.asarray(up, dtype=complex) + self.shift_upper

    def _left_single(self, grid: ContourGrid, a: np.ndarray, u: complex,
                     curve: str) -> GeneralizedState:
        i = _node(grid, u, curve)
        a_u = complex(a[i])
        return GeneralizedState(c1=a_u, atoms=((complex(grid.nodes[i]), -a_u),))

    def left_u1(self, u: complex) -> GeneralizedState:
        """Left functional of the branch on the upper-curve node u against the
        level: a(u) on the level and the atom -a(u) at u on the diagonal."""
        return self._left_single(self.grids.gamma_bar, self.a_upper, u, "upper")

    def left_1u(self, up: complex) -> GeneralizedState:
        """Left functional of the branch on the level against the lower-curve
        node u': a(u') on the level and the atom -a(u') at u'."""
        return self._left_single(self.grids.gamma, self.a_lower, up, "lower")

    def left_uu(self, u: complex, up: complex) -> GeneralizedState:
        """Left functional of the doubly continuous branch, eigenvalue u - u'
        with no shift: it has no level or diagonal content."""
        _node(self.grids.gamma_bar, u, "upper")
        _node(self.grids.gamma, up, "lower")
        return GeneralizedState()

    def symmetry_defect(self) -> float:
        """max over paired nodes u' = conj(u) of |lam_1u(u') + conj(lam_u1(u))|."""
        return float(np.max(np.abs(self._lam_1u + np.conj(self._lam_u1))))

    def _curve_sums(self, ts: np.ndarray) -> tuple:
        """The decay phase exp(i lam_d t) / N_d and the normalized branch sums
        over the upper nodes, exp(i lam_u1 t), and over the lower ones,
        exp(i lam_1u t), at every t of ts, each of shape (T,)."""
        return (np.exp(1j * self.lam_d * ts) / self.norm_d,
                phase_sum(ts, -self._lam_u1, self._w_u1) / self.norm_u1,
                phase_sum(ts, -self._lam_1u, self._w_1u) / self.norm_1u)


# --------------------------------------------------------------------------
# relaxation
# --------------------------------------------------------------------------

def _admit(rho0: GeneralizedState, ts: np.ndarray) -> None:
    """Refuse the times ``dynamics`` refuses and a functional off the invariant sector."""
    _check_times(ts)
    if not rho0.is_p0_supported():
        raise ConfigError("relaxation supports functionals on the invariant sector "
                          "(population, diagonal atoms, diagonal density) only")


def evolve_state(system: LiouvilleSystem, rho0: GeneralizedState, t: float) -> GeneralizedState:
    """Relaxed state functional of ``system.model`` at time t >= 0.

    The initial functional must be supported on the invariant sector (level
    population, diagonal atoms, diagonal density).  Mode content: the zeroth
    order invariant family, the decay mode through second order, the singly
    continuous branches through first order, and the doubly continuous branch
    with the coefficient fixed by the factorized form (upper generator on the
    left, lower on the right) of the extended commutator; every pair is
    divided by its second-order normalization.  Probability is conserved
    identically and the level population plus the weight grown at the
    resonance position sum to the initial population by construction.

    The curve densities of the result are node samples on ``system.grids``;
    the kernel-block density is kept as three rank-one factor pairs.
    """
    _admit(rho0, np.asarray(t, dtype=float))
    om = system.model.omega_level
    c1r = complex(rho0.c1)
    decay_phase, b_up, b_dn = (x[0] for x in system._curve_sums(np.array([float(t)])))
    surv = complex(decay_phase + b_up + b_dn)

    atoms = [(om, c1r * (1.0 - decay_phase))]
    for pos, wt in rho0.atoms:
        if abs(complex(pos) - om) < 1e-12:
            atoms[0] = (om, atoms[0][1] + wt)
        else:
            atoms.append((pos, wt))
    state = GeneralizedState(c1=c1r * surv, atoms=tuple(atoms),
                             omega_smooth=rho0.omega_smooth, grids=system.grids)
    if abs(c1r) == 0:
        return state

    zu, zl = system.grids.gamma_bar.nodes, system.grids.gamma.nodes
    a_u, a_l = system.a_upper, system.a_lower
    n_u1, n_1u = system.norm_u1, system.norm_1u
    ph_u1, ph_1u = np.exp(1j * system._lam_u1 * t), np.exp(1j * system._lam_1u * t)
    # off-diagonal block densities of the singly continuous branches
    f_om1 = c1r * a_u * (ph_u1 / n_u1 - decay_phase)
    f_1om = c1r * a_l * (ph_1u / n_1u - decay_phase)
    # a(z) a(z') [decay - u1(z) - 1u(z') + exp(i (z - z') t)]
    f_omom = ((-f_om1, a_l),
              (c1r * a_u, -a_l * ph_1u / n_1u),
              (c1r * a_u * np.exp(1j * zu * t), a_l * np.exp(-1j * zl * t)))
    return replace(
        state, f_om1=f_om1, f_1om=f_1om, f_omom=f_omom,
        # omega-block densities of the singly continuous branches
        g_up=-c1r * system._g_u1 * ph_u1 / n_u1,
        g_dn=-c1r * system._g_1u * ph_1u / n_1u,
        g_loc=om)


@dataclass(frozen=True)
class RelaxationCurve:
    """What ``evolve_state`` reports of the relaxed state, at every time of a
    grid: ``level`` its c1, ``atom_weight`` its weight at the resonance
    position and ``normalization`` (rho_t | I)."""

    level: np.ndarray
    atom_weight: np.ndarray
    normalization: np.ndarray


def relaxation_curve(system: LiouvilleSystem, rho0: GeneralizedState, ts) -> RelaxationCurve:
    """The level population, the weight at the resonance position and the
    normalization of ``evolve_state(system, rho0, t)`` at every t of ts,
    from the system's decay phase and branch sums over the whole grid.

    The state is never built: its omega-block densities pair with the
    identity to -rho0.c1 times the branch sums, so each column is made of the
    decay phase, the branch sums and the time-independent atoms and diagonal
    density of rho0."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    _admit(rho0, ts)
    om = system.model.omega_level
    c1r = complex(rho0.c1)
    decay, b_up, b_dn = system._curve_sums(ts)
    at_level = sum(wt for pos, wt in rho0.atoms if abs(complex(pos) - om) < 1e-12)
    others = sum(wt for pos, wt in rho0.atoms if abs(complex(pos) - om) >= 1e-12)
    if rho0.omega_smooth is not None:
        w = system.grids.real.nodes.real
        others += np.sum(system.grids.real.weights.real * np.asarray(rho0.omega_smooth(w)))
    level = c1r * (decay + b_up + b_dn)
    g_up, g_dn = -c1r * b_up, -c1r * b_dn
    explicit = c1r * (1.0 - decay) + at_level
    return RelaxationCurve(level, explicit + g_up + g_dn,
                           level + explicit + others + g_up + g_dn)
