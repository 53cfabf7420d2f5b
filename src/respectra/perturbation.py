"""Order-by-order biorthogonal eigensystem of the deformed generator.

Vectors are coefficient bundles over the basis {discrete level, curve points}:
a d-component and smooth terms, plain analytic functions on the curve.
Continuum eigenvectors exist only as families, ``ContinuumFamily``: the
members at a set of curve points held as arrays, each a level component, an
exact unit atom at its point and a pole term N(z) / (u + side*i0 - z) whose
pairings go through the curve principal value plus half residue.  Left
vectors are functionals stored independently of the right ones; no pairing
ever conjugates.

The discrete branch implements the recursion to arbitrary order n: with the
usual gauge (vanishing d-component of every correction) the order-1 eigenvalue
shift is identically zero and

    phi_n(z) = [V(z) delta_{n,1} + \\int K(z,z') phi_{n-1}(z') dz'
                - sum_{k>=2} lambda_k phi_{n-k}(z)] / (Omega - z),
    lambda_n = \\int Vbar(z) phi_{n-1}(z) dz .

The continuous branch keeps the eigenvalue exactly at u (every correction
vanishes because the kernel carries no delta component) and is implemented
through second order with the outgoing (+i0) kernel on the right and the
conjugate prescription on the left.  ``ContinuumFamily`` holds the vectors
of a whole family of curve points as arrays and pairs them all through one
sampled curve principal value, ``SampledPV``, which is handed the integrands
as functions; ``perturb_continuous`` returns one-point families on
``SampledPV(grid, u)``.
``pair_families`` pairs several families on one ``SampledPV`` in one sweep:
the overlap tables of a reconstruction pair the right family with the bra
and the left family with the ket as two targets with sides +1 and -1.  A
system keeps the tables of its last (Psi, Phi) pair, read-only, so the
inner product and the generator of one pair cost one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour import ContourGrid, SampledPV, build_contour
from .errors import ConfigError, DegeneratePairError, EvaluationError
from .friedrichs import PoleResult, exact_system
from .model import ModelSpec, eval_V, eval_V2, eval_Vbar
from .states import AnalyticVector


@dataclass(frozen=True)
class PlainTerm:
    """Smooth coefficient function on the curve."""

    fn: Callable
    samples: np.ndarray | None = None

    def values(self, grid: ContourGrid) -> np.ndarray:
        if self.samples is not None:
            return self.samples
        return np.asarray(self.fn(grid.nodes), dtype=complex)

    def at(self, z):
        return self.fn(z)

    def scaled(self, c: complex) -> "PlainTerm":
        fn = self.fn
        samples = None if self.samples is None else self.samples * c
        return PlainTerm(lambda z, _f=fn, _c=c: _c * _f(z), samples)


@dataclass(frozen=True)
class VectorCoeffs:
    """d-component + plain smooth terms; used for kets and functionals."""

    d: complex = 0j
    smooth: tuple = ()

    def scaled(self, c: complex) -> "VectorCoeffs":
        return VectorCoeffs(self.d * c, tuple(t.scaled(c) for t in self.smooth))

    def __add__(self, other: "VectorCoeffs") -> "VectorCoeffs":
        return VectorCoeffs(self.d + other.d, self.smooth + other.smooth)

    # block selectors: the projector algebra of the unperturbed generator
    def project_d(self) -> "VectorCoeffs":
        return VectorCoeffs(self.d)

    def project_continuum(self) -> "VectorCoeffs":
        return VectorCoeffs(0j, self.smooth)


def as_coeffs(vec: AnalyticVector) -> VectorCoeffs:
    smooth = (PlainTerm(vec.at),) if vec.profile is not None else ()
    return VectorCoeffs(complex(vec.d), smooth)


def pair_coeffs(left: VectorCoeffs, right: VectorCoeffs, grid: ContourGrid) -> complex:
    """Bilinear pairing <left|right> on the curve: d d plus the quadrature of
    every product of smooth terms.  Continuum members pair through
    ``ContinuumFamily.pair``."""
    total = left.d * right.d
    for lt in left.smooth:
        for rt in right.smooth:
            total += np.sum(grid.weights * lt.values(grid) * rt.values(grid))
    return complex(total)


@dataclass(frozen=True)
class PerturbationSeries:
    """Eigenvalue corrections and right/left vector corrections, order by order."""

    orders: tuple          # tuple of (lambda_k, right_k, left_k)
    branch: str            # "discrete" or "continuous"
    base: complex          # Omega or the curve point u

    @property
    def eigenvalue(self) -> complex:
        return complex(sum(lam for lam, _, _ in self.orders))

    def lambda_at(self, k: int) -> complex:
        return self.orders[k][0]

    def right_total(self):
        return self._total(1)

    def left_total(self):
        return self._total(2)

    def _total(self, slot: int):
        """Sum of the orders: a ``VectorCoeffs`` on the discrete branch, a
        one-point ``ContinuumFamily`` on the continuous one."""
        return sum((o[slot] for o in self.orders[1:]), self.orders[0][slot])


def _kernel(model: ModelSpec, side: int) -> Callable:
    """K(z, z') for right vectors (side=+1), its transpose for left ones."""
    if side > 0:
        return lambda z, zp: eval_V2(model, z, zp)
    return lambda z, zp: eval_V2(model, zp, z)


def _kernel_column(model: ModelSpec, grid: ContourGrid, samples: np.ndarray,
                   side: int) -> Callable:
    """z -> \\int K(z, z') f(z') dz' (transposed K for side=-1)."""
    wts = grid.weights * samples

    def fn(z):
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        out = _kernel(model, side)(zz[..., None], grid.nodes) @ wts
        return complex(out[0]) if np.ndim(z) == 0 else out

    return fn


def _discrete_profile(model: ModelSpec, grid: ContourGrid, n: int, side: int,
                      prev: list, lambdas: list) -> Callable:
    """phi_n (side=+1) or psi_n (side=-1) of the discrete branch, given the
    lower orders ``prev`` as (callable, node samples) and lambda_0..lambda_{n-1}."""
    om = model.omega_level
    if n == 1:
        coupling = eval_V if side > 0 else eval_Vbar
        return lambda z: coupling(model, z) / (om - np.asarray(z, dtype=complex))
    base = [_kernel_column(model, grid, prev[-1][1], side)] if model.has_kernel() else []
    subs = [(complex(lambdas[k]), prev[n - k - 1][0]) for k in range(2, n)]

    def fn(z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(np.atleast_1d(z))
        for t in base:
            acc = acc + np.atleast_1d(np.asarray(t(z), dtype=complex))
        for lam_k, f in subs:
            acc = acc - lam_k * np.atleast_1d(np.asarray(f(z), dtype=complex))
        acc = acc / (om - np.atleast_1d(z))
        return acc[0] if z.ndim == 0 else acc

    return fn


def perturb_discrete(model: ModelSpec, order: int = 2,
                     grid: ContourGrid | None = None) -> PerturbationSeries:
    """Discrete branch through the requested order (validated ceiling 2; the
    same loop yields any order when a kernel makes higher terms nonzero)."""
    if order < 0:
        raise ConfigError("order must be non-negative")
    if grid is None:
        grid = build_contour(model.contour)
    om = model.omega_level
    vbar = np.asarray(eval_Vbar(model, grid.nodes), dtype=complex)
    lambdas = [complex(om)]
    profiles = {+1: [], -1: []}       # (callable, node samples) of phi_n / psi_n
    for n in range(1, order + 1):
        # the gauge leaves no diagonal matrix element: lambda_1 vanishes exactly
        lambdas.append(0j if n == 1 else
                       complex(np.sum(grid.weights * vbar * profiles[+1][-1][1])))
        for side in (+1, -1):
            fn = _discrete_profile(model, grid, n, side, profiles[side], lambdas)
            profiles[side].append((fn, np.asarray(fn(grid.nodes), dtype=complex)))
    right, left = ([VectorCoeffs(d=1.0 + 0j)]
                   + [VectorCoeffs(smooth=(PlainTerm(fn, samples),))
                      for fn, samples in profiles[side]] for side in (+1, -1))
    return PerturbationSeries(tuple(zip(lambdas, right, left)), "discrete", complex(om))


def _kernel_term(model: ModelSpec, pv: SampledPV, z, side: int) -> np.ndarray:
    """k_i(z) = \\int K(z, z') K(z', u_i) / (u_i + side*i0 - z') dz' at every
    point u_i of ``pv`` (K transposed on the left) for targets z shared by
    all points (1, P) or given per point (M, P); shape (M, P)."""
    kk, u = _kernel(model, side), pv.u[:, None]
    return pv(lambda zp: kk(zp, u), side, F=lambda zp: kk(z[..., None], zp[:, None, :]))


class ContinuumFamily:
    """Right (side=+1) or left (side=-1) continuum eigenvectors at the curve
    points of ``pv`` (every node by default), held as arrays.

    Member i is ``d[i]`` on the level, an exact unit atom at u_i (implicit:
    every member has it, and a sum of families keeps one) and the pole term
    N_i(z) / (u_i + side*i0 - z) with N_i(z) = coef[i] B(z) + K(z, u_i)
    + k_i(z), B = V on the right and Vbar on the left; the kernel column and
    the ``_kernel_term`` k_i are present for kernel orders 1 and 2.  Pairings
    hand the numerators to the principal value as functions: the B part as
    one shared row, the kernel part per member.  A single member is a
    one-point family, on ``SampledPV(grid, u_i)``.
    """

    def __init__(self, model: ModelSpec, pv: SampledPV, side: int, d,
                 coef=None, kernel_orders: tuple = ()):
        self.model = model
        self.pv = pv
        self.u = pv.u
        self.side = side
        self.d = np.asarray(d, dtype=complex)
        self.coef = None if coef is None else np.asarray(coef, dtype=complex)
        self.kernel_orders = tuple(kernel_orders)

    def __add__(self, other: "ContinuumFamily") -> "ContinuumFamily":
        coefs = [c for c in (self.coef, other.coef) if c is not None]
        return ContinuumFamily(self.model, self.pv, self.side, self.d + other.d,
                               sum(coefs) if coefs else None,
                               self.kernel_orders + other.kernel_orders)

    def _basis(self, z):
        return (eval_V if self.side > 0 else eval_Vbar)(self.model, z)

    def _kernel_part(self, z) -> np.ndarray:
        """Kernel part of the numerators of the members at targets z, shared
        (1, P) or per member (M, P); shape (M, P)."""
        out = _kernel(self.model, self.side)(z, self.u[:, None]) if 1 in self.kernel_orders else 0
        if 2 in self.kernel_orders:
            out = out + _kernel_term(self.model, self.pv, z, self.side)
        return out

    def pair(self, vec: VectorCoeffs) -> np.ndarray:
        """Bilinear pairing of every member with a vector made of a level
        component and plain smooth terms: <vec|f_i> on the right, <f~_i|vec>
        on the left."""
        return pair_families([(self, vec)])[0]


def pair_families(pairs) -> list:
    """``ContinuumFamily.pair`` for several (family, vector) pairs whose
    families share one ``SampledPV``, in one sweep: the shared numerator part
    coef_i B(z) of every pair is one target of a single principal value, with
    its family's side.  Kernel numerators differ per member and keep one
    sweep per family."""
    fams = [fam for fam, _ in pairs]
    pv = fams[0].pv
    if any(fam.pv is not pv for fam in fams):
        raise EvaluationError("families paired in one sweep must share their SampledPV")
    out = [vec.d * fam.d for fam, vec in pairs]
    profile = [lambda z, ts=vec.smooth: sum(t.at(z) for t in ts) for _, vec in pairs]
    smooth = [p for p, (_, vec) in enumerate(pairs) if vec.smooth]
    for p in smooth:
        out[p] = out[p] + profile[p](pv.u)        # the unit atoms at u_i
    basis = [p for p in smooth if fams[p].coef is not None]
    if basis:
        F = lambda z: np.stack([profile[p](z) * fams[p]._basis(z) for p in basis], axis=-2)
        J = pv(np.ones_like, np.array([fams[p].side for p in basis]), F)
        for k, p in enumerate(basis):
            out[p] = out[p] + fams[p].coef * J[:, k]
    for p in smooth:
        if fams[p].kernel_orders:
            h = lambda z, f=profile[p], fam=fams[p]: f(z) * fam._kernel_part(z)
            out[p] = out[p] + pv(h, fams[p].side)
    return out


def _branch_orders(model: ModelSpec, pv: SampledPV, order: int, side: int) -> list:
    """Orders 1..order (at most 2) of the continuous branch at the points of
    ``pv``, one family each.  With L = Vbar on the right and V on the left:
    order 1 is L(u)/(u - Omega) plus the kernel column; order 2 is
    \\int L(z) K(z, u)/(u + side*i0 - z) dz / (u - Omega) plus the numerator
    B(z) L(u)/(u - Omega) + k_u(z)."""
    u, om = pv.u, model.omega_level
    if np.any((u.imag == 0.0) & (np.abs(u - om) < 1e-12)):
        raise EvaluationError("curve point coincides with the discrete level")
    level = eval_Vbar if side > 0 else eval_V
    kernel = model.has_kernel()
    d1 = level(model, u) / (u - om)
    fams = [ContinuumFamily(model, pv, side, d1, kernel_orders=(1,) if kernel else ())]
    if order >= 2:
        d2 = np.zeros_like(d1)
        if kernel:
            kk = _kernel(model, side)
            d2 = pv(lambda z: level(model, z) * kk(z, u[:, None]), side) / (u - om)
        fams.append(ContinuumFamily(model, pv, side, d2, coef=d1,
                                    kernel_orders=(2,) if kernel else ()))
    return fams[:order]


def perturb_continuous(model: ModelSpec, u: complex, order: int = 2,
                       grid: ContourGrid | None = None) -> PerturbationSeries:
    """Continuous branch at curve point u, through second order, as one-point
    families on ``SampledPV(grid, u)``.

    The eigenvalue stays exactly u.  Order 0 is the bare member (no level
    part, the unit atom at u); the corrections live in the d-component and in
    pole terms with the outgoing kernel (right) / its conjugate (left).  The
    totals are the members that ``BiorthogonalSystem.from_perturbation``
    holds at u.  Every family carries the unit atom, so pair the totals, not
    the orders one by one.
    """
    if order < 0 or order > 2:
        raise ConfigError("continuous branch is implemented through order 2")
    if grid is None:
        grid = build_contour(model.contour)
    u = complex(u)
    pv = SampledPV(grid, u)
    bare = (ContinuumFamily(model, pv, side, np.zeros(1)) for side in (+1, -1))
    right, left = (_branch_orders(model, pv, order, side) for side in (+1, -1))
    orders = [(u, *bare)] + [(0j, r, l) for r, l in zip(right, left)]
    return PerturbationSeries(tuple(orders), "continuous", u)


def normalize_pair(right: VectorCoeffs, left: VectorCoeffs,
                   grid: ContourGrid) -> tuple[VectorCoeffs, VectorCoeffs]:
    """Scale both members by 1/sqrt(<left|right>) (principal branch)."""
    n = pair_coeffs(left, right, grid)
    if abs(n) < 1e-14:
        raise DegeneratePairError("self-orthogonal pair: <left|right> = 0")
    s = 1.0 / np.sqrt(n)
    return right.scaled(s), left.scaled(s)


class BiorthogonalSystem:
    """Assembled spectral data: normalized discrete pair + continuum family.

    Backed either by the order-by-order engine or by the exact solution; both
    expose the same structures (single coefficient bundles for the discrete
    pair, array-backed families for the continuum), so reconstruction and
    dynamics are agnostic to the source.
    """

    def __init__(self, model: ModelSpec, grid: ContourGrid, pole: complex,
                 disc_right: VectorCoeffs, disc_left: VectorCoeffs,
                 cont_right: ContinuumFamily, cont_left: ContinuumFamily, source: str):
        self.model = model
        self.grid = grid
        self.pole = complex(pole)
        self.disc_right = disc_right
        self.disc_left = disc_left
        self.cont_right = cont_right
        self.cont_left = cont_left
        self.source = source
        self._overlap_memo = None

    @classmethod
    def from_perturbation(cls, model: ModelSpec, order: int = 2,
                          grid: ContourGrid | None = None) -> "BiorthogonalSystem":
        if grid is None:
            grid = build_contour(model.contour)
        disc = perturb_discrete(model, order, grid)
        r, l = normalize_pair(disc.right_total(), disc.left_total(), grid)
        pv = SampledPV(grid)
        # order 0 is the unit atom of every member; the corrections add up
        right, left = (sum(_branch_orders(model, pv, min(order, 2), side),
                           ContinuumFamily(model, pv, side, np.zeros(grid.n)))
                       for side in (+1, -1))
        return cls(model, grid, disc.eigenvalue, r, l, right, left,
                   source=f"perturbation(order={order})")

    @classmethod
    def from_exact(cls, model: ModelSpec, grid: ContourGrid | None = None,
                   pole: PoleResult | None = None) -> "BiorthogonalSystem":
        """Exact system; ``pole``, if given, must be solved on ``grid``."""
        sysx = exact_system(model, grid, pole)
        grid, lam, c = sysx.grid, sysx.pole.lambda_pole, sysx.norm
        dr, dl = (VectorCoeffs(d=complex(c), smooth=(PlainTerm(
            lambda z, b=b: c * b(model, z) / (lam - z)),)) for b in (eval_V, eval_Vbar))
        pv = SampledPV(grid)
        a_right = eval_Vbar(model, grid.nodes) / sysx.eta_plus
        a_left = eval_V(model, grid.nodes) / sysx.eta_minus
        return cls(model, grid, lam, dr, dl,
                   ContinuumFamily(model, pv, +1, a_right, a_right),
                   ContinuumFamily(model, pv, -1, a_left, a_left), source="exact")

    # -- reconstruction ------------------------------------------------------
    def overlap_tables(self, psi: AnalyticVector, phi: AnalyticVector):
        """Per-mode products <Psi|f_m> and <f~_m|Phi> (pole entry first).

        The tables of the last pair are kept, keyed by the identity of
        ``psi`` and ``phi`` (both frozen, and held so that their ids stay
        taken), so ``reconstruct_inner`` then ``reconstruct_H`` on one pair
        run one sweep.  The arrays are read-only: every caller shares them."""
        if self._overlap_memo is not None:
            memo_psi, memo_phi, tables = self._overlap_memo
            if memo_psi is psi and memo_phi is phi:
                return tables
        lvec = as_coeffs(psi)
        rvec = as_coeffs(phi)
        a_pole = pair_coeffs(lvec, self.disc_right, self.grid)
        b_pole = pair_coeffs(self.disc_left, rvec, self.grid)
        a, b = pair_families([(self.cont_right, lvec), (self.cont_left, rvec)])
        a.flags.writeable = b.flags.writeable = False
        tables = (a_pole, b_pole, a, b)
        self._overlap_memo = (psi, phi, tables)
        return tables

    def reconstruct_inner(self, psi: AnalyticVector, phi: AnalyticVector) -> complex:
        a0, b0, a, b = self.overlap_tables(psi, phi)
        return complex(a0 * b0 + np.sum(self.grid.weights * a * b))

    def reconstruct_H(self, psi: AnalyticVector, phi: AnalyticVector) -> complex:
        a0, b0, a, b = self.overlap_tables(psi, phi)
        return complex(self.pole * a0 * b0
                       + np.sum(self.grid.weights * self.grid.nodes * a * b))

    def to_dict(self) -> dict:
        """Node-sampled serialization of the assembled system."""
        zs = self.grid.nodes
        def smooth_samples(vc: VectorCoeffs):
            out = np.zeros_like(zs)
            for t in vc.smooth:
                out = out + t.values(self.grid)
            return out
        dr = smooth_samples(self.disc_right)
        dl = smooth_samples(self.disc_left)
        return {
            "source": self.source,
            "pole": [self.pole.real, self.pole.imag],
            "n_nodes": int(self.grid.n),
            "nodes_re": zs.real.tolist(),
            "nodes_im": zs.imag.tolist(),
            "disc_right_d": [self.disc_right.d.real, self.disc_right.d.imag],
            "disc_left_d": [self.disc_left.d.real, self.disc_left.d.imag],
            "disc_right_smooth_re": dr.real.tolist(),
            "disc_right_smooth_im": dr.imag.tolist(),
            "disc_left_smooth_re": dl.real.tolist(),
            "disc_left_smooth_im": dl.imag.tolist(),
            "cont_right_d_re": self.cont_right.d.real.tolist(),
            "cont_right_d_im": self.cont_right.d.imag.tolist(),
            "cont_left_d_re": self.cont_left.d.real.tolist(),
            "cont_left_d_im": self.cont_left.d.imag.tolist(),
        }
