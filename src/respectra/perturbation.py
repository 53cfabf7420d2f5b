"""Order-by-order biorthogonal eigensystem of the deformed generator.

The discrete eigenvectors and their order-by-order corrections are
``states.AnalyticVector``s, a level component plus one analytic profile, as
the test vectors are; ``pair_coeffs`` pairs two of them.  A discrete-order
profile called on its own grid's ``nodes`` array (that very object) returns
the samples it was built from, so pairing on the system's grid evaluates no
kernel column again, while at any other argument, another grid's nodes
included, an order-n profile forms orders 1..n once, and so does the total
of orders 0..n (``right_total`` and ``left_total``).
Continuum eigenvectors exist only as families, ``ContinuumFamily``: the
members at a set of curve points held as arrays, each a level component, an
exact atom at its point (unit weight, none on a correction) and a pole term
N(z) / (u + side*i0 - z) whose pairings go through the curve principal
value plus half residue.  Left vectors are functionals stored independently
of the right ones; no pairing ever conjugates.

The discrete branch implements the recursion to arbitrary order n: with the
usual gauge (vanishing d-component of every correction) the order-1 eigenvalue
shift is identically zero and

    phi_n(z) = [V(z) delta_{n,1} + \\int K(z,z') phi_{n-1}(z') dz'
                - sum_{k>=2} lambda_k phi_{n-k}(z)] / (Omega - z),
    lambda_n = \\int Vbar(z) phi_{n-1}(z) dz .

A kernel is its factor, K(z, z') = g(z) g(z') (``model.eval_kernel_factor``):
every kernel term is g(z) times a coefficient.  The branch reads V, Vbar
and g at its points as given rows: ``perturb_discrete`` samples them at the
nodes once, with one region check (``model.sample_rows``), and an order-n
series of any n evaluates each row once, not once per order and side;
``BiorthogonalSystem.from_perturbation`` hands it the node rows of its
``SampledRows`` table, so its discrete branch evaluates none.  Off its grid
a profile samples its side's row and g once at the points it is called on.

The continuous branch keeps the eigenvalue exactly at u (every correction
vanishes because the kernel carries no delta component) and is implemented
through second order with the outgoing (+i0) kernel on the right and the
conjugate prescription on the left.  ``ContinuumFamily`` holds the vectors
of a whole family of curve points as arrays, each numerator two coefficients
of the rows B(z) and g(z) shared by every member, and pairs them all through
one sampled curve principal value, ``SampledPV``; ``perturb_continuous``
returns one-point families on ``SampledPV(grid, u)``.  The rows are carried
as samples: a system samples V, Vbar and g once on its principal value, at
the nodes and at each point's stencil (``model.SampledRows``), and its
families share that table, from which the discrete branch, the continuous
branch's sweep and every pairing read them.  The exact discrete pair holds
its node samples, formed from the same rows.
``pair_families`` pairs several families on one ``SampledPV`` in one sweep:
the overlap tables of a reconstruction pair the right family with the bra
and the left family with the ket, each row a target with its family's
side.  Each vector is sampled once, as a ``SampledVector``: at the stencils,
whose first column is its atoms and, at every node, its node row, which the
discrete pair's pairing reads too, so a reconstruction evaluates no row.  A
system keeps the tables of its last (Psi, Phi) pair, read-only, so the inner
product and the generator of one pair cost one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .contour import ContourGrid, SampledPV, build_contour
from .errors import ConfigError, DegeneratePairError, EvaluationError
from .friedrichs import PoleResult, exact_system
from .model import ModelSpec, SampledRows, eval_V, eval_Vbar, sample_rows
from .states import AnalyticVector


def _pair_on_nodes(weights: np.ndarray, left_d: complex, left: np.ndarray | None,
                   right_d: complex, right: np.ndarray | None) -> complex:
    """``pair_coeffs`` of two vectors given as their level parts and node
    samples (None without a profile)."""
    total = left_d * right_d
    if left is not None and right is not None:
        total += np.sum(weights * left * right)
    return complex(total)


def _held_profile(nodes: np.ndarray, samples: np.ndarray, profile: Callable) -> Callable:
    """``profile``, returning its read-only ``samples`` when called on the
    grid's own ``nodes`` array (that very object)."""
    samples.flags.writeable = False
    return lambda z: samples if z is nodes else profile(z)


def pair_coeffs(left: AnalyticVector, right: AnalyticVector, grid: ContourGrid) -> complex:
    """Bilinear pairing <left|right> on the curve: d d plus the quadrature of
    the product of the two profiles (none when either is missing).
    Continuum members pair through ``ContinuumFamily.pair``."""
    both = left.profile is not None and right.profile is not None
    left_n, right_n = (v.at(grid.nodes) if both else None for v in (left, right))
    return _pair_on_nodes(grid.weights, left.d, left_n, right.d, right_n)


@dataclass(frozen=True)
class PerturbationSeries:
    """Eigenvalue corrections and right/left vector corrections, order by
    order, and the right and left sums of the orders: ``AnalyticVector``s on
    the discrete branch, one-point ``ContinuumFamily``s on the continuous one."""

    orders: tuple          # tuple of (lambda_k, right_k, left_k)
    totals: tuple          # (right, left)

    @property
    def eigenvalue(self) -> complex:
        return complex(sum(lam for lam, _, _ in self.orders))

    def lambda_at(self, k: int) -> complex:
        return self.orders[k][0]

    def right_total(self):
        return self.totals[0]

    def left_total(self):
        return self.totals[1]


# the coupling row of each side of the discrete branch: V on the right, Vbar on the left
_SIDE_ROW = {+1: "V", -1: "Vbar"}


def _discrete_order(om: float, z: np.ndarray, b: np.ndarray, g: np.ndarray | None,
                    wg: np.ndarray | None, lambdas: list, lower: list,
                    samples: list) -> np.ndarray:
    """phi_n (b = V) or psi_n (b = Vbar) of the discrete branch at the points
    z, n = len(lower) + 1, from the lower orders at z, ``lower``, and
    lambda_0..lambda_{n-1}; b and the kernel factor g are the rows at z.  The
    kernel column is g times the sum of ``wg``, w_j g(z_j) (None without a
    kernel), times ``samples[n - 2]``."""
    n = len(lower) + 1
    if n == 1:
        return b / (om - z)
    acc = np.zeros_like(z)
    if wg is not None:
        acc = acc + g * np.sum(wg * samples[n - 2])
    for k in range(2, n):
        acc = acc - lambdas[k] * lower[n - k - 1]
    return acc / (om - z)


def _discrete_profile(model: ModelSpec, nodes: np.ndarray, wg, side: int, lambdas: list,
                      samples: list, first: int, last: int) -> Callable:
    """The sum of orders first..last of the discrete branch as a profile,
    added left to right.  Called on the grid's own ``nodes`` array it sums
    their node samples; at any other points it samples its side's row and,
    from order 2 with a kernel, g there once, and forms orders 1..last
    there once, each from the lower ones at those points."""
    names = (_SIDE_ROW[side],) + (("g",) if wg is not None and last >= 2 else ())

    def fn(z):
        if z is nodes:
            vals = samples
        else:
            z = np.asarray(z, dtype=complex)
            zz, vals = np.atleast_1d(z), []
            rows = sample_rows(model, zz, names)
            for _ in range(last):
                vals.append(_discrete_order(model.omega_level, zz, rows[names[0]],
                                            rows.get("g"), wg, lambdas, vals, samples))
        out = vals[first - 1]
        for v in vals[first:last]:
            out = out + v
        return out[0] if z is not nodes and z.ndim == 0 else out

    return fn


def perturb_discrete(model: ModelSpec, order: int = 2,
                     grid: ContourGrid | None = None) -> PerturbationSeries:
    """Discrete branch through the requested order, which may be any; V, Vbar
    and g are sampled at the nodes once, and each order is formed on the
    nodes once, from them and the node samples of the lower ones."""
    if grid is None:
        grid = build_contour(model.contour)
    return _discrete_series(model, grid, order, sample_rows(model, grid.nodes))


def _discrete_series(model: ModelSpec, grid: ContourGrid, order: int,
                     rows: dict) -> PerturbationSeries:
    """``perturb_discrete`` on the rows at the grid's nodes: name -> (N,),
    "V", "Vbar" and, with a kernel, "g"."""
    if order < 0:
        raise ConfigError("order must be non-negative")
    om = model.omega_level
    nodes, w = grid.nodes, grid.weights
    g = rows.get("g")
    wg = None if g is None else w * g
    lambdas = [complex(om)]
    samples = {+1: [], -1: []}        # node samples of phi_n / psi_n
    for n in range(1, order + 1):
        # the gauge leaves no diagonal matrix element: lambda_1 vanishes exactly
        lambdas.append(0j if n == 1 else complex(np.sum(w * rows["Vbar"] * samples[+1][-1])))
        for side in (+1, -1):
            col = _discrete_order(om, nodes, rows[_SIDE_ROW[side]], g, wg, lambdas,
                                  samples[side], samples[side])
            col.flags.writeable = False
            samples[side].append(col)
    right, left = ([AnalyticVector(d=1.0 + 0j)]
                   + [AnalyticVector(profile=_discrete_profile(model, nodes, wg, side, lambdas,
                                                               samples[side], n, n))
                      for n in range(1, order + 1)]
                   for side in (+1, -1))
    # one profile forms every order of the total, so it costs order n, not n^2
    totals = (AnalyticVector(d=1.0 + 0j, profile=_discrete_profile(
        model, nodes, wg, side, lambdas, samples[side], 1, order) if order else None)
        for side in (+1, -1))
    return PerturbationSeries(tuple(zip(lambdas, right, left)), tuple(totals))


class SampledVector(NamedTuple):
    """A vector sampled once on one ``SampledPV``: its level part ``d``, and
    its profile at the nodes, (N,), and at each point and its stencil,
    (M, 5), the point first (both None without a profile)."""

    d: complex
    nodes: np.ndarray | None
    points: np.ndarray | None

    @classmethod
    def of(cls, vec: AnalyticVector, pv: SampledPV) -> "SampledVector":
        if vec.profile is None:
            return cls(vec.d, None, None)
        return cls(vec.d, *pv.sample(vec.at))


class ContinuumFamily:
    """Right (side=+1) or left (side=-1) continuum eigenvectors at the curve
    points of ``rows.pv``, held as arrays.

    Member i is ``d[i]`` on the level, ``atom`` times the unit atom at u_i
    (1 for a bare or exact family, 0 for a correction; a sum of families adds
    the weights) and the pole term N_i(z) / (u_i + side*i0 - z) with
    N_i(z) = coef[i] B(z) + kernel_coef[i] g(z), B = V on the right and Vbar
    on the left and g the kernel's factor (``eval_kernel_factor``); a part whose
    array is None is absent.  The rows B and g are read from ``rows``, the
    ``SampledRows`` table the families of a system share, and pairings hand
    each to the principal value as one target.  A single member is a
    one-point family, on ``SampledPV(grid, u_i)``.
    """

    def __init__(self, rows: SampledRows, side: int, d, coef=None, kernel_coef=None,
                 atom: float = 1.0):
        self.rows = rows
        self.pv = rows.pv
        self.u = rows.pv.u
        self.side = side
        self.d = np.asarray(d, dtype=complex)
        self.coef, self.kernel_coef = (None if c is None else np.asarray(c, dtype=complex)
                                       for c in (coef, kernel_coef))
        self.atom = atom

    def __add__(self, other: "ContinuumFamily") -> "ContinuumFamily":
        add = lambda a, b: b if a is None else a if b is None else a + b
        return ContinuumFamily(self.rows, self.side, self.d + other.d,
                               add(self.coef, other.coef),
                               add(self.kernel_coef, other.kernel_coef),
                               self.atom + other.atom)

    def pair(self, vec: AnalyticVector) -> np.ndarray:
        """Bilinear pairing of every member with a vector, a level component
        plus one analytic profile: <vec|f_i> on the right, <f~_i|vec> on the
        left."""
        return pair_families([(self, SampledVector.of(vec, self.pv))])[0]


def pair_families(pairs) -> list:
    """``ContinuumFamily.pair`` for several (family, ``SampledVector``)
    pairs whose families share one ``SampledPV``, in one sweep: each row of
    each pair's numerators, from the family's table, times the pair's vector
    is one target of a single principal value, with its family's side.  The
    atoms read the vector at the points themselves, the first stencil column."""
    fams = [fam for fam, _ in pairs]
    pv = fams[0].pv
    if any(fam.pv is not pv for fam in fams):
        raise EvaluationError("families paired in one sweep must share their SampledPV")
    out = [vec.d * fam.d for fam, vec in pairs]
    at_nodes, at_points, sides, targets = [], [], [], []     # targets: (pair, coefficients)
    for p, (fam, vec) in enumerate(pairs):
        if vec.points is not None:
            out[p] = out[p] + fam.atom * vec.points[:, 0]   # the atoms at u_i
            for c, name in ((fam.coef, "V" if fam.side > 0 else "Vbar"),
                            (fam.kernel_coef, "g")):
                if c is not None:
                    at_nodes.append(vec.nodes * fam.rows.nodes[name])
                    at_points.append(vec.points * fam.rows.points[name])
                    sides.append(fam.side)
                    targets.append((p, c))
    if targets:
        J = pv.sum(pv.grid.weights * np.stack(at_nodes), np.stack(at_points, axis=-2),
                   np.array(sides))
        for k, (p, c) in enumerate(targets):
            out[p] = out[p] + c * J[:, k]
    return out


def _branch_orders(rows: SampledRows, order: int) -> tuple[list, list]:
    """Orders 1..order (at most 2) of the continuous branch at the points of
    ``rows.pv``, one correction family each, without the atom: the right
    (side +1) and the left (side -1) lists.  With L = Vbar on the right and V
    on the left and K(z, z') = g(z) g(z'): order 1 is L(u)/(u - Omega) plus
    the kernel column g(u) g(z); order 2 is g(u) PV[L g] / (u - Omega) plus
    the numerator B(z) L(u)/(u - Omega) + g(u) PV[g^2] g(z),
    PV[f] = \\int f(z)/(u + side*i0 - z) dz, the four of both sides in one
    sweep, on the rows of the table."""
    pv, om = rows.pv, rows.model.omega_level
    u = pv.u
    if np.any((u.imag == 0.0) & (np.abs(u - om) < 1e-12)):
        raise EvaluationError("curve point coincides with the discrete level")
    sides, levels = (+1, -1), ("Vbar", "V")
    kernel = "g" in rows.points
    gu = rows.points["g"][:, 0] if kernel else None
    if order >= 2 and kernel:
        # formed point by point, so that a one-point family holds the
        # coefficients of the grid family's member bit for bit
        names = [name for level in levels for name in (level, "g")]
        J = pv.sum(pv.grid.weights * rows.nodes["g"] * np.stack([rows.nodes[k] for k in names]),
                   rows.points["g"][:, None, :]
                   * np.stack([rows.points[k] for k in names], axis=-2),
                   np.repeat(sides, 2), pointwise=True)
    branches = []
    for k, (side, level) in enumerate(zip(sides, levels)):
        d1 = rows.points[level][:, 0] / (u - om)
        fams = [ContinuumFamily(rows, side, d1, kernel_coef=gu, atom=0.0)]
        if order >= 2:
            d2, k2 = np.zeros_like(d1), None
            if kernel:
                d2, k2 = gu * J[:, 2 * k] / (u - om), gu * J[:, 2 * k + 1]
            fams.append(ContinuumFamily(rows, side, d2, coef=d1, kernel_coef=k2, atom=0.0))
        branches.append(fams[:order])
    return tuple(branches)


def perturb_continuous(model: ModelSpec, u: complex, order: int = 2,
                       grid: ContourGrid | None = None) -> PerturbationSeries:
    """Continuous branch at curve point u, through second order, as one-point
    families on ``SampledPV(grid, u)``.

    The eigenvalue stays exactly u.  Order 0 is the bare member (no level
    part, the unit atom at u); the corrections carry no atom and live in the
    d-component and in pole terms with the outgoing kernel (right) / its
    conjugate (left).  The totals are the members that
    ``BiorthogonalSystem.from_perturbation`` holds at u, and the pairings of
    the orders add up to the pairing of the total.  Its table samples the
    rows at the nodes and at u's stencil after one region check of both.
    """
    if order < 0 or order > 2:
        raise ConfigError("continuous branch is implemented through order 2")
    if grid is None:
        grid = build_contour(model.contour)
    rows = SampledRows(model, SampledPV(grid, complex(u)))
    bare = (ContinuumFamily(rows, side, np.zeros(1)) for side in (+1, -1))
    right, left = _branch_orders(rows, order)
    orders = [(complex(u), *bare)] + [(0j, r, l) for r, l in zip(right, left)]
    totals = tuple(sum((o[slot] for o in orders[1:]), orders[0][slot]) for slot in (1, 2))
    return PerturbationSeries(tuple(orders), totals)


def normalize_pair(right: AnalyticVector, left: AnalyticVector,
                   grid: ContourGrid) -> tuple[AnalyticVector, AnalyticVector]:
    """Scale both members by 1/sqrt(<left|right>) (principal branch)."""
    n = pair_coeffs(left, right, grid)
    if abs(n) < 1e-14:
        raise DegeneratePairError("self-orthogonal pair: <left|right> = 0")
    s = 1.0 / np.sqrt(n)
    return right.scaled(s), left.scaled(s)


class BiorthogonalSystem:
    """Assembled spectral data: normalized discrete pair + continuum family.

    Backed either by the order-by-order engine or by the exact solution; both
    expose the same structures (``AnalyticVector``s for the discrete pair,
    array-backed families for the continuum), so reconstruction and dynamics
    are agnostic to the source.  ``pole_result`` is the exact solve's
    ``PoleResult``, None on a perturbative system.
    """

    def __init__(self, model: ModelSpec, grid: ContourGrid, pole: complex,
                 disc_right: AnalyticVector, disc_left: AnalyticVector,
                 cont_right: ContinuumFamily, cont_left: ContinuumFamily, source: str,
                 pole_result: PoleResult | None):
        self.model = model
        self.grid = grid
        self.pole = complex(pole)
        self.disc_right = disc_right
        self.disc_left = disc_left
        self.cont_right = cont_right
        self.cont_left = cont_left
        self.source = source
        self.pole_result = pole_result
        self._overlap_memo = None

    @classmethod
    def from_perturbation(cls, model: ModelSpec, order: int = 2,
                          grid: ContourGrid | None = None) -> "BiorthogonalSystem":
        """Both branches through ``order``, at most 2 (the continuous branch's)."""
        if order > 2:
            raise ConfigError("continuous branch is implemented through order 2")
        if grid is None:
            grid = build_contour(model.contour)
        rows = SampledRows(model, SampledPV(grid))
        # the discrete branch reads the table's node rows and evaluates none
        disc = _discrete_series(model, grid, order, rows.nodes)
        r, l = normalize_pair(disc.right_total(), disc.left_total(), grid)
        # order 0 is the unit atom of every member; the corrections add up
        right, left = (sum(orders, ContinuumFamily(rows, side, np.zeros(grid.n)))
                       for side, orders in zip((+1, -1), _branch_orders(rows, order)))
        return cls(model, grid, disc.eigenvalue, r, l, right, left,
                   source=f"perturbation(order={order})", pole_result=None)

    @classmethod
    def from_exact(cls, model: ModelSpec, grid: ContourGrid | None = None,
                   tol: float = 1e-13) -> "BiorthogonalSystem":
        """Exact system, its pole solved at ``tol`` on its own sampled eta."""
        sysx = exact_system(model, grid, tol)
        grid, lam, c, rows = sysx.grid, sysx.pole.lambda_pole, sysx.norm, sysx.rows
        nodes = grid.nodes
        # the discrete pair c B(z) / (lambda - z), B = V on the right and Vbar
        # on the left, holds its node samples, formed from the table's rows
        dr, dl = (AnalyticVector(complex(c), _held_profile(
                      nodes, c * rows.nodes[name] / (lam - nodes),
                      lambda z, b=b: c * b(model, z) / (lam - z)))
                  for name, b in (("V", eval_V), ("Vbar", eval_Vbar)))
        a_right = rows.nodes["Vbar"] / sysx.eta_plus
        a_left = rows.nodes["V"] / sysx.eta_minus
        # the families pair through the principal value eta was swept on
        return cls(model, grid, lam, dr, dl, ContinuumFamily(rows, +1, a_right, a_right),
                   ContinuumFamily(rows, -1, a_left, a_left), source="exact",
                   pole_result=sysx.pole)

    # -- reconstruction ------------------------------------------------------
    def overlap_tables(self, psi: AnalyticVector, phi: AnalyticVector):
        """Per-mode products <Psi|f_m> and <f~_m|Phi> (pole entry first).

        The tables of the last pair are kept, keyed by the identity of
        ``psi`` and ``phi`` (both frozen, and held so that their ids stay
        taken), so ``reconstruct_inner`` then ``reconstruct_H`` on one pair
        run one sweep.  The arrays are read-only: every caller shares them.
        Each vector is sampled once, on the families' principal value; the
        discrete pair pairs with its node samples."""
        if self._overlap_memo is not None:
            memo_psi, memo_phi, tables = self._overlap_memo
            if memo_psi is psi and memo_phi is phi:
                return tables
        ps, fs = (SampledVector.of(v, self.cont_right.pv) for v in (psi, phi))
        w, nodes = self.grid.weights, self.grid.nodes
        at_nodes = lambda v: None if v.profile is None else v.at(nodes)
        a_pole = _pair_on_nodes(w, ps.d, ps.nodes, self.disc_right.d, at_nodes(self.disc_right))
        b_pole = _pair_on_nodes(w, self.disc_left.d, at_nodes(self.disc_left), fs.d, fs.nodes)
        a, b = pair_families([(self.cont_right, ps), (self.cont_left, fs)])
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
        # added to zeros, a vanishing sample is written 0.0, never -0.0
        dr, dl = (np.zeros_like(zs) + v.at(zs) for v in (self.disc_right, self.disc_left))
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
