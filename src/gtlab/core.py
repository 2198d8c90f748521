"""GT-structure calculus.

Data model for (enhanced) local GT structures and potentials, numeric
verification of the defining functional identities, and the structure
transforms: adding punctures, colliding punctures and coordinate
pushforward.

A structure with fiber dimension m carries m vector-field components
g_i(p, v) and a two-point function f(p1, p2, v) with a normalized simple
pole on the diagonal.  All verification is by dense seeded sampling: the
in-scope functions are meromorphic, so vanishing at many generic points is
the practical test.  A check asks each evaluator once per jet, on argument
columns cut from the sample array (``_rows``), every jet in one
``kernel.jets`` call (the residue circles apart).

The transforms build each evaluator as one formula over the evaluators
they transform (a pushed one over mu's entries as well): on argument
columns it gives the value; on forward-mode jets (``_Jet``) seeded in the
slots asked it gives every partial of order 1 and 2 asked, each
ingredient asked once per point for its entries and their partials
(``_entries``); a collided lambda reads lambda with each group coordinate
at its leader's value.  Only the Laurent coefficients of the residue checks
come from Cauchy circles, read through ``kernel.laurent_coeff``.  A pushed
evaluator's pulled-back loci read columns for the sampler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, SamplingExhausted
from .kernel import (
    Box,
    Diagonal,
    Domain,
    Exclusion,
    FixedPoints,
    JetEvaluator,
    LatticePoints,
    PulledBack,
    ReindexedEvaluator,
    SplitMix64,
    admitted,
    jets,
    laurent_coeff,
    multi_index,
)


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    samples: int
    max_residual: float
    mean_residual: float
    tol: float
    seed: int
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "tolerance": self.tol,
            "pass": self.passed,
            "seed": self.seed,
            "params": self.params,
        }


def worst_residual(residuals) -> float:
    """Largest residual, or NaN when any residual is NaN.

    Python's max keeps or drops a NaN depending on where it stands, so a
    verdict built on it could pass a NaN residual.
    """
    res = [float(r) for r in residuals]
    if any(math.isnan(r) for r in res):
        return math.nan
    return max(res) if res else 0.0


def _make_report(identity, residuals, tol, seed, **params) -> VerificationReport:
    res = [float(r) for r in residuals]
    return VerificationReport(
        identity=identity,
        samples=len(res),
        max_residual=worst_residual(res),
        mean_residual=(sum(res) / len(res)) if res else 0.0,
        tol=tol,
        seed=seed,
        params=params,
    )


class GTStructure:
    """Fiber dimension m, vector-field family g and two-point function f.

    ``g`` is a tuple of m evaluators of arity 1 + m over (p, v1..vm);
    ``f`` has arity 2 + m over (p1, p2, v1..vm).  ``p_box``/``v_boxes``
    bound the sampling region; admissibility of a sample is decided from
    the evaluators' declared domains, so transforms that build correct
    domains inherit correct sampling.
    """

    def __init__(
        self,
        m: int,
        g: Sequence[JetEvaluator],
        f: JetEvaluator,
        label: str = "",
        p_box: Box = (-1.5, 1.5, -1.5, 1.5),
        v_boxes: Sequence[Box] | None = None,
        min_separation: float = 0.25,
        puncture_slots: tuple[int, ...] = (),
    ):
        if len(g) != m:
            raise ValueError(f"need {m} g components, got {len(g)}")
        if f.arity != 2 + m:
            raise ValueError(f"f must take {2 + m} arguments, takes {f.arity}")
        if any(gi.arity != 1 + m for gi in g):
            raise ValueError(f"every g component must take {1 + m} arguments")
        self.m = m
        self.g = tuple(g)
        self.f = f
        self.label = label
        self.p_box = p_box
        self.v_boxes = tuple(v_boxes) if v_boxes is not None else tuple([p_box] * m)
        self.min_separation = min_separation
        # fiber slots whose g-component is f(p, v_slot): collidable punctures
        self.puncture_slots = puncture_slots
        self._loci: dict[tuple, tuple[Exclusion, ...]] = {}  # see _sample_loci

    # -- sampling ----------------------------------------------------------

    def sample(self, count: int, seed: int | SplitMix64, n_p: int) -> np.ndarray:
        """count admissible points (p_1..p_{n_p}, v) as (count, n_p + m) rows in draw
        order.  An int ``seed`` starts a stream; a ``SplitMix64`` there is continued and
        left just past the last draw made, so a next call scores only new draws."""
        rng = seed if isinstance(seed, SplitMix64) else SplitMix64(seed)
        out, tries = admitted(rng, (self.p_box,) * n_p + self.v_boxes, (), count,
                              2000 * max(count, 1), _pairs(n_p) + self._sample_loci(n_p),
                              self.min_separation)
        if len(out) < count:
            raise SamplingExhausted(
                f"{self.label}: {len(out)}/{count} samples after {tries} draws")
        return out

    def _sample_loci(self, n_p: int) -> tuple[Exclusion, ...]:
        """Every locus of every evaluator at every assignment of n_p points,
        over the coordinates (p_1..p_{n_p}, v) of a sample, each distinct
        one once; an evaluator's loci stay together, in declaration order.
        A diagonal between two points is left to the pairwise separation
        test, which bounds it at the same threshold.  Memoized on the structure
        by n_p and its f and g objects: a reassigned f or g is read afresh."""
        key = (n_p, self.f, *self.g)
        if key not in self._loci:
            v = list(range(n_p, n_p + self.m))
            calls = [(gi, [a, *v]) for a in range(n_p) for gi in self.g]
            calls += [(self.f, [a, b, *v]) for a, b in product(range(n_p), repeat=2) if a != b]
            self._loci[key] = tuple(_undeclared(
                ex for e, mapping in calls for ex in e.domain.remap(mapping).exclusions
                if not (isinstance(ex, Diagonal) and max(ex.slots) < n_p)))
        return self._loci[key]


@functools.lru_cache(maxsize=None)
def _pairs(n_p: int) -> tuple[Diagonal, ...]:  # the separation of n_p points, in slot order
    return tuple(Diagonal(a, b) for a, b in combinations(range(n_p), 2))


def apply_field(gv: Sequence[complex], dv: Sequence[complex]) -> complex:
    """sum_j gv[j] dv[j] in slot order: the vector field whose components
    are ``gv`` applied to a function whose fiber partials are ``dv``, at
    one point or, with arrays, at a column of points."""
    return sum(gj * d for gj, d in zip(gv, dv))


@dataclass
class EnhancedGT:
    """GT structure plus the hierarchy-defining two-point function lambda."""

    base: GTStructure
    lam: JetEvaluator

    def __post_init__(self):
        if self.lam.arity != 2 + self.base.m:
            raise ValueError(
                f"lambda must take {2 + self.base.m} arguments, "
                f"takes {self.lam.arity}"
            )

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def label(self) -> str:
        return self.base.label


@dataclass
class Potential:
    h: JetEvaluator  # arity 1 + m over (p, v)
    label: str = ""


@dataclass(frozen=True)
class CoordinateChange:
    """p = mu(p~, v), invertible in p~ on the working region."""

    mu: JetEvaluator  # arity 1 + m


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


def _diagonal_radius(e: JetEvaluator, cols: Sequence[np.ndarray]) -> np.ndarray:
    """Radii of circles in the first slot of e about each point of the
    argument columns ``cols`` (p2, p2, v): limited by every locus of that
    slot near the centre, one distance call per locus over all the points;
    a locus that vanishes at (p2, p2) is the probed diagonal itself
    (however declared), and one not finite bounds nothing."""
    radii = np.ones(len(cols[0]))
    with np.errstate(all="ignore"):
        for ex in e.domain.exclusions:
            if 0 in ex.slots:
                c = ex.distance(cols)
                radii = np.where(c > 1e-9, np.minimum(radii, c), radii)
    return 0.25 * radii


def _rows(s: GTStructure, pts: np.ndarray, *orders: Sequence[int]) -> tuple:
    """The argument columns of the points (p_a, p_b, ..., v) of every row (p_1..p_{n_p}, v)
    of ``pts``, one block per order of point indices, in turn: one fancy index each."""
    v = [*range(pts.shape[1] - s.m, pts.shape[1])]
    return tuple(np.concatenate([pts[:, [*order, *v]] for order in orders]).T)


def _values(evaluators: Sequence[JetEvaluator], cols: tuple) -> np.ndarray:
    """The value of each evaluator at every point of ``cols``, one row per evaluator."""
    return np.array([e.value(cols) for e in evaluators])


def _residues(e: JetEvaluator, s: GTStructure, pts: np.ndarray, nodes: int,
              ks: Sequence[int]) -> np.ndarray:
    """Laurent coefficients k in ``ks`` of e in its first slot about p_1
    of every sample, one row per k, from one ``laurent_coeff`` call over the
    samples' columns."""
    cols = _rows(s, pts, (0, 0))
    return laurent_coeff(e, 0, cols, _diagonal_radius(e, cols), ks, nodes)


def verify_pole(s: GTStructure, samples: int = 100, seed: int = 1,
                tol: float = 1e-8, nodes: int = 64) -> VerificationReport:
    """Diagonal normalization: Laurent coefficient -1 of f in p1 about p2
    equals 1; orders -2 and -3 vanish.  All three come from one circle per
    sample, every sample's circle from one call."""
    c_m1, c_m2, c_m3 = _residues(s.f, s, s.sample(samples, seed, 2), nodes, (-1, -2, -3))
    residuals = np.maximum.reduce([abs(c_m1 - 1.0), abs(c_m2), abs(c_m3)])
    return _make_report("diagonal_pole", residuals, tol, seed,
                        structure=s.label, nodes=nodes)


def _jet(arity: int, *slots: int) -> list[tuple[int, ...]]:
    """The multi-indices of a value and of its first partials in ``slots``."""
    return [multi_index(arity)] + [multi_index(arity, t) for t in slots]


def verify_bracket(s: GTStructure, samples: int = 100, seed: int = 2,
                   tol: float = 1e-8) -> VerificationReport:
    """Commutation identity, componentwise, at every sample (p1, p2, v):
    each g_i asked once at every p1 and p2, f at every (p1, p2) and
    (p2, p1)."""
    m = s.m
    pts = s.sample(samples, seed, 2)
    # g1[i] = (g_i, d_p g_i, d_{v_1} g_i, ...) at p1, g2[i] at p2; f12_d2
    # is f's partial in its second slot at (p1, p2), and so on
    g_at = _rows(s, pts, (0,), (1,))
    *g, f = jets([(gi, g_at, _jet(1 + m, *range(1 + m))) for gi in s.g]
                 + [(s.f, _rows(s, pts, (0, 1), (1, 0)), _jet(2 + m, 1))])
    g1, g2 = zip(*(np.split(gi, 2, axis=1) for gi in g))
    (f12, f12_d2), (f21, f21_d2) = np.split(f, 2, axis=1)
    residuals = []
    for i in range(m):
        bracket = 0.0 + 0.0j
        for j in range(m):
            bracket += g1[j][0] * g2[i][2 + j] - g2[j][0] * g1[i][2 + j]
        rhs = (
            f21 * g1[i][1]
            - f12 * g2[i][1]
            + 2 * f21_d2 * g1[i][0]
            - 2 * f12_d2 * g2[i][0]
        )
        residuals.append(abs(bracket - rhs))
    return _make_report("bracket", np.max(residuals, axis=0), tol, seed, structure=s.label)


def verify_cocycle(s: GTStructure, samples: int = 100, seed: int = 3,
                   tol: float = 1e-8) -> VerificationReport:
    """Cocycle identity at every sample (p1, p2, p3, v): f asked for its
    full jet at (p1, p3) and (p2, p3), for its value and p2 partial at
    (p1, p2) and (p2, p1), each g_j for values at p1 and p2, all in one
    ``jets`` call."""
    m = s.m
    pts = s.sample(samples, seed, 3)
    g_at, value = _rows(s, pts, (0,), (1,)), [multi_index(1 + m)]
    f_full, f_d2, *g = jets([(s.f, _rows(s, pts, (0, 2), (1, 2)), _jet(2 + m, *range(2 + m))),
                             (s.f, _rows(s, pts, (0, 1), (1, 0)), _jet(2 + m, 1))]
                            + [(gi, g_at, value) for gi in s.g])
    f13, f23 = np.split(f_full, 2, axis=1)
    (f12, f12_d2), (f21, f21_d2) = np.split(f_d2, 2, axis=1)
    g1, g2 = np.split(np.concatenate(g), 2, axis=1)
    lhs = apply_field(g2, f13[3:]) - apply_field(g1, f23[3:])
    rhs = (
        f12 * f23[1]
        - f21 * f13[1]
        + f13[0] * f23[2]
        - f23[0] * f13[2]
        + 2 * f23[0] * f12_d2
        - 2 * f13[0] * f21_d2
    )
    return _make_report("cocycle", abs(lhs - rhs), tol, seed, structure=s.label)


def verify_lambda(e: EnhancedGT, samples: int = 100, seed: int = 4,
                  tol: float = 1e-8, nodes: int = 64) -> VerificationReport:
    """Functional identity for lambda, plus its diagonal residue = 1.
    Each evaluator is asked once per jet over the sample set, every jet
    in one ``jets`` call: lambda for its full jet at every (p2, p3), its
    p2 partial at every (p2, p1) and its value at every (p1, p3); f for
    its value and p2 partial at every (p1, p2) and its value at every
    (p1, p3); each g_j for values at p1.  The residue circles are a
    second call."""
    s = e.base
    lam = e.lam
    m = s.m
    pts = s.sample(samples, seed, 3)
    d2, at13, value = _jet(2 + m, 1), _rows(s, pts, (0, 2)), [multi_index(2 + m)]
    g_at = _rows(s, pts, (0,))
    lam23, [lam21_d2], (f12, f12_d2), [lam13], [f13], *g = jets(
        [(lam, _rows(s, pts, (1, 2)), _jet(2 + m, *range(2 + m))),
         (lam, _rows(s, pts, (1, 0)), d2[1:]), (s.f, _rows(s, pts, (0, 1)), d2),
         (lam, at13, value), (s.f, at13, value)]
        + [(gi, g_at, [multi_index(1 + m)]) for gi in s.g])
    lhs = apply_field(np.concatenate(g), lam23[3:])
    rhs = lam13 * lam21_d2 - lam23[0] * f12_d2 - f12 * lam23[1] - f13 * lam23[2]
    # diagonal residue check on a handful of pairs
    [res] = _residues(lam, s, s.sample(min(samples, 10), seed + 1, 2), nodes, (-1,))
    return _make_report("lambda_identity", [*abs(lhs - rhs), *abs(res - 1.0)], tol, seed,
                        structure=s.label)


def verify_potential(e: EnhancedGT, pot: Potential, samples: int = 100,
                     seed: int = 5, tol: float = 1e-8) -> VerificationReport:
    """Potential identity at every sample (p1, p2, v), from one ``jets``
    call: h for its first partials at every p2 and for its p partial at
    every p1, lambda and f for values at every (p1, p2), each g_j for
    values at p1."""
    s = e.base
    h = pot.h
    m = s.m
    pts = s.sample(samples, seed, 2)
    at1, at12 = _rows(s, pts, (0,)), _rows(s, pts, (0, 1))
    h2, [h1_dp], [lam12], [f12], *g = jets(
        [(h, _rows(s, pts, (1,)), _jet(1 + m, *range(1 + m))[1:]),
         (h, at1, [multi_index(1 + m, 0)]),
         (e.lam, at12, [multi_index(2 + m)]), (s.f, at12, [multi_index(2 + m)])]
        + [(gi, at1, [multi_index(1 + m)]) for gi in s.g])
    lhs = apply_field(np.concatenate(g), h2[1:])
    rhs = lam12 * h1_dp - f12 * h2[0]
    return _make_report(
        f"potential:{pot.label}", abs(lhs - rhs), tol, seed, structure=s.label
    )


def verify_all(s: GTStructure, samples: int = 100, seed: int = 1,
               tol: float = 1e-8) -> list[VerificationReport]:
    return [
        verify_pole(s, samples, seed, tol),
        verify_bracket(s, samples, seed + 1, tol),
        verify_cocycle(s, samples, seed + 2, tol),
    ]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def add_points(s: GTStructure, n: int) -> GTStructure:
    """Extend the fiber by n puncture coordinates; new g-components are
    f(p, u_j) and f is unchanged.  New coordinates are appended in call
    order after the existing ones."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m, mn = s.m, s.m + n
    # argument layout of the new structure: (p, v_1..v_m, u_1..u_n); old g_i
    # ignore the punctures, and g[u_j] is f(p, u_j, v): base slots (p1, p2, v)
    # read (0, 1 + m + j, 1..m)
    g_new = [ReindexedEvaluator(gi, 1 + mn, range(1 + m), label=gi.label) for gi in s.g]
    g_new += [ReindexedEvaluator(s.f, 1 + mn, (0, 1 + m + j, *range(1, 1 + m)),
                                 label=f"{s.label}:g[u{j + 1}]") for j in range(n)]
    f_new = ReindexedEvaluator(s.f, 2 + mn, range(2 + m), label=s.f.label)
    return GTStructure(
        m=mn,
        g=g_new,
        f=f_new,
        label=f"{s.label}+{n}pt",
        p_box=s.p_box,
        v_boxes=list(s.v_boxes) + [s.p_box] * n,
        min_separation=s.min_separation,
        puncture_slots=s.puncture_slots + tuple(range(m, mn)),
    )


def _collided_domain(domain: Domain, groups, offset: int, arity: int) -> Domain:
    """Domain for collided evaluators: every locus that mentioned a group
    coordinate now sits at the group's leading coordinate (in the limit all
    group members collapse onto the leader)."""
    lead = {offset + slot: offset + grp[0] for grp in groups for slot in grp}
    return domain.remap([lead.get(t, t) for t in range(arity)])


def _partitions_weighted(s_total: int):
    """Multisets {i_r} with sum r*i_r = s_total; yields (i_1..i_s, weight)
    with weight = s! / (prod i_r! (r!)^{i_r}) - the chain-rule constants of
    the nested collision limit."""
    def rec(remaining, r):
        if remaining == 0:
            yield {}
            return
        if r > remaining:
            return
        for count in range(remaining // r + 1):
            for rest in rec(remaining - r * count, r + 1):
                if count:
                    d = dict(rest)
                    d[r] = count
                    yield d
                else:
                    yield rest

    for partition in rec(s_total, 1):
        w = math.factorial(s_total)
        for r, c in partition.items():
            w //= math.factorial(c) * math.factorial(r) ** c
        yield partition, w


def collide_points_closed(s: GTStructure, groups: Sequence[Sequence[int]]) -> GTStructure:
    """Collide each group of puncture coordinates: the depth-r component
    attached to a group is the r-th coefficient of f(p, u0 + u1 t + u2
    t^2/2! + ...), expanded by the chain rule.  Every group coordinate must
    be a puncture (its g-component is f(p, u)), and the groups non-empty
    and disjoint.  The collided structure's punctures are the parent's
    less every group member but the leader: a leader's component and every
    puncture outside the groups are still f(p, u), so it can be collided
    again."""
    flat = [slot for grp in groups for slot in grp]
    if not all(groups) or len(set(flat)) != len(flat):
        raise ConfigError(f"collision groups must be non-empty and disjoint, got {groups!r}")
    for slot in flat:
        if slot not in s.puncture_slots:
            raise ConfigError(f"coordinate {slot} of {s.label} is not a puncture")
    m = s.m

    fm = functools.partial(multi_index, s.f.arity)  # f's multi-indices over (p, u0, v)

    def g_component(i: int) -> JetEvaluator:
        owner = next((grp for grp in groups if i in grp), None)
        if owner is None:
            return s.g[i]
        r = owner.index(i)
        u0_slot = owner[0]
        # one (d_{p2}^order f, weight, powers (r', i_r') of the monomial) per term
        terms = [(fm(*[1] * sum(partition.values())), w, tuple(partition.items()))
                 for partition, w in (_partitions_weighted(r) if r > 0 else [({}, 1)])]
        orders = list(dict.fromkeys(dm for dm, _, _ in terms))

        def formula(args, at):
            # u0 feeds f twice, as p2 and as its own fiber coordinate
            p, v = args[0], args[1:]
            u = [v[slot] for slot in owner]
            dvals = dict(zip(orders, at(s.f, (p, v[u0_slot], *v), orders)))
            total = 0.0 + 0.0j
            for dm, w, powers in terms:
                mono = 1.0 + 0.0j
                for rr, c in powers:
                    mono *= u[rr] ** c
                total += w * dvals[dm] * mono
            return total

        dom = _collided_domain(s.g[i].domain, groups, offset=1, arity=1 + m)
        return _Formula(1 + m, formula, dom, f"{s.label}:closed-collided g[{i}]")

    return GTStructure(
        m=m,
        g=[g_component(i) for i in range(m)],
        f=s.f,
        label=f"{s.label}:closed-collided",
        p_box=s.p_box,
        v_boxes=s.v_boxes,
        min_separation=s.min_separation,
        puncture_slots=tuple(slot for slot in s.puncture_slots
                             if not any(slot in grp[1:] for grp in groups)),
    )


def collide_enhanced(e: EnhancedGT, groups: Sequence[Sequence[int]]) -> EnhancedGT:
    """Collide the base structure (``collide_points_closed``); lambda reads
    every group coordinate at its leader's value, as the collision sets it."""
    base = collide_points_closed(e.base, groups)
    m = e.m
    lead = {slot: grp[0] for grp in groups for slot in grp}

    def formula(args, at):
        p1, p2, v = args[0], args[1], args[2:]
        return at(e.lam, (p1, p2, *(v[lead.get(j, j)] for j in range(m))),
                  [multi_index(2 + m)])[0]

    dom = _collided_domain(e.lam.domain, groups, offset=2, arity=2 + m)
    return EnhancedGT(base, _Formula(2 + m, formula, dom, f"{e.label}:collided lambda"))


def _undeclared(loci: Iterable[Exclusion], declared: Sequence[Exclusion] = ()) -> list:
    """The loci, in order, that neither ``declared`` nor an earlier one of them
    already bounds, in one pass: a locus is bounded by an equal one (a
    diagonal, or lattice points of a difference, in either slot order: the
    lattice is symmetric under z -> -z; any other kind by its fields, a
    pulled-back locus by identity), fixed points by fixed points in their
    slot over a superset of their points."""
    seen: set = set()
    fixed: dict[tuple, list[set]] = {}  # slots -> the point sets kept there
    out = []
    for k, ex in enumerate((*declared, *loci)):
        if isinstance(ex, FixedPoints):
            points, kept = set(ex.points), fixed.setdefault(ex.slots, [])
            new = not any(points <= other for other in kept)
            if new:
                kept.append(points)
        else:
            key = ((Diagonal, tuple(sorted(ex.slots))) if isinstance(ex, Diagonal) else
                   (LatticePoints, ex.tau_slot, frozenset((ex.i, ex.j)))
                   if isinstance(ex, LatticePoints) else (type(ex), *vars(ex).items()))
            new = key not in seen
            seen.add(key)
        if new and k >= len(declared):
            out.append(ex)
    return out


class _Jet:
    """A forward-mode jet (Griewank & Walther, *Evaluating Derivatives*,
    ch. 3 and 13): a value column ``v``, ``d``, one row of first partials
    per slot seeded, and, in a second-order jet (``dd`` not None), ``dd``,
    one row of second partials per ordered pair of those slots.  Closed
    under + - * / and integer powers, with numbers and arrays on either
    side (numpy defers to it)."""

    __array_ufunc__ = None

    def __init__(self, v, d=0.0, dd=None):
        self.v, self.d, self.dd = v, d, dd

    def __add__(self, o):
        o = _lift(o, self)
        return _Jet(self.v + o.v, self.d + o.d, None if self.dd is None else self.dd + o.dd)

    def __sub__(self, o):
        o = _lift(o, self)
        return _Jet(self.v - o.v, self.d - o.d, None if self.dd is None else self.dd - o.dd)

    def __rsub__(self, o):
        return _lift(o, self) - self

    def __mul__(self, o):
        o = _lift(o, self)
        dd = None if self.dd is None else self.dd * o.v + self.v * o.dd + _sym(self.d, o.d)
        return _Jet(self.v * o.v, self.d * o.v + self.v * o.d, dd)

    def __truediv__(self, o):
        o = _lift(o, self)
        q = self.v / o.v
        d = (self.d - q * o.d) / o.v
        return _Jet(q, d, None if self.dd is None else (self.dd - q * o.dd - _sym(d, o.d)) / o.v)

    def __rtruediv__(self, o):
        return _lift(o, self) / self

    def __pow__(self, k: int):
        dd = None if self.dd is None else k * self.v ** (k - 2) * (
            self.v * self.dd + 0.5 * (k - 1) * _sym(self.d, self.d))
        return _Jet(self.v ** k, k * self.v ** (k - 1) * self.d, dd)

    __radd__, __rmul__ = __add__, __mul__


def _lift(x, like: _Jet | None = None) -> _Jet:
    """x as a jet of ``like``'s order: a number or an array is one with no partials."""
    dd = None if like is None or like.dd is None else 0.0
    return x if isinstance(x, _Jet) else _Jet(x, 0.0, dd)


def _sym(a, b):
    """a_s b_t + a_t b_s over the ordered pairs (s, t) of the rows of first
    partials a and b (b may be a number's 0)."""
    ab = a[:, None] * b
    return ab + ab.swapaxes(0, 1)


def _entries(e: JetEvaluator, point, multis) -> list:
    """e's entries ``multis`` at ``point``: its ``partials`` rows on argument
    columns.  At a point where some slots hold jets, one ``partials`` request
    for the entries and their partials in those slots (second ones too, for
    second-order jets), every entry a jet chained through the point's own
    partials: d_a E = sum_t E_t x_t,a and d_a d_b E = sum_t E_t x_t,ab +
    sum_t,u E_tu x_t,a x_u,b."""
    live = [t for t, x in enumerate(point) if isinstance(x, _Jet)]
    if not live:
        return e.partials(point, multis)
    pairs = [(t, u) for t in live for u in live] if point[live[0]].dd is not None else []
    up = [[tuple(o + (s == t) for s, o in enumerate(multi)) for t in live] for multi in multis]
    up2 = [[tuple(o + (s == t) + (s == u) for s, o in enumerate(multi)) for t, u in pairs]
           for multi in multis]
    keys = list(dict.fromkeys([*multis, *(d for ds in up + up2 for d in ds)]))
    table = dict(zip(keys, e.partials(tuple(_lift(x).v for x in point), keys)))
    out = []
    for multi, ds, ds2 in zip(multis, up, up2):
        dd = (sum(table[d] * point[t].dd for d, t in zip(ds, live))
              + sum(table[d] * (point[t].d[:, None] * point[u].d) for d, (t, u) in zip(ds2, pairs))
              if pairs else None)
        out.append(_Jet(table[multi], sum(table[d] * point[t].d for d, t in zip(ds, live)), dd))
    return out


class _Formula(JetEvaluator):
    """The evaluator ``formula(args, at)``: arithmetic over entries of other
    evaluators, each read as ``at(e, point, multis)``.  Its value is the
    formula on argument columns; its partials of order 1 and 2 are one run
    of the same formula on jets seeded in the slots they name (second-order
    jets when an order 2 is asked), with ``_entries`` asking each ingredient
    once per point for all of them.  The value is left to ``fn`` (a genus-1
    entry asked with its partials sums a wider theta window, so the jet's
    value can round apart from it), and a higher order has no closed form.
    The formula answers argument columns, as ``catalog.place`` does."""

    def __init__(self, arity: int, formula, domain: Domain, label: str):
        self.formula = formula
        super().__init__(arity, self._fn, domain=domain, partial_fn=self._partial,
                         label=label)

    def _fn(self, *args):
        return self.formula(args, _entries)

    def _partial(self, args, multis):
        slots = list(dict.fromkeys(t for multi in multis if sum(multi) in (1, 2)
                                   for t, o in enumerate(multi) if o))
        if not slots:
            return [NotImplemented] * len(multis)
        k = len(slots)
        second = np.zeros((k, k, 1)) if any(sum(multi) == 2 for multi in multis) else None
        point, seeds = list(args), np.eye(k)[:, :, None]
        for t, seed in zip(slots, seeds):
            point[t] = _Jet(args[t], seed, second)
        jet = self.formula(tuple(point), _entries)
        if not isinstance(jet, _Jet):  # the formula reads none of the slots seeded
            jet = _Jet(jet, np.zeros((k, 1)), second)
        rows = [[slots.index(t) for t, o in enumerate(multi) for _ in range(o) if sum(multi) < 3]
                for multi in multis]  # the seeds an order 1 or 2 reads, nothing for the others
        return [jet.d[i[0]] if len(i) == 1 else jet.dd[i[0], i[1]] if i else NotImplemented
                for i in rows]


class _Composed(_Formula):
    """A ``_Formula`` that reads ``inner``'s value at ``image(args)``, once,
    beside other entries (the map's own partials, say).  The domain pulls
    back ``inner``'s loci and ``loci``, the singular loci in ``inner``'s
    slots of what the formula adds.  Value rows take ``inner``'s rows along
    the loops as the formula maps them, so a branch ``inner`` continues
    along a loop survives the composition."""

    def __init__(self, inner: JetEvaluator, image, formula, arity: int, label: str,
                 loci: Sequence[Exclusion] = ()):
        self.inner, self.image = inner, image
        super().__init__(arity, formula, Domain(tuple(
            PulledBack(image, ex, range(arity)) for ex in (*inner.domain.exclusions, *loci))),
            label)

    def eval_rows(self, loops, anchors):
        """The formula's values with ``inner``'s continued loop rows."""
        def at(e, point, multis):
            if e is not self.inner:
                return _entries(e, point, multis)
            return self.inner.eval_rows(tuple(np.reshape(x, loops[0].shape) for x in point),
                                        self.image(anchors)).reshape(1, -1)

        return self.formula(tuple(col.ravel() for col in loops), at).reshape(loops[0].shape)


def pushforward(s: GTStructure, c: CoordinateChange) -> GTStructure:
    """Transport the structure through p = mu(p~, v).

    g~(p~) = mu'(p~)^2 g(mu(p~)); f picks up the extra g(mu(p~1))(mu(p~2))
    term so that the pole normalization survives, and with it each g_j
    locus at (mu(p~1), v) that f does not already declare.  Each is one
    formula over mu's entries and the wrapped evaluators (``_Composed``):
    mu asked once per point, for its value and mu_p (and mu_v at p2).  Its
    first partials are the formula on jets.
    """
    m = s.m
    mu = c.mu
    mi = functools.partial(multi_index, 1 + m)  # mu's and g's multi-indices over (p, v)
    dvs = [mi(1 + j) for j in range(m)]
    value_dp = [mi(), mi(0)]  # mu and mu_p

    def g_image(args):
        return (mu.value(args), *args[1:])

    def g_formula(i):
        def formula(args, at):
            mu_val, mu_p = at(mu, args, value_dp)
            [val] = at(s.g[i], (mu_val, *args[1:]), [mi()])
            return mu_p ** 2 * val

        return formula

    def f_image(args):
        v = args[2:]
        return (mu.value((args[0], *v)), mu.value((args[1], *v)), *v)

    def f_formula(args, at):
        p1, p2, *v = args
        mu1, mu_p1 = at(mu, (p1, *v), value_dp)
        mu2, mu_p2, *mu_v2 = at(mu, (p2, *v), value_dp + dvs)
        [val] = at(s.f, (mu1, mu2, *v), [multi_index(2 + m)])
        # g(mu(p1)) applied to mu(p2, v) through the fiber coordinates
        gterm = 0.0 + 0.0j
        for j in range(m):
            [G] = at(s.g[j], (mu1, *v), [mi()])
            gterm += G * mu_v2[j]
        return (mu_p1 ** 2 / mu_p2) * (val - gterm)

    g_loci = _undeclared([ex for g in s.g
                          for ex in g.domain.remap([0, *range(2, 2 + m)]).exclusions],
                         s.f.domain.exclusions)
    return GTStructure(
        m=m,
        g=[_Composed(s.g[i], g_image, g_formula(i), 1 + m, f"{s.label}:pushed g[{i}]")
           for i in range(m)],
        f=_Composed(s.f, f_image, f_formula, 2 + m, f"{s.label}:pushed f", g_loci),
        label=f"{s.label}:pushed",
        p_box=s.p_box,
        v_boxes=s.v_boxes,
        min_separation=s.min_separation,
    )


def pushforward_lambda(e: EnhancedGT, c: CoordinateChange) -> EnhancedGT:
    """lambda~ = mu_p(p~1) lambda(mu1, mu2, v) beside the pushed base, one
    formula as there."""
    mu = c.mu
    base = pushforward(e.base, c)
    mi = functools.partial(multi_index, 1 + e.m)

    def formula(args, at):
        p1, p2, *v = args
        mu1, mu_p1 = at(mu, (p1, *v), [mi(), mi(0)])
        [mu2] = at(mu, (p2, *v), [mi()])
        [val] = at(e.lam, (mu1, mu2, *v), [multi_index(2 + e.m)])
        return mu_p1 * val

    lam = _Composed(e.lam, base.f.image, formula, base.f.arity, f"{e.label}:pushed lambda")
    return EnhancedGT(base, lam)
