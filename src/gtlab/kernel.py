"""Deterministic complex-analytic numerics.

Everything downstream is built on three primitives: derivatives of holomorphic
evaluators by Cauchy circle quadrature, Gauss-Legendre path integration (its rules,
from ``gauss_legendre``, are hyperell's period rules too), and a seeded
generator of points in complex boxes, counter-based (``SplitMix64.block`` is n draws at
once, the scalar stream bit for bit): the samplers that reject points near singular loci,
``GTStructure.sample`` and ``PotentialFamily.sample_z``, judge blocks of its draws on
argument columns in ``admitted``.  The genus-1 theta series and its log derivative live here.

``JetEvaluator.partials(args, multis)`` is the one way to take values and
partial derivatives (``partial`` asks it for one), and ``multi_index`` the
one way to name them, the zero multi-index naming the value.  The
evaluator's ``partial_fn(args, multis)`` gets the request exactly as asked,
the value included, and answers or declines (NotImplemented) each entry in
one call, so a closed form shares its terms across them.  A declined value
comes from ``fn``; the declined partials are grouped by their leading slot,
so each slot costs one ``deriv_radius`` and one circle, with one row of
samples per distinct rest, whatever the number of partials read from it.  A
consumer asks each evaluator for everything it needs at one point in one
call.
``JetEvaluator.eval_rows`` samples values or partials along a loop of
argument tuples, one row per requested partial, and is the one evaluator
override: an evaluator with multivalued ingredients (a square root, say)
continues its branch along the loop there, and a wrapper maps the loop
into the evaluator it wraps.  ``eval_circle`` builds a circle's loop and
hands it to ``eval_rows``.

A sample set is asked in the same call: ``partials`` and ``value`` take a
point or a tuple of ``arity`` argument columns of N points (``on_columns``
is the one test of which), and on columns return one row per multi-index;
``eval_circles`` returns the values on N circles as an N x nodes array.
An evaluator built with ``columns`` set (the placed catalog kernels and
the pushed evaluators over them) has its ``partial_fn`` and ``fn`` answer
the columns with numpy arrays; for every other one the base class is the
single per-point adapter: ``partials`` per point and ``eval_circle`` per
circle, so sheet tracking and collided evaluators keep their exact floats.

Each genus-1 jet is one ``theta_jet`` sum over k, at one point or over N
points (one ``np.exp`` over an N x (2K + 1) grid), with its weights cached
read-only per window; ``log_jet`` turns its rectangle into log theta's.  A
point's rectangle, ``log_theta_jet``, is memoised: the torus catalog asks at
the same point many times, and a hit is the float a recomputation would give.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainViolation,
    InvalidModulus,
    NonConvergence,
    PoleHit,
)

TWO_PI_I = 2j * math.pi

DEFAULT_NODES = 32
DEFAULT_RADIUS_FRACTION = 0.25
MAX_RADIUS = 0.35


def require_finite(*values: complex) -> None:
    for z in values:
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainViolation(f"non-finite complex value {z!r}")


# ---------------------------------------------------------------------------
# exclusion loci / domains
# ---------------------------------------------------------------------------


class Exclusion:
    """A singular locus over the argument slots ``slots``.  distance()
    bounds how far any of those arguments may move before the locus is
    hit; the other slots do not see it."""

    slots: tuple[int, ...]

    def distance(self, args: Sequence[complex]) -> float:
        """The bound at one point, from a Python expression, or over argument columns
        (arrays): not finite where the number would raise, else it but for the last bits."""
        raise NotImplementedError

    def remap(self, mapping: Sequence[int]) -> "Exclusion":
        """Return the same locus with slot s renamed to mapping[s]."""
        raise NotImplementedError


class FixedPoints(Exclusion):
    """args[slot] must avoid a fixed finite point set (e.g. p in {0, 1})."""

    def __init__(self, slot: int, points: Sequence[complex]):
        self.slots = (slot,)
        self.points = tuple(complex(p) for p in points)

    def distance(self, args):
        z = args[self.slots[0]]
        return (np.abs(np.subtract.outer(z, self.points)).min(axis=-1) if isinstance(z, np.ndarray)
                else min(abs(z - p) for p in self.points))

    def remap(self, mapping):
        return FixedPoints(mapping[self.slots[0]], self.points)


class Diagonal(Exclusion):
    """args[i] = args[j] is excluded (simple pole on the diagonal)."""

    def __init__(self, i: int, j: int):
        self.slots = (i, j)

    def distance(self, args):
        i, j = self.slots
        return abs(args[i] - args[j])

    def remap(self, mapping):
        return Diagonal(*(mapping[s] for s in self.slots))


class HalfPlane(Exclusion):
    """Im args[slot] > 0 required (modular parameters)."""

    def __init__(self, slot: int):
        self.slots = (slot,)

    def distance(self, args):
        return args[self.slots[0]].imag

    def remap(self, mapping):
        return HalfPlane(mapping[self.slots[0]])


class LatticePoints(Exclusion):
    """args[i] - args[j] (or args[i] alone, j None) must avoid Z + tau Z,
    with tau read from args[tau_slot]."""

    def __init__(self, i: int, tau_slot: int, j: int | None = None):
        self.i, self.j, self.tau_slot = i, j, tau_slot
        self.slots = (i, tau_slot) if j is None else (i, j, tau_slot)

    def distance(self, args):
        z = args[self.i] - (args[self.j] if self.j is not None else 0.0)
        return lattice_distance(z, args[self.tau_slot])

    def remap(self, mapping):
        j = None if self.j is None else mapping[self.j]
        return LatticePoints(mapping[self.i], mapping[self.tau_slot], j)


class PulledBack(Exclusion):
    """A locus of an evaluator behind a map, pulled back conservatively: ``locus``'s
    distance at ``image(args[t] for t in slots)``, halved to absorb the local stretch of the
    map; at a point or on argument columns, as ``image`` answers either."""

    def __init__(self, image, locus: Exclusion, slots: Sequence[int]):
        self.image, self.locus, self.slots = image, locus, tuple(slots)

    def distance(self, args):
        return 0.5 * self.locus.distance(self.image(tuple(args[t] for t in self.slots)))

    def remap(self, mapping):
        return PulledBack(self.image, self.locus, [mapping[t] for t in self.slots])


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the lattice Z + tau Z (Im tau > 0) over 3 x 3 points about the
    nearest; over arrays, the 3 x 3 broadcast, and NaN where Im tau <= 0."""
    if isinstance(z, np.ndarray) or isinstance(tau, np.ndarray):
        z, tau = np.asarray(z)[..., None, None], np.asarray(tau)[..., None, None]
        w = z - (np.rint(z.imag / np.where(tau.imag > 0, tau.imag, np.nan)) + _NEAR[:, None]) * tau
        return np.abs(w - (np.rint(w.real) + _NEAR)).min(axis=(-2, -1))
    if tau.imag <= 0:
        raise InvalidModulus(f"Im tau must be positive, got {tau}")
    n = round(z.imag / tau.imag)
    best = math.inf
    for dn in (-1, 0, 1):
        w = z - (n + dn) * tau
        m = round(w.real)
        for dm in (-1, 0, 1):
            best = min(best, abs(w - (m + dm)))
    return best


@dataclass(frozen=True)
class Domain:
    """Set of declared singular loci for an evaluator."""

    exclusions: tuple[Exclusion, ...] = ()

    def clearance(self, args: Sequence[complex], slot: int) -> float:
        """How far args[slot] may move: the distance to the nearest locus
        that involves the slot, inf when none does."""
        return min((e.distance(args) for e in self.exclusions if slot in e.slots),
                   default=math.inf)

    def remap(self, mapping: Sequence[int]) -> "Domain":
        return Domain(tuple(e.remap(mapping) for e in self.exclusions))

    def merged(self, other: "Domain") -> "Domain":
        return Domain(self.exclusions + other.exclusions)


EMPTY_DOMAIN = Domain()
_NEAR = np.arange(-1.0, 2.0)


def admitted(rng, boxes: Sequence, fixed: Sequence[complex], count: int, budget: int,
             loci: Sequence[Exclusion], threshold: float, numbers) -> tuple[list, int]:
    """The first ``count`` of at most ``budget`` draws (in ``boxes``, then ``fixed``) that
    clear ``loci`` by ``threshold``, and the draws made; blocks of 16 + 2 * (count - admitted)
    read by one array expression per locus kind (pulled-back loci: their map once, then one
    per kind of what it pulls back).  The scalar test ``numbers(args)`` decides a draw within
    1e-9 * threshold (numpy's abs may differ in the last bit) or not finite."""
    groups, out, tries, band = _locus_groups(tuple(loci)), [], 0, 1e-9 * threshold
    while len(out) < count and tries < budget:
        block = rng.complex_in_boxes(boxes, min(16 + 2 * (count - len(out)), budget - tries))
        if len(fixed):
            block = np.hstack([block, np.tile(np.array(fixed, dtype=complex), (len(block), 1))])
        with np.errstate(all="ignore"):  # without loci every distance reads NaN
            d = np.vstack([rep.distance(block.T[slots]) for rep, slots in groups]
                          or [np.full((1, len(block)), np.nan)])
        # (far - near) * 0 is 0 only when every distance is finite: NaN reaches both, inf one
        for row, near, far in zip(block.tolist(), d.min(axis=0).tolist(), d.max(axis=0).tolist()):
            tries += 1
            sure = (far - near) * 0 == 0 and not -band <= near - threshold <= band
            if (near > threshold) if sure else numbers(tuple(row)):
                out.append(tuple(row))
                if len(out) == count:
                    break
    return out, tries


@functools.lru_cache(maxsize=8)
def _locus_groups(loci: tuple[Exclusion, ...]) -> tuple:
    """One representative over slots 0, 1, ... per locus kind (and point set) with its slots
    stacked over the loci of that kind, and one ``_Images`` per map of pulled-back loci with
    the slots of each of its placements stacked."""
    groups: dict = {}
    pulled: dict = {}
    for ex in loci:
        if isinstance(ex, PulledBack):
            pulled.setdefault(ex.image, []).append(ex)
            continue
        rep = ex.remap({s: k for k, s in enumerate(ex.slots)})
        groups.setdefault((type(rep), repr(vars(rep))), (rep, []))[1].append(ex.slots)
    return tuple((rep, np.array(slots).T) for rep, slots in groups.values()) + tuple(
        (images, np.array(images.places).T) for images in map(_Images, pulled.values()))


class _Images:
    """Loci pulled back through one map, at K placements (slot tuples) of it: the map once
    on the (arity, K, N) columns of all K, its K images side by side as one block of
    K * width columns, each locus moved onto its placement's, one expression per kind there."""

    def __init__(self, loci: Sequence[PulledBack]):
        self.image = loci[0].image
        self.places = list(dict.fromkeys(ex.slots for ex in loci))
        self.width = w = 1 + max(max(ex.locus.slots) for ex in loci)
        self.groups = _locus_groups(tuple(ex.locus.remap(range(k * w, (k + 1) * w))
                                          for ex in loci for k in [self.places.index(ex.slots)]))

    def distance(self, cols):
        arity, k, n = cols.shape
        mapped = np.array(self.image(tuple(cols.reshape(arity, k * n)))[:self.width])
        block = mapped.reshape(self.width, k, n).transpose(1, 0, 2).reshape(k * self.width, n)
        return 0.5 * np.vstack([rep.distance(block[slots]) for rep, slots in self.groups])


# ---------------------------------------------------------------------------
# jet evaluators
# ---------------------------------------------------------------------------


def multi_index(arity: int, *slots: int) -> tuple[int, ...]:
    """The multi-index with each of ``slots`` raised by one: no slot names
    the value, one a first partial, a repeated or second slot a second."""
    multi = [0] * arity
    for t in slots:
        multi[t] += 1
    return tuple(multi)


def on_columns(args) -> bool:
    """Whether ``args`` is a tuple of argument columns (arrays) rather than one point."""
    return isinstance(args[0], np.ndarray)


class JetEvaluator:
    """A pure holomorphic function handle: values plus partial derivatives.

    ``fn`` maps ``arity`` complex arguments to a complex value.  Partials
    default to Cauchy circle quadrature with the radius derived from the
    declared domain; an optional ``partial_fn(args, multis)`` may supply
    closed forms.  A ``partial_fn`` answers or declines every multi-index,
    the value included: it gets the whole request, as asked, and returns
    one entry per multi-index, NotImplemented where ``fn`` (for the value)
    or the circles should answer.  One that has no closed form for the
    value declines it before doing any work.  ``partials`` and ``value``
    take a point or a tuple of ``arity`` argument columns; with ``columns``
    set, ``partial_fn`` and ``fn`` answer columns too, each entry an array
    over the points or a constant, else each point is asked in turn.
    """

    def __init__(
        self,
        arity: int,
        fn: Callable[..., complex],
        domain: Domain = EMPTY_DOMAIN,
        partial_fn: Callable | None = None,
        label: str = "",
        columns: bool = False,
    ):
        self.arity = arity
        self.fn = fn
        self.domain = domain
        self.partial_fn = partial_fn
        self.label = label
        self.columns = columns

    def value(self, args: Sequence[complex]) -> complex:
        """The value at a point, or the values on argument columns (through ``partials``)."""
        if len(args) != self.arity:
            raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                             f"arguments, got {len(args)}")
        if on_columns(args):
            return self.partials(args, (multi_index(self.arity),))[0]
        return complex(self.fn(*args))

    def deriv_radius(self, args: Sequence[complex], slot: int) -> float:
        require_finite(*args)
        c = self.domain.clearance(args, slot)
        if not c > 0:  # NaN too: a locus that cannot be measured is not cleared
            raise DomainViolation(
                f"argument {slot} of {self.label or 'evaluator'} sits on a "
                f"declared singular locus (clearance {c})"
            )
        r = DEFAULT_RADIUS_FRACTION * c
        return min(r, MAX_RADIUS)

    def eval_rows(self, rows: Sequence[Sequence[complex]], anchor: Sequence[complex],
                  rests: Sequence[Sequence[int] | None]) -> np.ndarray:
        """Samples at each argument tuple of a loop, one row per entry of
        ``rests``: values for None, else the partial with that (nonzero)
        multi-index.  Evaluators with multivalued ingredients override
        this to continue them along the loop from their values at
        ``anchor``."""
        return np.array([[self.fn(*row) if rest is None else self.partial(row, rest)
                          for row in rows] for rest in rests], dtype=complex)

    def eval_circle(self, slot: int, args: Sequence[complex], center: complex, radius: float,
                    nodes: int, rests: Sequence[Sequence[int] | None]) -> np.ndarray:
        """``eval_rows`` on an equispaced circle about ``center`` in one
        slot, anchored at ``args`` with ``center`` in that slot.  A
        non-finite sample (an undeclared singularity on the circle, or an
        overflow) raises ``DomainViolation``."""
        work = list(args)
        rows = []
        for k in range(nodes):
            work[slot] = center + radius * cmath.exp(TWO_PI_I * k / nodes)
            rows.append(tuple(work))
        work[slot] = center
        vals = self.eval_rows(rows, tuple(work), rests)
        if not np.isfinite(vals).all():
            raise DomainViolation(
                f"{self.label or 'evaluator'}: non-finite samples on the circle of "
                f"radius {radius} about {center!r} in slot {slot}"
            )
        return vals

    def eval_circles(self, slot: int, args: Sequence[np.ndarray], radii: Sequence[float],
                     nodes: int) -> np.ndarray:
        """Values on N circles, an (N, nodes) array: circle i runs in one slot
        about args[slot][i], ``args`` a tuple of argument columns, with radius
        radii[i], through the nodes ``eval_circle`` would place.  With ``columns``
        every node of every circle is one entry of one ``value`` call; without it
        each circle is one ``eval_circle``.  A non-finite sample on any circle
        raises ``DomainViolation``."""
        args, radii = [np.asarray(col, dtype=complex) for col in args], np.asarray(radii, float)
        if not self.columns:
            rows = zip(*(col.tolist() for col in args))
            return np.array([self.eval_circle(slot, row, row[slot], r, nodes, [None])[0]
                             for row, r in zip(rows, radii.tolist())],
                            dtype=complex).reshape(len(radii), nodes)
        ring = np.array([cmath.exp(TWO_PI_I * k / nodes) for k in range(nodes)])
        grid = [np.repeat(col, nodes) for col in args]
        grid[slot] = (args[slot][:, None] + radii[:, None] * ring).ravel()
        vals = self.value(tuple(grid)).reshape(len(radii), nodes)
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
        if len(bad):
            i = bad[0]
            raise DomainViolation(
                f"{self.label or 'evaluator'}: non-finite samples on circle {i} of "
                f"{len(radii)}, radius {radii[i]} about {complex(args[slot][i])!r} "
                f"in slot {slot}"
            )
        return vals

    def partial(self, args: Sequence[complex], multi: Sequence[int]) -> complex:
        return self.partials(args, (multi,))[0]

    def partials(self, args: Sequence[complex],
                 multis: Sequence[Sequence[int]]) -> list[complex] | np.ndarray:
        """Values and partials, one per multi-index: a list at one point, a
        (len(multis), N) array on argument columns (``_column_partials``).
        At a point ``partial_fn`` gets the request as asked, the zero
        multi-index included; of what it declines, the value comes from
        ``fn`` and the partials share one circle per leading slot, the
        orders read with one rest sharing its row."""
        if len(args) != self.arity:
            raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                             f"arguments, got {len(args)}")
        for multi in multis:
            if len(multi) != self.arity:
                raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                                 f"derivative orders, got {len(multi)}")
        if on_columns(args):
            return self._column_partials([np.asarray(col, dtype=complex) for col in args], multis)
        args = tuple(args)
        out = (list(self.partial_fn(args, multis)) if self.partial_fn is not None
               else [NotImplemented] * len(multis))
        circles: dict[int, list] = {}
        for i, multi in enumerate(multis):
            if out[i] is not NotImplemented:
                out[i] = complex(out[i])
                continue
            if not any(multi):
                out[i] = complex(self.fn(*args))
                continue
            slot = next(s for s, o in enumerate(multi) if o > 0)
            rest = tuple(0 if s == slot else o for s, o in enumerate(multi))
            circles.setdefault(slot, []).append((i, multi[slot], rest if any(rest) else None))
        for slot, group in circles.items():
            radius = self.deriv_radius(args, slot)
            rests = list(dict.fromkeys(rest for _, _, rest in group))
            rows = self.eval_circle(slot, args, args[slot], radius, DEFAULT_NODES, rests)
            for i, order, rest in group:
                vals = rows[rests.index(rest)]
                out[i] = _circle_coeff(vals, radius, order) * math.factorial(order)
        return out

    def _column_partials(self, cols: list[np.ndarray], multis) -> np.ndarray:
        """``partials`` on argument columns: with ``columns`` set, ``partial_fn`` and
        a declined value's ``fn`` on them, an overflow or inf - inf a non-finite entry
        (which fails a check or ``eval_circles``) with no warning first; every other
        entry from each point's ``partials`` row, its exact floats."""
        n = cols[0].size
        if any(col.shape != (n,) for col in cols):
            raise ValueError(f"{self.label or 'evaluator'} takes argument columns of one "
                             f"length, got shapes {[col.shape for col in cols]}")
        out = [NotImplemented] * len(multis)
        if self.columns:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if self.partial_fn is not None:
                    out = list(self.partial_fn(tuple(cols), multis))
                out = [self.fn(*cols) if entry is NotImplemented and not any(multi) else entry
                       for multi, entry in zip(multis, out)]
        rest = [multi for multi, entry in zip(multis, out) if entry is NotImplemented]
        if rest:
            points = zip(*(col.tolist() for col in cols))
            rows = iter(np.array([self.partials(point, rest) for point in points],
                                 dtype=complex).reshape(n, len(rest)).T)
            out = [next(rows) if entry is NotImplemented else entry for entry in out]
        table = np.empty((len(multis), n), dtype=complex)
        for i, entry in enumerate(out):
            table[i] = entry  # an array over the points, or a constant
        return table


def _circle_coeff(vals: np.ndarray, radius, k: int):
    """k-th Taylor/Laurent coefficient from equispaced circle samples along
    the last axis: a complex for one circle, an array for a stack of
    circles with an array of radii."""
    n = vals.shape[-1]
    phases = np.exp(-TWO_PI_I * k * np.arange(n) / n)
    out = np.sum(vals * phases, axis=-1) / (n * radius**k)
    return complex(out) if np.ndim(out) == 0 else out


class ReindexedEvaluator(JetEvaluator):
    """Wrap a base evaluator with permuted/embedded argument slots.

    ``source[b]`` gives the slot of the new argument vector feeding base
    slot b.  Sources must be distinct; new slots not referenced are inert
    (the function is constant in them, partials there vanish).
    """

    def __init__(self, base: JetEvaluator, arity: int, source: Sequence[int], label: str = ""):
        if len(source) != base.arity:
            raise ValueError(f"source must name {base.arity} slots, got {len(source)}")
        if len(set(source)) != len(source):
            raise ValueError(f"source slots must be distinct, got {tuple(source)}")
        self.base = base
        self.source = tuple(source)
        domain = base.domain.remap(self.source)
        super().__init__(arity, self._fn, domain=domain, partial_fn=self._partial,
                         label=label or base.label)

    def _to_base(self, xs):
        return tuple(xs[s] for s in self.source)

    def _fn(self, *args):
        return self.base.fn(*self._to_base(args))

    def _inert(self, multi) -> bool:
        return any(o > 0 and s not in self.source for s, o in enumerate(multi))

    def _partial(self, args, multis):
        live = [self._to_base(multi) for multi in multis if not self._inert(multi)]
        vals = iter(self.base.partials(self._to_base(args), live) if live else ())
        return [0.0 + 0.0j if self._inert(multi) else next(vals) for multi in multis]

    def eval_rows(self, rows, anchor, rests):
        out = np.zeros((len(rests), len(rows)), dtype=complex)
        live = [i for i, rest in enumerate(rests) if rest is None or not self._inert(rest)]
        if live:
            out[live] = self.base.eval_rows(
                [self._to_base(row) for row in rows], self._to_base(anchor),
                [None if rests[i] is None else self._to_base(rests[i]) for i in live])
        return out


# ---------------------------------------------------------------------------
# circle quadrature operations
# ---------------------------------------------------------------------------


def cauchy_derivative(
    e: JetEvaluator,
    slot: int,
    args: Sequence[complex],
    order: int,
    radius: float | None = None,
    nodes: int = DEFAULT_NODES,
    tol: float | None = None,
) -> complex:
    """order-th derivative in one slot via trapezoid quadrature on a circle.

    Spectrally accurate for holomorphic integrands.  With ``tol`` set the
    node count is doubled once and the two Taylor coefficients must agree.
    """
    require_finite(*args)
    if order < 0:
        raise ValueError("order must be >= 0")
    if radius is None:
        radius = e.deriv_radius(args, slot)
    clearance = e.domain.clearance(args, slot)
    if radius >= clearance:
        raise DomainViolation(
            f"derivative disc of radius {radius} intersects a pole locus "
            f"(clearance {clearance})"
        )
    if order == 0 and tol is None:
        return e.value(args)
    coeff = laurent_coeff(e, slot, args, args[slot], order, radius, nodes, tol)
    return coeff * math.factorial(order)


def laurent_coeff(
    e: JetEvaluator,
    slot: int,
    args: Sequence[complex],
    center: complex,
    k: int,
    radius: float,
    nodes: int = DEFAULT_NODES,
    tol: float | None = None,
) -> complex:
    """k-th Laurent coefficient of e (in one slot) about ``center``."""
    require_finite(*args, center)
    args = list(args)

    def compute(n):
        vals = e.eval_circle(slot, args, center, radius, n, [None])[0]
        return _circle_coeff(vals, radius, k)

    res = compute(nodes)
    if tol is not None:
        res2 = compute(2 * nodes)
        scale = max(abs(res2), 1.0)
        if abs(res - res2) > tol * scale:
            raise NonConvergence("laurent_coeff did not converge under node doubling")
        res = res2
    return res


# ---------------------------------------------------------------------------
# Gauss-Legendre rules, paths and path integration
# ---------------------------------------------------------------------------

# Newton from Tricomi's guess reaches |dx| <= 1e-15 within 4 passes for every
# n from 1 to 2000 (3 for 1,808 of them); a rule that needs more than this many
# is not returned.
_NEWTON_PASSES = 10


def _recurrence(n: int) -> tuple[list[float], list[float]]:
    """(2k-1)/k and (k-1)/k for k = 2..n, the coefficients of Bonnet's
    recurrence P_k = (2k-1)/k x P_{k-1} - (k-1)/k P_{k-2}."""
    k = np.arange(2, n + 1, dtype=float)
    return ((2 * k - 1) / k).tolist(), ((k - 1) / k).tolist()


def _legendre_and_derivative(x: np.ndarray, n: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P'_n(x) = n (P_{n-1} - x P_n) / (1 - x^2) on |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for ak, bk in zip(a, b):
        p0, p1 = p1, ak * x * p1 - bk * p0
    return p1, n * (p0 - x * p1) / (1.0 - x * x)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from Tricomi's guess, with P_n and P_{n-1} from
    the three-term recurrence over the nodes of the positive half at once:
    O(n^2) array work, where an eigenvalue solve of the Jacobi matrix (Golub
    & Welsch) is O(n^3) (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013)).
    The weights 2 / ((1 - x^2) P'_n(x)^2) are taken at the converged nodes,
    and the rule is mirrored, so it is exactly symmetric, with the middle
    node of an odd rule exactly 0.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1, got {n}")
    a, b = _recurrence(n)
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1 - 1 / (8 * n**2) + 1 / (8 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(_NEWTON_PASSES):
        pn, dpn = _legendre_and_derivative(x, n, a, b)
        dx = pn / dpn
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    else:
        raise NonConvergence(
            f"Gauss-Legendre nodes for n={n} moved by {np.max(np.abs(dx)):.3e} "
            f"after {_NEWTON_PASSES} Newton passes"
        )
    if n % 2:
        x[-1] = 0.0
    _, dpn = _legendre_and_derivative(x, n, a, b)
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    # x descends from the largest node; the odd middle node, +0.0, is not repeated
    m = n // 2
    return np.concatenate((-x[:m], x[::-1])), np.concatenate((w[:m], w[::-1]))


@dataclass(frozen=True)
class PathSpec:
    """Integration path: a circle or a polyline.

    ``nodes`` is the Gauss-Legendre order used per panel.
    """

    kind: str  # "circle" | "polyline"
    nodes: int = 24
    center: complex = 0.0
    radius: float = 0.0
    vertices: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.kind == "circle":
            if self.radius <= 0:
                raise ValueError("circle radius must be positive")
        elif self.kind == "polyline":
            if len(self.vertices) < 2:
                raise ValueError("polyline needs at least 2 vertices")
        else:
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.nodes < 8:
            raise ValueError("node count must be >= 8")

    @property
    def closed(self) -> bool:
        return self.kind == "circle" or abs(self.vertices[0] - self.vertices[-1]) < 1e-14

    def segments(self) -> list[tuple[complex, complex]]:
        if self.kind == "circle":
            raise ValueError("circle paths have no straight segments")
        return list(zip(self.vertices[:-1], self.vertices[1:]))


def circle_path(center: complex, radius: float, nodes: int = 24) -> PathSpec:
    return PathSpec("circle", nodes, center=complex(center), radius=radius)


def polyline_path(vertices: Sequence[complex], nodes: int = 24) -> PathSpec:
    return PathSpec("polyline", nodes, vertices=tuple(complex(v) for v in vertices))


def path_integrate(e: JetEvaluator, slot: int, args: Sequence[complex], path: PathSpec) -> complex:
    """Gauss-Legendre panel quadrature of e along the path (in one slot):
    one panel per polyline segment, four per circle."""
    require_finite(*args)
    x, w = gauss_legendre(path.nodes)
    total = 0.0 + 0.0j
    work = list(args)
    if path.kind == "circle":
        # parametrize by angle, split into panels
        for j in range(4):
            t0, t1 = 2 * math.pi * j / 4, 2 * math.pi * (j + 1) / 4
            tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
            for xi, wi in zip(x, w):
                t = tm + th * xi
                z = path.center + path.radius * cmath.exp(1j * t)
                dz = 1j * path.radius * cmath.exp(1j * t)
                work[slot] = z
                total += wi * th * e.fn(*work) * dz
        return total
    for a, b in path.segments():
        zm, zh = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(x, w):
            work[slot] = zm + zh * xi
            total += wi * zh * e.fn(*work)
    return total


# ---------------------------------------------------------------------------
# seeded sampling (splitmix64)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Fixed, documented 64-bit generator so reports reproduce across
    platforms (Steele, Lea & Flood, splitmix64); after n draws its state is seed + n * gamma
    mod 2**64, so ``block`` draws n at once."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def block(self, n: int) -> np.ndarray:
        """The next n ``next_u64`` outputs as one uint64 array, the state left as they leave
        it; every operand is uint64, so each product wraps as the scalar mask does."""
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z += np.uint64(self.state)
        self.state = (self.state + n * 0x9E3779B97F4A7C15) & _MASK64
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mult)
        z ^= z >> np.uint64(31)
        return z

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # 53 bits
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def complex_in_box(self, box: tuple[float, float, float, float]) -> complex:
        re = self.uniform(box[0], box[1])
        im = self.uniform(box[2], box[3])
        return complex(re, im)

    def complex_in_boxes(self, boxes: Sequence[Box], n: int) -> np.ndarray:
        """n draws of ``complex_in_box`` in each of ``boxes``, an (n, len(boxes)) array of the
        same floats: each coordinate lo + (hi - lo) * ((u >> 11) * 2**-53), as ``uniform``."""
        lo, span = np.array([(b[k], b[k + 1] - b[k]) for b in boxes for k in (0, 2)], float).T
        u = self.block(len(lo) * n).reshape(n, len(lo))
        return (lo + span * ((u >> np.uint64(11)) * 2.0**-53)).view(complex)


Box = tuple[float, float, float, float]  # (re_min, re_max, im_min, im_max)


# ---------------------------------------------------------------------------
# genus-1 special functions
# ---------------------------------------------------------------------------


def _theta_trunc_index(im_p, im_tau, tol: float) -> int:
    """Symmetric truncation index K with the dropped tail below tol (a batch's largest);
    an Im tau not positive, at the point or anywhere in the batch, raises ``InvalidModulus``.

    Term magnitudes are exp(-2 pi (k im_p + k(k-1)/2 im_tau)); beyond the
    quadratic turnaround they decay faster than a geometric series with
    ratio exp(-pi im_tau), so bounding the first dropped term suffices.
    """
    if not ((im_tau > 0).all() if isinstance(im_tau, np.ndarray) else im_tau > 0):
        raise InvalidModulus("Im tau must be positive")
    # turnaround index plus the tail-depth needed for the quadratic decay
    bound = abs(im_p) / im_tau + 1.0 + np.sqrt(max(-math.log(tol), 1.0) / (math.pi * im_tau))
    return math.ceil(bound.max()) + 3


@functools.lru_cache(maxsize=128)
def _theta_weights(K: int, dp: int, dtau: int) -> tuple[np.ndarray, ...]:
    """k, k(k-1)/2 over k = -K..K and, read-only, a column per entry (i, j), i <= dp,
    j <= dtau, row-major, of the weights (-1)^k (2 pi i k)^i / i! (pi i k(k-1))^j / j!."""
    k = np.arange(-K, K + 1)
    half = 0.5 * k * (k - 1)
    w_p = [(1 - 2 * (k & 1)) * (TWO_PI_I * k) ** i / math.factorial(i) for i in range(dp + 1)]
    w_tau = [(TWO_PI_I * half) ** j / math.factorial(j) for j in range(dtau + 1)]
    w = np.stack([wp * wt for wp in w_p for wt in w_tau], 1)
    for arr in (k, half, w):
        arr.flags.writeable = False
    return k, half, w


def _fail_closed(bad, error: type, what: str, p, tau) -> None:
    """Raise ``error`` naming the first point (p, tau), of a batch or the one, where ``bad``."""
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    i = np.flatnonzero(bad)[0]
    p, tau = np.broadcast_arrays(p, tau)
    where = f" (point {i} of {p.size})" if p.ndim else ""
    raise error(f"{what} at p = {complex(p.flat[i])!r}, tau = {complex(tau.flat[i])!r}{where}")


def theta_jet(p, tau, dp: int = 0, dtau: int = 0, tol: float = 1e-12):
    """Taylor coefficients a[i][j] = d_p^i d_tau^j theta / (i! j!), i <= dp, j <= dtau, of
    theta = sum_k (-1)^k e^{2 pi i (k p + k(k-1) tau / 2)}, over the tail bound's window
    widened by 4 (dp + dtau): complex numbers, or arrays over N points of arrays p and tau
    from one ``np.exp`` over an (N, 2K + 1) grid, K the batch's widest.  A non-finite
    argument raises ``DomainViolation``, Im tau <= 0 ``InvalidModulus`` and a series not
    finite ``OverflowError``; a batch raises the error of its first point at fault, as
    its points would one after another, and names that point."""
    batch = isinstance(p, np.ndarray) or isinstance(tau, np.ndarray)
    if batch:  # one row of the grid per point
        p, tau = np.broadcast_arrays(np.reshape(p, (-1, 1)), np.reshape(tau, (-1, 1)))
        finite = np.isfinite(p) & np.isfinite(tau)
        valid = finite & (tau.imag > 0)
        # the series runs over the points before the first invalid one, which may overflow first
        cut = len(p) if valid.all() else int(np.argmin(valid))
        at_p, at_tau = p[:cut], tau[:cut]
    else:
        require_finite(p, tau)
        cut, at_p, at_tau = 1, p, tau
    if cut:
        K = _theta_trunc_index(at_p.imag, at_tau.imag, tol) + 4 * (dp + dtau)
        k, half, w = _theta_weights(K, dp, dtau)
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.exp(k * (TWO_PI_I * at_p) + half * (TWO_PI_I * at_tau)) @ w
        if not np.isfinite(a).all():  # row n of a is point n of the batch
            _fail_closed(~np.isfinite(a).all(axis=-1), OverflowError, "theta series overflows",
                         p, tau)
    if batch and cut < len(p):
        first = np.arange(len(p)) == cut
        _fail_closed(first & ~finite.ravel(), DomainViolation, "non-finite theta argument", p, tau)
        _fail_closed(first, InvalidModulus, "Im tau must be positive", p, tau)
    return a.T.reshape(dp + 1, dtau + 1, -1) if batch else a.reshape(dp + 1, dtau + 1).tolist()


def theta(p: complex, tau: complex, tol: float = 1e-12) -> complex:
    """The odd theta series at (p, tau)."""
    return theta_jet(p, tau, 0, 0, tol)[0][0]


def theta_partial(p: complex, tau: complex, dp: int = 0, dtau: int = 0,
                  tol: float = 1e-12) -> complex:
    """The (dp, dtau) partial derivative of the theta series."""
    return theta_jet(p, tau, dp, dtau, tol)[dp][dtau] * math.factorial(dp) * math.factorial(dtau)


def rho(p: complex, tau: complex, tol: float = 1e-12) -> complex:
    """Logarithmic derivative theta'/theta (derivative in p)."""
    a = theta_jet(p, tau, 1, 0, tol)
    if lattice_distance(p, tau) < 1e-7:
        raise PoleHit("rho evaluated within 1e-7 of a theta zero")
    return a[1][0] / a[0][0]


def rho_partial(p: complex, tau: complex, dp: int, dtau: int) -> complex:
    """Partial derivatives of rho = (d/dp) log theta."""
    return log_theta_partial(p, tau, dp + 1, dtau)


def log_theta_partial(p: complex, tau: complex, dp: int, dtau: int) -> complex:
    """(dp, dtau) partial derivative of log theta, read from its rectangle."""
    return log_theta_jet(p, tau, dp, dtau)[dp][dtau] * math.factorial(dp) * math.factorial(dtau)


def log_jet(a, p, tau):
    """The Taylor rectangle L of log theta from theta's rectangle a at (p, tau), by
    the jet rule (i + j) a_ij = sum_{k <= i, l <= j} (k + l) L_kl a_{i-k, j-l}
    (Griewank & Walther, Evaluating Derivatives, ch. 13).  At a point the entries are
    complex numbers, from one term at a time; over a batch, a (dp + 1, dtau + 1, N) array,
    every entry of one total degree at once (``_degree_terms``).  A vanishing a_00
    raises ``PoleHit``."""
    a00 = a[0][0]
    _fail_closed(a00 == 0, PoleHit, "log of a theta jet vanishing", p, tau)
    if isinstance(a00, np.ndarray):
        order, spans, back = _degree_terms(len(a) - 1, len(a[0]) - 1)
        flat = a.reshape(-1, a00.size).take(order, axis=0)  # entries by total degree
        L = np.empty_like(flat)
        L[0] = np.log(a00)
        for lo, hi, d, kl, rest, weight, starts in spans:
            s = d * flat[lo:hi]
            if kl.size:
                s -= np.add.reduceat(L.take(kl, axis=0) * (weight * flat.take(rest, axis=0)),
                                     starts, axis=0)
            L[lo:hi] = s / (d * a00)
        return L.take(back, axis=0).reshape(a.shape)
    L = [[None] * len(a[0]) for _ in a]
    L[0][0] = cmath.log(a00)
    for i, j, terms in _jet_rule_terms(len(a) - 1, len(a[0]) - 1):
        s = (i + j) * a[i][j]
        for k, l, i_k, j_l in terms:
            s -= (k + l) * L[k][l] * a[i_k][j_l]
        L[i][j] = s / ((i + j) * a00)
    return L


@functools.lru_cache(maxsize=None)
def _jet_rule_terms(dp: int, dtau: int) -> tuple:
    """Each entry (i, j) past (0, 0), row-major, with its jet-rule terms (k, l, i-k, j-l)."""
    return tuple((i, j, tuple((k, l, i - k, j - l) for k in range(i + 1) for l in range(j + 1)
                              if 0 < k + l < i + j))
                 for i in range(dp + 1) for j in range(dtau + 1) if i + j)


@functools.lru_cache(maxsize=None)
def _degree_terms(dp: int, dtau: int) -> tuple:
    """The jet rule over a rectangle with its entries ordered by total degree: (the
    row-major place of each entry, one span per degree d >= 1, and each row-major
    entry's place in degree order).  A span is (its first and last entry + 1, d, the
    entries (k, l) and (i-k, j-l) of its terms and their weights k + l as a column,
    grouped by entry, and where each entry's terms start)."""
    entries = sorted(np.ndindex(dp + 1, dtau + 1), key=sum)
    place = {e: n for n, e in enumerate(entries)}
    spans = []
    for d in range(1, dp + dtau + 1):
        lo, hi = (sum(sum(e) < t for e in entries) for t in (d, d + 1))
        terms = [(place[k, l], place[i - k, j - l], k + l, n)
                 for n, (i, j) in enumerate(entries[lo:hi])
                 for k in range(i + 1) for l in range(j + 1) if 0 < k + l < d]
        kl, rest, weight, owner = zip(*terms) if terms else [()] * 4
        spans.append((lo, hi, d, np.array(kl, dtype=int), np.array(rest, dtype=int),
                      np.array(weight, dtype=float)[:, None],
                      np.searchsorted(owner, range(hi - lo))))
    order = np.array([i * (dtau + 1) + j for i, j in entries])
    return order, tuple(spans), np.argsort(order)


# A torus seed reads rectangles at 5,192 points, 10 of them in two jobs: 256 entries
# miss 5,202 times (64: 6,498); holding all 5,192 would cost 5 MB of RSS for the 10.
@functools.lru_cache(maxsize=256)
def log_theta_jet(p: complex, tau: complex, dp: int, dtau: int) -> tuple[tuple[complex, ...], ...]:
    """The Taylor rectangle L[i][j] = d_p^i d_tau^j log theta / (i! j!), i <= dp, j <= dtau,
    at one point from one ``theta_jet`` (``log_jet`` gives it over arrays of points),
    memoised: a hit is the float a recomputation would give; an error is never cached."""
    return tuple(map(tuple, log_jet(theta_jet(p, tau, dp, dtau), p, tau)))
