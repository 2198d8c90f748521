"""Deterministic complex-analytic numerics.

Everything downstream is built on three primitives: Taylor and Laurent coefficients
of holomorphic evaluators by Cauchy circle quadrature (``laurent_coeff``, the one routine
that reads a coefficient from circles), Gauss-Legendre rules (``gauss_legendre``, read by
hyperell's period rules), and a seeded generator of points in complex boxes, counter-based
(``SplitMix64.block`` is n draws at once, the scalar stream bit for bit): the samplers that
reject points near singular loci,
``GTStructure.sample`` and ``PotentialFamily.sample_z``, judge blocks of its draws in
``admitted``, where every locus reads argument columns and a draw is kept only if its least
distance is greater than the threshold.  The genus-1 theta series and its log derivative live
here.

``JetEvaluator.partials(args, multis)`` is the one way to take values and
partial derivatives (``partial`` and ``value`` ask it for one), and
``multi_index`` the one way to name them, the zero multi-index naming the
value.  It takes a tuple of ``arity`` argument columns of N points and
returns one row per multi-index; a point is a column of one (``on_columns``
is the one test of which), its row read back as a list.  The evaluator's
``partial_fn(args, multis)`` gets the request on the columns exactly as
asked, the value included, and answers or declines (NotImplemented) each
entry in one call, so a closed form shares its terms across them; every
``fn`` and ``partial_fn`` answers columns with numpy arrays.  A declined
value comes from ``fn``.  Every partial is a closed form: one that the
``partial_fn`` declines, or any partial of an evaluator without one, raises
``NoClosedForm`` naming the evaluator and the multi-index.  A consumer asks
each evaluator for everything it needs over a sample set in one call, and
``jets`` (from ``pool``) takes many such requests at once: those whose
evaluators have a ``pool`` share one call per ``Batch`` kernel.
``JetEvaluator.eval_rows`` samples values on N loops of argument tuples,
given as argument columns, and is the one evaluator override: an evaluator
with multivalued ingredients (a square root, say) continues its branch
along every loop there, from one anchor per loop, and a wrapper maps the
loops into the evaluator it wraps.  ``eval_circle`` hands it N circles on
argument columns, a point's circle a column of one, and ``laurent_coeff``
is its one caller: core's residues and algebroid rings read their
coefficients through it, and so may a ``partial_fn`` for a function known
only by its values (the README shows one).

Each genus-1 jet is one ``theta_jet`` sum over k at the points of one or
more stacked columns (one ``np.exp`` over a points x (2K + 1) grid), with its
weights cached read-only per window; ``log_jet`` turns its rectangle into log
theta's.  A theta kernel of the catalog stacks its two columns (p - u and p
or u) into one series per call, so one window serves both, and ``jets``
concatenates the columns of every placement it is asked.  Nothing is
memoised: the point functions (``theta``, ``rho``, ``theta_partial``,
``rho_partial``, ``log_theta_partial``) read a column of one.
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
    NoClosedForm,
    NonConvergence,
    PoleHit,
)
from .pool import Batch, jets  # noqa: F401  (re-exported: kernel.jets)

TWO_PI_I = 2j * math.pi

DEFAULT_NODES = 32


def require_finite(*values) -> None:
    """Raise ``DomainViolation`` unless every value, a number or an array, is finite,
    naming the first entry that is not."""
    for z in values:
        bad = ~np.isfinite(z)
        if bad.any():
            raise DomainViolation(f"non-finite complex value {complex(np.asarray(z)[bad][0])!r}")


# ---------------------------------------------------------------------------
# exclusion loci / domains
# ---------------------------------------------------------------------------


class Exclusion:
    """A singular locus over the argument slots ``slots``.  distance()
    bounds how far any of those arguments may move before the locus is
    hit; the other slots do not see it."""

    slots: tuple[int, ...]

    def distance(self, args: Sequence[np.ndarray]) -> np.ndarray:
        """The bound over argument columns, one entry per point, from one array expression
        (a number reads as a column of one); NaN where it cannot be measured."""
        raise NotImplementedError

    def remap(self, mapping: Sequence[int]) -> "Exclusion":
        """Return the same locus with slot s renamed to mapping[s]."""
        raise NotImplementedError

    def key(self) -> tuple:
        """The locus by content, its kind and fields (a pulled-back map and locus by identity)."""
        return (type(self), *vars(self).values())


class FixedPoints(Exclusion):
    """args[slot] must avoid a fixed finite point set (e.g. p in {0, 1})."""

    def __init__(self, slot: int, points: Sequence[complex]):
        self.slots = (slot,)
        self.points = tuple(complex(p) for p in points)

    def distance(self, args):
        return np.abs(np.subtract.outer(args[self.slots[0]], self.points)).min(axis=-1)

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
    map; ``image`` maps argument columns to argument columns."""

    def __init__(self, image, locus: Exclusion, slots: Sequence[int]):
        self.image, self.locus, self.slots = image, locus, tuple(slots)

    def distance(self, args):
        return 0.5 * self.locus.distance(self.image(tuple(args[t] for t in self.slots)))

    def remap(self, mapping):
        return PulledBack(self.image, self.locus, [mapping[t] for t in self.slots])


def lattice_distance(z, tau) -> np.ndarray:
    """Distance from z to the lattice Z + tau Z over the three tau offsets n about the nearest,
    each against rint(Re w) for w = z - n tau (no other integer is nearer w), on the broadcast
    of z and tau (a number reads as a column of one), NaN where Im tau <= 0."""
    z, tau = np.asarray(z)[..., None], np.asarray(tau)[..., None]
    w = z - (np.rint(z.imag / np.where(tau.imag > 0, tau.imag, np.nan)) + _NEAR) * tau
    return np.abs(w - np.rint(w.real)).min(axis=-1)


@dataclass(frozen=True)
class Domain:
    """Set of declared singular loci for an evaluator."""

    exclusions: tuple[Exclusion, ...] = ()

    def clearance(self, args: Sequence[np.ndarray], slot: int) -> np.ndarray:
        """How far args[slot] may move: the distance to the nearest locus
        that involves the slot, inf when none does, over argument columns
        (NaN where any locus reads NaN)."""
        return functools.reduce(np.minimum, (e.distance(args) for e in self.exclusions
                                             if slot in e.slots), math.inf)

    def remap(self, mapping: Sequence[int]) -> "Domain":
        return Domain(tuple(e.remap(mapping) for e in self.exclusions))

    def merged(self, other: "Domain") -> "Domain":
        return Domain(self.exclusions + other.exclusions)


EMPTY_DOMAIN = Domain()
_NEAR = np.arange(-1.0, 2.0)


def admitted(rng, boxes: Sequence, fixed: Sequence[complex], count: int, budget: int,
             loci: Sequence[Exclusion], threshold: float) -> tuple[np.ndarray, int]:
    """The first ``count`` of at most ``budget`` draws (in ``boxes``, then ``fixed``) whose
    least distance to ``loci`` is greater than ``threshold``, one row each in draw order, and
    the draws made, ``rng`` left just past the last of them.  A NaN distance clears nothing,
    and with no loci every draw is admitted.  Blocks of 16 + 2 * (count - admitted) draws are
    read by one array expression per locus kind (pulled-back loci: their map once, then one
    per kind of what it pulls back), kept as a mask over the block."""
    groups, tries = _locus_groups(tuple(loci)), 0
    out = [np.empty((0, len(boxes) + len(fixed)), dtype=complex)]
    while (need := count - sum(map(len, out))) > 0 and tries < budget:
        n = min(16 + 2 * need, budget - tries)
        block = rng.complex_in_boxes(boxes, n)
        if len(fixed):
            block = np.hstack([block, np.tile(np.array(fixed, dtype=complex), (n, 1))])
        with np.errstate(all="ignore"):  # no loci, no rows: every draw is admitted
            d = np.vstack([np.empty((0, n)), *(rep.distance(block.T[slots])
                                               for rep, slots in groups)])
        rows = np.flatnonzero((d > threshold).all(axis=0))[:need]
        used = int(rows[-1]) + 1 if len(rows) == need else n
        rng.skip(2 * len(boxes) * (used - n))
        tries += used
        out.append(block[rows])
    return np.concatenate(out), tries


@functools.lru_cache(maxsize=64)
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
        groups.setdefault(rep.key(), (rep, []))[1].append(ex.slots)
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

    ``fn`` maps ``arity`` complex arguments to a complex value, and an
    optional ``partial_fn(args, multis)`` supplies the closed forms.  A
    ``partial_fn`` answers or declines every multi-index, the value
    included: it gets the whole request, as asked, and returns one entry
    per multi-index, NotImplemented where it has no closed form.  A
    declined value comes from ``fn``; a declined partial raises
    ``NoClosedForm``.  One that has no closed form for the value declines
    it before doing any work.  ``partials`` and ``value`` take a point or a
    tuple of ``arity`` argument columns; ``fn`` and ``partial_fn`` see
    columns only (a point's is a column of one), and each entry they give
    is an array over the points or a constant.  ``pool``, when set, names
    the parts whose entries make this evaluator's, the first's minus the
    others' (each a ``Batch`` or an evaluator whose ``partial_fn``
    answers), so that ``jets`` can answer it with others.
    """

    def __init__(
        self,
        arity: int,
        fn: Callable[..., complex],
        domain: Domain = EMPTY_DOMAIN,
        partial_fn: Callable | None = None,
        label: str = "",
        pool: tuple | None = None,
    ):
        self.arity = arity
        self.fn = fn
        self.domain = domain
        self.partial_fn = partial_fn
        self.label = label
        self.pool = pool

    def value(self, args: Sequence[complex]) -> complex:
        """The value at a point, or the values on argument columns (through ``partials``)."""
        return self.partials(args, (multi_index(self.arity),))[0]

    def eval_rows(self, loops: Sequence[np.ndarray], anchors: Sequence[np.ndarray]) -> np.ndarray:
        """Values on N loops of argument tuples, ``loops`` a tuple of ``arity``
        (N, nodes) arrays: an (N, nodes) array from one ``value`` call on the
        loops as argument columns.  Evaluators with multivalued ingredients
        override this to continue them along each loop from their values at
        its anchor, ``anchors`` the argument columns of the N anchors."""
        return self.value(tuple(col.ravel() for col in loops)).reshape(loops[0].shape)

    def eval_circle(self, slot: int, args: Sequence[np.ndarray], radii: Sequence[float],
                    nodes: int) -> np.ndarray:
        """``eval_rows`` on N equispaced circles in one slot, circle i about
        args[slot][i] with radius radii[i], anchored at the argument columns
        ``args`` (a point's circle is a column of one): an (N, nodes) array
        taken under no floating-point warning.  A non-finite sample (an
        undeclared singularity on a circle, or an overflow) raises
        ``DomainViolation`` naming the first circle that has one."""
        args, radii = [np.asarray(col, dtype=complex) for col in args], np.asarray(radii, float)
        loops = [np.repeat(col[:, None], nodes, axis=1) for col in args]
        loops[slot] = args[slot][:, None] + radii[:, None] * _ring(nodes)
        with np.errstate(all="ignore"):
            vals = self.eval_rows(tuple(loops), tuple(args))
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
        """Values and partials, one per multi-index: a (len(multis), N) array
        on argument columns of N points, a list at one point, read from its
        column of one.  ``partial_fn`` gets the request as asked, the zero
        multi-index included, and of what it declines the value comes from
        ``fn``, an overflow or inf - inf a non-finite entry (which fails a
        check) with no warning first; a declined partial raises
        ``NoClosedForm``."""
        cols, point = self._columns(args, multis)
        with np.errstate(all="ignore"):
            out = (list(self.partial_fn(tuple(cols), multis)) if self.partial_fn is not None
                   else [NotImplemented] * len(multis))
        return self._table(cols, multis, out, point)

    def _columns(self, args, multis) -> tuple[list[np.ndarray], bool]:
        """A request's argument columns, checked against the arity, and whether it is a point."""
        if len(args) != self.arity:
            raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                             f"arguments, got {len(args)}")
        for multi in multis:
            if len(multi) != self.arity:
                raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                                 f"derivative orders, got {len(multi)}")
        point = not on_columns(args)
        cols = [np.asarray(col, dtype=complex) for col in args]
        if point:  # a column of one
            cols = [col.reshape(1) for col in cols]
        n = cols[0].size
        if any(col.shape != (n,) for col in cols):
            raise ValueError(f"{self.label or 'evaluator'} takes argument columns of one "
                             f"length, got shapes {[col.shape for col in cols]}")
        return cols, point

    def _table(self, cols, multis, out, point) -> list[complex] | np.ndarray:
        """The request's table from the entries ``out`` its ``partial_fn`` gave: a declined
        value from ``fn``, a declined partial a ``NoClosedForm``."""
        for multi, entry in zip(multis, out):
            if entry is NotImplemented and any(multi):
                raise NoClosedForm(f"{self.label or 'evaluator'} has no closed form for the "
                                   f"partial {tuple(multi)}")
        table = np.empty((len(multis), cols[0].size), dtype=complex)
        for i, entry in enumerate(out):
            if entry is NotImplemented:
                with np.errstate(all="ignore"):
                    entry = self.fn(*cols)
            table[i] = entry  # an array over the points, or a constant
        return table[:, 0].tolist() if point else table


def _ring(nodes: int) -> np.ndarray:
    """The ``nodes`` equispaced points of the unit circle, from 1 counterclockwise."""
    return np.array([cmath.exp(TWO_PI_I * k / nodes) for k in range(nodes)])


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

    def eval_rows(self, loops, anchors):
        return self.base.eval_rows(self._to_base(loops), self._to_base(anchors))


# ---------------------------------------------------------------------------
# circle quadrature operations
# ---------------------------------------------------------------------------


def laurent_coeff(e: JetEvaluator, slot: int, args: Sequence[np.ndarray], radii,
                  ks: Sequence[int], nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Laurent coefficients k in ``ks`` of e in one slot about N points, by
    the trapezoid rule on N circles, circle i about args[slot][i] with radius
    radii[i] (``args`` argument columns, a point's a column of one): a
    (len(ks), N) array from one ``eval_circle`` call.  A non-finite argument
    raises ``DomainViolation`` before any circle is opened."""
    require_finite(*args)
    radii = np.asarray(radii, float)
    rows = e.eval_circle(slot, args, radii, nodes)
    return np.array([_circle_coeff(rows, radii, k) for k in ks])


# ---------------------------------------------------------------------------
# Gauss-Legendre rules, paths and path integration
# ---------------------------------------------------------------------------

# From these starts one Halley pass is certified at n = 1 and at every n from 24
# to 2000, two at n = 2..23; a rule that needs more than this many passes is not
# returned.
_HALLEY_PASSES = 10
# j_{0,k}, the first ten zeros of the Bessel function J_0, for the starts next to +-1
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
             14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
             27.493479132040253, 30.634606468431976)


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

    Halley's method on P_n over the nodes of the positive half at once: P_n
    and P'_n from one pass of the three-term recurrence, P''_n and P'''_n
    from Legendre's equation (1 - x^2) P'' = 2x P' - n(n+1) P and its
    derivative.  That is O(n^2) array work, where an eigenvalue solve of the
    Jacobi matrix (Golub & Welsch) is O(n^3).  The starts are Tricomi's guess
    in the interior and, at the ten nodes next to 1, cos theta_k with
    theta_k = t + (t cot t - 1) / (8 t nu^2), t = j_{0,k} / nu, nu = n + 1/2
    (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013); Bogaert, SIAM J. Sci.
    Comput. 36 (2014)).  A pass is accepted when Halley's error estimate
    |P''^2 / (4 P'^2) - P''' / (6 P')| |dx|^3, times 1e4, is below 2^-53
    (half an ulp of 1) at every node.  The weights 2 / ((1 - x^2) P'_n(x)^2)
    take P'_n from that pass, carried to the new node by two Taylor terms,
    and the rule is mirrored, so it is exactly symmetric, with the middle
    node of an odd rule exactly 0.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1, got {n}")
    a, b = _recurrence(n)
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1 - 1 / (8 * n**2) + 1 / (8 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    nu = n + 0.5
    t = np.array(_J0_ZEROS[: k.size]) / nu
    x[: t.size] = np.cos(t + (t * np.cos(t) / np.sin(t) - 1) / (8 * t * nu * nu))
    lam = n * (n + 1)
    for _ in range(_HALLEY_PASSES):
        y, u = x, 1.0 - x * x
        p, d1 = _legendre_and_derivative(y, n, a, b)
        d2 = (2 * y * d1 - lam * p) / u
        d3 = (4 * y * d2 - (lam - 2) * d1) / u
        x = y - p / (d1 - 0.5 * p * d2 / d1)
        err = np.max(np.abs(d2 * d2 / (4 * d1 * d1) - d3 / (6 * d1)) * np.abs(x - y) ** 3)
        if 1e4 * err <= 2**-53:
            break
    else:
        raise NonConvergence(
            f"Gauss-Legendre nodes for n={n} are certified only to {err:.3e} "
            f"after {_HALLEY_PASSES} Halley passes"
        )
    if n % 2:
        x[-1] = 0.0
    h = x - y
    d1 = d1 + h * (d2 + 0.5 * h * d3)
    w = 2.0 / ((1.0 - x * x) * d1 * d1)
    # x descends from the largest node; the odd middle node, +0.0, is not repeated
    m = n // 2
    return np.concatenate((-x[:m], x[::-1])), np.concatenate((w[:m], w[::-1]))


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
        self.skip(n)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mult)
        z ^= z >> np.uint64(31)
        return z

    def skip(self, n: int) -> None:
        """Move the stream n outputs on (back for n < 0): one addition."""
        self.state = (self.state + n * 0x9E3779B97F4A7C15) & _MASK64

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
        lo, span = _box_bounds(tuple(map(tuple, boxes)))
        u = self.block(len(lo) * n).reshape(n, len(lo))
        return (lo + span * ((u >> np.uint64(11)) * 2.0**-53)).view(complex)


@functools.lru_cache(maxsize=64)
def _box_bounds(boxes: tuple[Box, ...]) -> np.ndarray:
    """lo and hi - lo of each coordinate of ``boxes`` (re, then im, per box), read-only."""
    bounds = np.array([(b[k], b[k + 1] - b[k]) for b in boxes for k in (0, 2)], float).T
    bounds.flags.writeable = False
    return bounds


Box = tuple[float, float, float, float]  # (re_min, re_max, im_min, im_max)


# ---------------------------------------------------------------------------
# genus-1 special functions
# ---------------------------------------------------------------------------


# a window wider than this may serve a point whose series overflows on any window, and
# only then does theta_jet look for one: a point with Im tau >= 0.01 whose largest term
# is in float range needs a window under about 200
_WIDE_WINDOW = 256


def _theta_window(im_p, im_tau, dp: int, dtau: int) -> int:
    """The smallest K such that each term |k| > K of every entry (i, j), i <= dp, j <= dtau,
    is below 2^-64 of its series' largest term at every point.  With k0 = 1/2 - im_p / im_tau
    a term is exp(-pi im_tau ((k - k0)^2 - k0^2)) and the largest at least exp(pi im_tau (k0^2
    - 1/4)), and its weight at most (2 pi |k|)^(dp + 2 dtau), so |k| = n >= |k0| + 1/2 drops
    it when pi im_tau ((n - |k0|)^2 - 1/4) >= 64 ln 2 + (dp + 2 dtau) ln(2 pi n), a condition
    that once met holds for every larger n.  The least such n over all the points is the
    fixed point of n -> the ceiling of the largest root of the square, iterated from 1."""
    a, b, n, last = abs(0.5 - im_p / im_tau), 1 / (math.pi * im_tau), 1, 0
    while n != last:
        log_w = 64 * math.log(2) + (dp + 2 * dtau) * math.log(2 * math.pi * n)
        last, n = n, max(1, math.ceil((a + np.sqrt(0.25 + log_w * b)).max()))
    return n - 1


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


def _fail_closed(bad: np.ndarray, error: type, what: str, p, tau) -> None:
    """Raise ``error`` naming the first point (p, tau) where ``bad``, in C order over the
    broadcast of p and tau, by its place in its column (the last axis)."""
    if not bad.any():
        return
    i = np.flatnonzero(bad)[0]
    p, tau = np.broadcast_arrays(np.atleast_1d(p), tau)
    n = p.shape[-1]
    raise error(f"{what} at p = {complex(p.flat[i])!r}, tau = {complex(tau.flat[i])!r} "
                f"(point {i % n} of {n})")


def theta_jet(p, tau, dp: int = 0, dtau: int = 0) -> np.ndarray:
    """Taylor coefficients a[i, j] = d_p^i d_tau^j theta / (i! j!), i <= dp, j <= dtau, of
    theta = sum_k (-1)^k e^{2 pi i (k p + k(k-1) tau / 2)} at the points of the broadcast of
    p and tau, columns of N along its last axis (a number is a column of one): a
    (dp + 1, dtau + 1, *shape) array from one ``np.exp`` over a (points, 2K + 1) grid, K
    the ``_theta_window`` of all the columns: every term it drops, weighted for any entry,
    is below 2^-64 of its point's largest term.
    A non-finite argument raises ``DomainViolation``, Im tau <= 0 ``InvalidModulus`` and a
    series not finite, or whose largest term is past float range, ``OverflowError``: the
    error of the first point at fault, the columns read one after another and each point
    by point, naming that point by its place in its column."""
    cols = np.empty((2, *np.broadcast(p, tau, [0]).shape), dtype=complex)
    cols[0], cols[1] = p, tau  # broadcast in place: cheaper than np.broadcast_arrays
    p, tau = cols
    x, t = p.reshape(-1, 1), tau.reshape(-1, 1)
    finite = np.isfinite(x) & np.isfinite(t)
    valid = finite & (t.imag > 0)
    # the series runs over the points before the first invalid one, which may overflow first
    cut = len(x) if valid.all() else int(np.argmin(valid))
    K = _theta_window(x[:cut].imag, t[:cut].imag, dp, dtau) if cut else 0
    if K > _WIDE_WINDOW:
        # a point whose largest term, at least exp(pi Im tau (k0^2 - 1/4)) with k0 =
        # 1/2 - Im p / Im tau, is past float range overflows on any window: the series
        # stops before it too, and its window, about |k0| wide, is never built
        with np.errstate(over="ignore"):
            k0 = 0.5 - x[:cut].imag / t[:cut].imag
            huge = math.pi * t[:cut].imag * (k0 * k0 - 0.25) > 710.0
        if huge.any():
            cut = int(np.argmax(huge))
            K = _theta_window(x[:cut].imag, t[:cut].imag, dp, dtau) if cut else 0
    at_x, at_t = x[:cut], t[:cut]
    if cut:
        k, half, w = _theta_weights(K, dp, dtau)
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.exp(k * (TWO_PI_I * at_x) + half * (TWO_PI_I * at_t)) @ w
        if not np.isfinite(a).all():  # row n of a is point n of the flattened columns
            _fail_closed(~np.isfinite(a).all(axis=-1), OverflowError, "theta series overflows",
                         p, tau)
    if cut < len(x):
        first = np.arange(len(x)) == cut
        _fail_closed(first & ~finite.ravel(), DomainViolation, "non-finite theta argument", p, tau)
        _fail_closed(first & valid.ravel(), OverflowError, "theta series overflows", p, tau)
        _fail_closed(first, InvalidModulus, "Im tau must be positive", p, tau)
    return a.T.reshape(dp + 1, dtau + 1, *p.shape)


def theta(p: complex, tau: complex) -> complex:
    """The odd theta series at (p, tau)."""
    return complex(theta_jet(p, tau)[0, 0, 0])


def theta_partial(p: complex, tau: complex, dp: int = 0, dtau: int = 0) -> complex:
    """The (dp, dtau) partial derivative of the theta series at (p, tau)."""
    a = theta_jet(p, tau, dp, dtau)[dp, dtau, 0]
    return complex(a) * math.factorial(dp) * math.factorial(dtau)


def rho(p: complex, tau: complex) -> complex:
    """Logarithmic derivative theta'/theta (derivative in p) at (p, tau)."""
    a = theta_jet(p, tau, 1)[:, 0, 0]
    if lattice_distance(p, tau) < 1e-7:
        raise PoleHit("rho evaluated within 1e-7 of a theta zero")
    return complex(a[1] / a[0])


def rho_partial(p: complex, tau: complex, dp: int, dtau: int) -> complex:
    """Partial derivatives of rho = (d/dp) log theta at (p, tau)."""
    return log_theta_partial(p, tau, dp + 1, dtau)


def log_theta_partial(p: complex, tau: complex, dp: int, dtau: int) -> complex:
    """(dp, dtau) partial derivative of log theta at (p, tau), read from its rectangle."""
    L = log_jet(theta_jet(p, tau, dp, dtau), p, tau)[dp, dtau, 0]
    return complex(L) * math.factorial(dp) * math.factorial(dtau)


def log_jet(a: np.ndarray, p, tau) -> np.ndarray:
    """The Taylor rectangle L of log theta from theta's rectangle a at the points (p, tau),
    both (dp + 1, dtau + 1, *shape) arrays over ``theta_jet``'s columns, by the jet rule
    (i + j) a_ij = sum_{k <= i, l <= j} (k + l) L_kl a_{i-k, j-l}
    (Griewank & Walther, Evaluating Derivatives, ch. 13), every entry of one total degree
    at once (``_degree_terms``).  A vanishing a_00 raises ``PoleHit``."""
    order, spans, back = _degree_terms(len(a) - 1, len(a[0]) - 1)
    flat = a.reshape(-1, a[0, 0].size).take(order, axis=0)  # entries by total degree
    a00 = flat[0]
    _fail_closed(a00 == 0, PoleHit, "log of a theta jet vanishing", p, tau)
    L = np.empty_like(flat)
    L[0] = np.log(a00)
    for lo, hi, d, kl, rest, weight, starts in spans:
        s = d * flat[lo:hi]
        if kl.size:
            s -= np.add.reduceat(L.take(kl, axis=0) * (weight * flat.take(rest, axis=0)),
                                 starts, axis=0)
        L[lo:hi] = s / (d * a00)
    return L.take(back, axis=0).reshape(a.shape)


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
