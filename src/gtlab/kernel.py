"""Deterministic complex-analytic numerics.

Everything downstream is built on three primitives: derivatives of
holomorphic evaluators by Cauchy circle quadrature, Gauss-Legendre path
integration, and a seeded generator of points in complex boxes (the
samplers that reject points near singular loci, ``GTStructure.sample`` and
``PotentialFamily.sample_z``, draw from it).  The genus-1 theta series
and its logarithmic derivative live here as well.

``JetEvaluator.partials(args, multis)`` is the one way to take partial
derivatives (``partial`` asks it for one), and ``multi_index`` the one way
to name them: analytic derivatives come from the evaluator's
``partial_fn(args, multis)``, which answers the whole batch of nonzero
multi-indices at the point in one call, so a closed form shares its terms
across them; the multi-indices it leaves NotImplemented are grouped by their
leading slot, so each slot costs one ``deriv_radius`` and one circle, with
one row of samples per distinct rest, whatever the number of partials read
from it.  A consumer asks each evaluator for everything it needs at one
point in one call.
``JetEvaluator.eval_rows`` samples values or partials along a loop of
argument tuples, one row per requested partial, and is the one evaluator
override: an evaluator with multivalued ingredients (a square root, say)
continues its branch along the loop there, and a wrapper maps the loop
into the evaluator it wraps.  ``eval_circle`` builds a circle's loop and
hands it to ``eval_rows``.

A sample set is asked in one call: ``JetEvaluator.columns(points,
multis)`` takes N points as an (N, arity) array and returns one row per
multi-index, and ``eval_circles`` returns the values on N circles as an
N x nodes array.  An evaluator built with ``columns_fn`` (the placed
catalog kernels) answers both with numpy arrays; for every other one the
base class is the single per-point adapter: ``partials`` per row and
``eval_circle`` per circle, so sheet tracking, composed and collided
evaluators keep their exact floats.

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
        return min(abs(args[self.slots[0]] - p) for p in self.points)

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


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the lattice Z + tau Z (Im tau > 0)."""
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


class JetEvaluator:
    """A pure holomorphic function handle: values plus partial derivatives.

    ``fn`` maps ``arity`` complex arguments to a complex value.  Partials
    default to Cauchy circle quadrature with the radius derived from the
    declared domain; an optional ``partial_fn(args, multis)`` may supply
    analytic derivatives: it gets every nonzero multi-index asked at one
    point and returns one entry per multi-index, NotImplemented where the
    circles should answer.  An optional ``columns_fn(points, multis)``
    answers ``columns``: every multi-index at N points, one entry per
    multi-index, each an array over the points or a constant.
    """

    def __init__(
        self,
        arity: int,
        fn: Callable[..., complex],
        domain: Domain = EMPTY_DOMAIN,
        partial_fn: Callable | None = None,
        label: str = "",
        columns_fn: Callable | None = None,
    ):
        self.arity = arity
        self.fn = fn
        self.domain = domain
        self.partial_fn = partial_fn
        self.label = label
        self.columns_fn = columns_fn

    def value(self, args: Sequence[complex]) -> complex:
        if len(args) != self.arity:
            raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                             f"arguments, got {len(args)}")
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

    def columns(self, points: np.ndarray, multis: Sequence[Sequence[int]]) -> np.ndarray:
        """Values and partials at N points in one call: ``points`` is an
        (N, arity) array, and row r of the (len(multis), N) result is
        multi-index r at every point.  Without ``columns_fn`` each point
        is one ``partials`` call, so the rows are exactly its floats."""
        points = np.asarray(points, dtype=complex)
        if points.ndim != 2 or points.shape[1] != self.arity:
            raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                             f"argument columns, got shape {points.shape}")
        if any(len(multi) != self.arity for multi in multis):
            raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                             f"derivative orders per multi-index")
        n = len(points)
        if self.columns_fn is None:
            rows = [self.partials(row, multis) for row in points.tolist()]
            return np.array(rows, dtype=complex).reshape(n, len(multis)).T
        return np.array([np.broadcast_to(col, (n,)) for col in self.columns_fn(points, multis)],
                        dtype=complex).reshape(len(multis), n)

    def eval_circles(self, slot: int, points: np.ndarray, radii: Sequence[float],
                     nodes: int) -> np.ndarray:
        """Values on N circles, an (N, nodes) array: circle i runs in one
        slot about points[i][slot] with radius radii[i], through the
        nodes ``eval_circle`` would place.  With ``columns_fn`` every node
        of every circle is one row of one ``columns`` call; without it
        each circle is one ``eval_circle``.  A non-finite sample on any
        circle raises ``DomainViolation``."""
        points, radii = np.asarray(points, dtype=complex), np.asarray(radii, dtype=float)
        if self.columns_fn is None:
            return np.array([self.eval_circle(slot, row, row[slot], r, nodes, [None])[0]
                             for row, r in zip(points.tolist(), radii.tolist())],
                            dtype=complex).reshape(len(points), nodes)
        ring = np.array([cmath.exp(TWO_PI_I * k / nodes) for k in range(nodes)])
        grid = np.repeat(points, nodes, axis=0)
        grid[:, slot] = (points[:, slot, None] + radii[:, None] * ring).ravel()
        vals = self.columns(grid, [multi_index(self.arity)])[0].reshape(len(points), nodes)
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
        if len(bad):
            i = bad[0]
            raise DomainViolation(
                f"{self.label or 'evaluator'}: non-finite samples on circle {i} of "
                f"{len(points)}, radius {radii[i]} about {complex(points[i, slot])!r} "
                f"in slot {slot}"
            )
        return vals

    def partial(self, args: Sequence[complex], multi: Sequence[int]) -> complex:
        return self.partials(args, (multi,))[0]

    def partials(self, args: Sequence[complex],
                 multis: Sequence[Sequence[int]]) -> list[complex]:
        """Partials at one point, one per multi-index.  ``partial_fn``
        answers what it can of the batch in one call; the rest share one
        circle per leading slot, and the orders read with one rest share
        its row."""
        if len(args) != self.arity:
            raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                             f"arguments, got {len(args)}")
        args = tuple(args)
        out: list = []
        asked: list = []  # the nonzero multi-indices; None holds their places in out
        value = None
        for multi in multis:
            if len(multi) != self.arity:
                raise ValueError(f"{self.label or 'evaluator'} takes {self.arity} "
                                 f"derivative orders, got {len(multi)}")
            if any(multi):
                asked.append(multi)
                out.append(None)
            else:
                if value is None:
                    value = complex(self.fn(*args))
                out.append(value)
        if not asked:
            return out
        answers = iter(self.partial_fn(args, asked) if self.partial_fn is not None
                       else [NotImplemented] * len(asked))
        circles: dict[int, list] = {}
        for i, multi in enumerate(multis):
            if out[i] is not None:
                continue
            res = next(answers)
            if res is not NotImplemented:
                out[i] = complex(res)
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
# paths and path integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathSpec:
    """Integration path: a circle or a (closed) polyline.

    ``nodes`` is the Gauss-Legendre order used per panel.
    """

    kind: str  # "circle" | "polyline" | "closed_polyline"
    nodes: int = 24
    center: complex = 0.0
    radius: float = 0.0
    vertices: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.kind == "circle":
            if self.radius <= 0:
                raise ValueError("circle radius must be positive")
        elif self.kind in ("polyline", "closed_polyline"):
            if len(self.vertices) < 2:
                raise ValueError("polyline needs at least 2 vertices")
        else:
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.nodes < 8:
            raise ValueError("node count must be >= 8")

    @property
    def closed(self) -> bool:
        if self.kind == "circle" or self.kind == "closed_polyline":
            return True
        return abs(self.vertices[0] - self.vertices[-1]) < 1e-14

    def segments(self) -> list[tuple[complex, complex]]:
        if self.kind == "circle":
            raise ValueError("circle paths have no straight segments")
        verts = list(self.vertices)
        if self.kind == "closed_polyline":
            verts = verts + [verts[0]]
        return list(zip(verts[:-1], verts[1:]))


def circle_path(center: complex, radius: float, nodes: int = 24) -> PathSpec:
    return PathSpec("circle", nodes, center=complex(center), radius=radius)


def polyline_path(vertices: Sequence[complex], nodes: int = 24, closed: bool = False) -> PathSpec:
    kind = "closed_polyline" if closed else "polyline"
    return PathSpec(kind, nodes, vertices=tuple(complex(v) for v in vertices))


def path_integrate(
    e: JetEvaluator,
    slot: int,
    args: Sequence[complex],
    path: PathSpec,
    tol: float | None = None,
) -> complex:
    """Gauss-Legendre panel quadrature of e along the path (in one slot)."""
    require_finite(*args)
    x, w = np.polynomial.legendre.leggauss(path.nodes)

    def compute(refine: int) -> complex:
        total = 0.0 + 0.0j
        work = list(args)
        if path.kind == "circle":
            # parametrize by angle, split into panels
            npan = 4 * refine
            for j in range(npan):
                t0, t1 = 2 * math.pi * j / npan, 2 * math.pi * (j + 1) / npan
                tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
                for xi, wi in zip(x, w):
                    t = tm + th * xi
                    z = path.center + path.radius * cmath.exp(1j * t)
                    dz = 1j * path.radius * cmath.exp(1j * t)
                    work[slot] = z
                    total += wi * th * e.fn(*work) * dz
            return total
        for a, b in path.segments():
            for j in range(refine):
                za = a + (b - a) * j / refine
                zb = a + (b - a) * (j + 1) / refine
                zm, zh = 0.5 * (za + zb), 0.5 * (zb - za)
                for xi, wi in zip(x, w):
                    work[slot] = zm + zh * xi
                    total += wi * zh * e.fn(*work)
        return total

    res = compute(1)
    if tol is not None:
        res2 = compute(2)
        scale = max(abs(res2), 1.0)
        if abs(res - res2) > tol * scale:
            raise NonConvergence("path_integrate did not converge under panel refinement")
        res = res2
    return res


# ---------------------------------------------------------------------------
# seeded sampling (splitmix64)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Fixed, documented 64-bit generator so reports reproduce across
    platforms.  Reference: Steele, Lea & Flood, splitmix64."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # 53 bits
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def complex_in_box(self, box: tuple[float, float, float, float]) -> complex:
        re = self.uniform(box[0], box[1])
        im = self.uniform(box[2], box[3])
        return complex(re, im)


Box = tuple[float, float, float, float]  # (re_min, re_max, im_min, im_max)


# ---------------------------------------------------------------------------
# genus-1 special functions
# ---------------------------------------------------------------------------


def _theta_trunc_index(im_p, im_tau, tol: float) -> int:
    """Symmetric truncation index K with the dropped tail below tol (a batch's largest).

    Term magnitudes are exp(-2 pi (k im_p + k(k-1)/2 im_tau)); beyond the
    quadratic turnaround they decay faster than a geometric series with
    ratio exp(-pi im_tau), so bounding the first dropped term suffices.
    """
    if not isinstance(im_tau, np.ndarray) and im_tau <= 0:
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
    for i in np.flatnonzero(bad)[:1]:
        p, tau = np.broadcast_arrays(p, tau)
        where = f" (point {i} of {p.size})" if p.ndim else ""
        raise error(f"{what} at p = {complex(p.flat[i])!r}, tau = {complex(tau.flat[i])!r}{where}")


def theta_jet(p, tau, dp: int = 0, dtau: int = 0, tol: float = 1e-12):
    """Taylor coefficients a[i][j] = d_p^i d_tau^j theta / (i! j!), i <= dp, j <= dtau, of
    theta = sum_k (-1)^k e^{2 pi i (k p + k(k-1) tau / 2)}, over the tail bound's window
    widened by 4 (dp + dtau): complex numbers, or arrays over N points of arrays p and tau
    from one ``np.exp`` over an (N, 2K + 1) grid, K the batch's widest.  A non-finite
    argument raises ``DomainViolation``, Im tau <= 0 ``InvalidModulus`` and a series not
    finite ``OverflowError``, each naming the first point at fault."""
    batch = isinstance(p, np.ndarray) or isinstance(tau, np.ndarray)
    if batch:  # one row of the grid per point
        p, tau = np.broadcast_arrays(np.reshape(p, (-1, 1)), np.reshape(tau, (-1, 1)))
        _fail_closed(~(np.isfinite(p) & np.isfinite(tau)), DomainViolation,
                     "non-finite theta argument", p, tau)
        _fail_closed(~(tau.imag > 0), InvalidModulus, "Im tau must be positive", p, tau)
    else:
        require_finite(p, tau)
    K = _theta_trunc_index(p.imag, tau.imag, tol) + 4 * (dp + dtau)
    k, half, w = _theta_weights(K, dp, dtau)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(k * (TWO_PI_I * p) + half * (TWO_PI_I * tau)) @ w
    if not np.isfinite(a).all():
        _fail_closed(~np.isfinite(a).all(axis=-1), OverflowError, "theta series overflows", p, tau)
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


def log_jet(a, p, tau) -> list[list]:
    """The Taylor rectangle L of log theta from theta's rectangle a at (p, tau), by
    the jet rule (i + j) a_ij = sum_{k <= i, l <= j} (k + l) L_kl a_{i-k, j-l}
    (Griewank & Walther, Evaluating Derivatives, ch. 13).  The entries are
    complex numbers, or arrays over a batch; a vanishing a_00 raises ``PoleHit``."""
    a00 = a[0][0]
    _fail_closed(a00 == 0, PoleHit, "log of a theta jet vanishing", p, tau)
    L = [[None] * len(a[0]) for _ in a]
    L[0][0] = np.log(a00) if isinstance(a00, np.ndarray) else cmath.log(a00)
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


# A torus seed reads rectangles at 5,192 points, 10 of them in two jobs: 256 entries
# miss 5,202 times (64: 6,498); holding all 5,192 would cost 5 MB of RSS for the 10.
@functools.lru_cache(maxsize=256)
def log_theta_jet(p: complex, tau: complex, dp: int, dtau: int) -> tuple[tuple[complex, ...], ...]:
    """The Taylor rectangle L[i][j] = d_p^i d_tau^j log theta / (i! j!), i <= dp, j <= dtau,
    at one point from one ``theta_jet`` (``log_jet`` gives it over arrays of points),
    memoised: a hit is the float a recomputation would give; an error is never cached."""
    return tuple(map(tuple, log_jet(theta_jet(p, tau, dp, dtau), p, tau)))
