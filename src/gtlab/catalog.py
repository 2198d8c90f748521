"""Built-in structure instances.

Four families: the Benney chain (genus 0, non-compact normalization), the
sphere with n + 3 punctures, the torus with n + 1 punctures and moving
modulus, and a genus-2 hyperelliptic curve with moving branch points.
Each family supplies the structure, where available its enhancement and a
set of potentials, and sampling boxes tuned so that rejection sampling
converges quickly.

Every evaluator but genus2's f is a closed-form ``Kernel`` over a few
variables of its own, ``place``d on argument slots: f(p1, p2) on slots
(0, 1) and, at puncture u_i, g_i(p) = f(p, u_i) on slots (0, 1 + i), as in
adding points.  A kernel is written once, with its value, its partials (or
one batch of them) and its singular loci; the placement reads its slots,
answers 0 for a partial in any other slot, and moves the loci onto the
slots.  One function, its ``partial_fn``, answers a placed evaluator's jet
requests, the value included, on a tuple of numpy argument columns of N
points (a point is a column of one), as every evaluator's does; the theta
kernels read every multi-index asked from one log-theta rectangle over
their two argument columns stacked, one theta series per call, and one per
``kernel.jets`` call for all the placements it asks.  genus2's f,
built on square roots, is its own evaluator: its partials of total order
<= 2 are closed form too, one jet per batch from one log-derivative pass
over the linear factors of its numerator's two terms and its denominator,
on the principal square roots at each argument; its value comes from
``fn``, and its residue circles continue the square-root sheet along every
loop at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .core import EnhancedGT, GTStructure, Potential
from .errors import ConfigError
from .kernel import (
    TWO_PI_I,
    Batch,
    Diagonal,
    Domain,
    Exclusion,
    FixedPoints,
    HalfPlane,
    JetEvaluator,
    LatticePoints,
    log_jet,
    theta_jet,
)


@dataclass(frozen=True)
class Kernel:
    """A closed form over its own variables xs: ``value(*xs)``, the singular
    ``loci`` over slots 0..len(xs)-1, and either ``partial(xs, orders)`` for
    total order >= 1 or a ``batch(xs, orders)`` that answers a list of
    orders (all zero for the value) in one call sharing its work (the theta
    kernels); each variable a complex or a numpy column of points."""

    value: Callable[..., complex]
    partial: Callable[[tuple, tuple], complex] | None = None
    loci: tuple[Exclusion, ...] = ()
    batch: Callable[[tuple, list], list] | None = None


def place(kernel: Kernel, arity: int, slots: Sequence[int], label: str = "") -> JetEvaluator:
    """The kernel as an evaluator of ``arity`` arguments, its variables read
    from ``slots``; the function is constant in every other slot.  One
    ``partial_fn`` answers every multi-index, the value included, at N
    points given as a tuple of argument columns: a kernel with a ``batch``
    is a ``pool.Batch``, which is also the evaluator's ``pool``, so
    ``kernel.jets`` answers every placement of it that one call asks from
    one batch call."""
    slots = tuple(slots)
    pick = itemgetter(*slots) if len(slots) > 1 else lambda xs: (xs[slots[0]],)

    def fn(*args):
        return kernel.value(*pick(args))

    domain = Domain(kernel.loci).remap(slots)
    if kernel.batch is not None:
        batch = Batch(kernel.batch, pick)
        return JetEvaluator(arity, fn, domain=domain, partial_fn=batch, label=label,
                            pool=(batch,))

    def partial_fn(args, multis):
        """The kernel's value or partial for the multi-indices within its
        slots, 0 for a partial in any other slot."""
        xs = pick(args)
        out = []  # one order at a time: batch lists cost rational wall_s 8-10%
        for multi in multis:
            orders = pick(multi)
            total = sum(orders)
            out.append(0.0 + 0.0j if total != sum(multi) else
                       kernel.partial(xs, orders) if total else kernel.value(*xs))
        return out

    return JetEvaluator(arity, fn, domain=domain, partial_fn=partial_fn, label=label)


def _difference(a: JetEvaluator, b: JetEvaluator, label: str = "") -> JetEvaluator:
    """a - b for placed kernels a and b: one ``partial_fn`` subtracting
    theirs answers a tuple of argument columns.  Its ``pool``, when either
    has one, is their parts, so ``kernel.jets`` joins it through them."""

    def fn(*args):
        return a.fn(*args) - b.fn(*args)

    def partial_fn(args, multis):
        return [x - y for x, y in zip(a.partial_fn(args, multis), b.partial_fn(args, multis))]

    pool = (*(a.pool or (a,)), *(b.pool or (b,))) if a.pool or b.pool else None
    return JetEvaluator(a.arity, fn, domain=a.domain.merged(b.domain), partial_fn=partial_fn,
                        label=label, pool=pool)


def _pole_partial(d: complex, k: int, r: int) -> complex:
    """d^k/dp^k d^r/du^r of 1/(p - u) at d = p - u: the (k+r)-th
    derivative of 1/x, with the u-slot picking up (-1)^r."""
    tot = k + r
    return (-1) ** r * (-1) ** tot * math.factorial(tot) / d ** (tot + 1)


def _log_partial(d: complex, k: int, r: int) -> complex:
    """d^k/dp^k d^r/du^r log(p - u) at d = p - u, for total order >= 1
    (where the log branch never enters)."""
    tot = k + r
    return (-1) ** r * (-1) ** (tot - 1) * math.factorial(tot - 1) / d**tot


def _sphere_partial(p: complex, u: complex, k: int, r: int) -> complex:
    """Partials of u(u-1) / ((p-u) p (p-1)), which splits into
    (u-1)/p - u/(p-1) + 1/(p-u)."""
    total = 0.0 + 0.0j
    if r == 0:
        total += (u - 1.0) * _pole_partial(p, k, 0) - u * _pole_partial(p - 1.0, k, 0)
    elif r == 1:
        total += _pole_partial(p, k, 0) - _pole_partial(p - 1.0, k, 0)
    total += _pole_partial(p - u, k, r)
    return total


def _log_theta_rect(x, tau, entries):
    """(i, j) -> that partial of log theta at the points (x, tau), an array over x's
    columns, read from one rectangle holding all ``entries`` for every column: one series
    over them all, whose window each column's points widen for the others."""
    dp, dtau = (max(col) for col in zip(*entries))
    L = log_jet(theta_jet(x, tau, dp, dtau), x, tau)
    return lambda i, j: L[i, j] * math.factorial(i) * math.factorial(j)


def _theta_difference(shift: int, second: int, loci: tuple[Exclusion, ...]) -> Kernel:
    """D(p - u, tau) - D(y, tau) over (p, u, tau), D = d_x^shift log theta(x, tau) and y
    the variable ``second`` (0: p, 1: u), from one log-theta rectangle over the column
    p - u stacked on the column y (y only when an order asks it): one series per call,
    whose window the two columns share, and which fails closed as their own series would
    one after the other, naming the point by its place in the caller's column."""

    def batch(xs, orders):
        p, u, tau = xs
        at_y = [(o[second] + shift, o[2]) for o in orders if o[1 - second] == 0]
        cols = [p - u, xs[second]] if at_y else [p - u]
        rect = _log_theta_rect(np.array(cols), tau,
                               [(k + r + shift, t) for k, r, t in orders] + at_y)
        return [(-1) ** r * rect(k + r + shift, t)[0]
                - (rect((k, r)[second] + shift, t)[1] if (k, r)[1 - second] == 0 else 0)
                for k, r, t in orders]

    return Kernel(lambda *xs: batch(xs, [(0, 0, 0)])[0], loci=loci, batch=batch)


_SPHERE_LOCI = (Diagonal(0, 1), FixedPoints(0, [0.0, 1.0]))

# 1/(x - y)
POLE = Kernel(lambda x, y: 1.0 / (x - y),
              lambda xs, o: _pole_partial(xs[0] - xs[1], *o), (Diagonal(0, 1),))
# log(x - y)
LOG = Kernel(lambda x, y: np.log(x - y),
             lambda xs, o: _log_partial(xs[0] - xs[1], *o), (Diagonal(0, 1),))
# u(u-1) / ((p-u) p (p-1)): the sphere with 0, 1 and infinity frozen
SPHERE = Kernel(lambda p, u: u * (u - 1.0) / ((p - u) * p * (p - 1.0)),
                lambda xs, o: _sphere_partial(*xs, *o), _SPHERE_LOCI)
# e(e-1) / (2 p (p-1) (p-e)): half the sphere kernel, on the genus-2 curve
HALF_SPHERE = Kernel(lambda p, e: e * (e - 1.0) / ((p - e) * 2.0 * p * (p - 1.0)),
                     lambda xs, o: 0.5 * _sphere_partial(*xs, *o), _SPHERE_LOCI)
# rho(p - u, tau) - rho(p, tau) over (p, u, tau), rho = d_p log theta
RHO = _theta_difference(1, 0, (LatticePoints(0, 2, 1), LatticePoints(0, 2), HalfPlane(2)))
# log theta(p - u, tau) - log theta(u, tau) over (p, u, tau)
LOG_THETA = _theta_difference(0, 1, (LatticePoints(0, 2, 1), LatticePoints(1, 2), HalfPlane(2)))
# p, and p - tau over (p, tau)
IDENTITY = Kernel(lambda p: p, lambda xs, o: 1.0 + 0.0j if o == (1,) else 0.0 + 0.0j)
P_MINUS_TAU = Kernel(lambda p, tau: p - tau,
                     lambda xs, o: {(1, 0): 1.0 + 0.0j, (0, 1): -1.0 + 0.0j}.get(o, 0.0 + 0.0j),
                     (HalfPlane(1),))
# the modulus direction of the torus: constant speed 2 pi i
CONSTANT_TWO_PI_I = Kernel(lambda tau: TWO_PI_I, lambda xs, o: 0.0 + 0.0j, (HalfPlane(0),))


def _frozen_log(point: complex) -> Kernel:
    """log(p - point) over p."""
    return Kernel(lambda p: np.log(p - point),
                  lambda xs, o: _log_partial(xs[0] - point, o[0], 0),
                  (FixedPoints(0, [point]),))


# ---------------------------------------------------------------------------
# Benney (genus 0, non-compact): f = 1/(p1-p2), g_i = 1/(p-u_i)
# ---------------------------------------------------------------------------


def benney(n: int) -> GTStructure:
    if n < 1:
        raise ConfigError("benney needs at least one puncture")
    return GTStructure(
        m=n,
        g=[place(POLE, 1 + n, (0, 1 + i), f"benney:g[{i}]") for i in range(n)],
        f=place(POLE, 2 + n, (0, 1), "benney:f"),
        label=f"benney[{n}]",
        p_box=(-1.5, 1.5, -1.5, 1.5),
        v_boxes=[(-1.5, 1.5, -1.5, 1.5)] * n,
        puncture_slots=tuple(range(n)),
    )


def benney_enhanced(n: int) -> EnhancedGT:
    return EnhancedGT(benney(n), place(POLE, 2 + n, (0, 1), "benney:lambda"))


def benney_potentials(n: int) -> list[Potential]:
    pots = [Potential(place(LOG, 1 + n, (0, 1 + j), f"benney:h[{j}]"), label=f"log(p-u{j + 1})")
            for j in range(n)]
    pots.append(Potential(place(IDENTITY, 1 + n, (0,), "benney:h[p]"), label="p"))
    return pots


# ---------------------------------------------------------------------------
# sphere with n+3 punctures (three frozen at 0, 1, infinity)
# ---------------------------------------------------------------------------


def genus0(n: int) -> GTStructure:
    if n < 1:
        raise ConfigError("genus0 needs at least one movable puncture")
    return GTStructure(
        m=n,
        g=[place(SPHERE, 1 + n, (0, 1 + i), f"genus0:g[{i}]") for i in range(n)],
        f=place(SPHERE, 2 + n, (0, 1), "genus0:f"),
        label=f"genus0[{n}]",
        p_box=(-2.0, 2.0, -2.0, 2.0),
        v_boxes=[(-2.0, 2.0, -2.0, 2.0)] * n,
        puncture_slots=tuple(range(n)),
    )


def genus0_enhanced(n: int) -> EnhancedGT:
    return EnhancedGT(genus0(n), place(POLE, 2 + n, (0, 1), "genus0:lambda"))


def _genus0_h(j: int, n: int) -> JetEvaluator:
    """h_j for the sphere: log(p - u_j) for j < n, log(p) and log(p-1) for
    the two frozen finite punctures."""
    if j < n:
        return place(LOG, 1 + n, (0, 1 + j), f"genus0:h[u{j + 1}]")
    point = 0.0 if j == n else 1.0
    return place(_frozen_log(point), 1 + n, (0,), f"genus0:h[{point}]")


def genus0_potentials(n: int) -> list[Potential]:
    """Differences h_j - h_1: individually the h_j miss the potential
    equation by a common j-independent defect, so pairwise differences
    satisfy it."""
    h1 = _genus0_h(0, n)
    return [Potential(_difference(_genus0_h(j, n), h1), label=f"h[{j + 1}]-h[1]")
            for j in range(1, n + 2)]


# ---------------------------------------------------------------------------
# torus with n punctures and moving modulus (fiber: u_1..u_n, tau)
# ---------------------------------------------------------------------------


def genus1(n: int) -> GTStructure:
    """n punctures u_j plus the modulus tau as the last fiber coordinate."""
    if n < 1:
        raise ConfigError("genus1 needs at least one movable puncture")
    m = n + 1
    f_tau = 2 + n  # tau slot inside f args (p1, p2, u_1..u_n, tau)
    g_tau = 1 + n  # tau slot inside g args (p, u_1..u_n, tau)
    g = [place(RHO, 1 + m, (0, 1 + j, g_tau), f"genus1:g[u{j + 1}]") for j in range(n)]
    g.append(place(CONSTANT_TWO_PI_I, 1 + m, (g_tau,), "genus1:g[tau]"))
    return GTStructure(
        m=m,
        g=g,
        f=place(RHO, 2 + m, (0, 1, f_tau), "genus1:f"),
        label=f"genus1[{n}]",
        p_box=(-0.45, 0.45, -0.35, 0.35),
        v_boxes=[(0.1, 0.9, 0.15, 0.45)] * n + [(-0.4, 0.4, 0.9, 1.7)],
        min_separation=0.15,
        puncture_slots=tuple(range(n)),
    )


def genus1_enhanced(n: int) -> EnhancedGT:
    s = genus1(n)
    tau = place(CONSTANT_TWO_PI_I, s.f.arity, (s.f.arity - 1,))
    return EnhancedGT(s, _difference(s.f, tau, "genus1:lambda"))


def genus1_potentials(n: int) -> list[Potential]:
    """p - tau, and the differences h_j - h_1 with
    h_j = log theta(p - u_j, tau) - log theta(u_j, tau)."""
    m = n + 1
    tau_slot = 1 + n
    h = [place(LOG_THETA, 1 + m, (0, 1 + j, tau_slot)) for j in range(n)]
    return [Potential(place(P_MINUS_TAU, 1 + m, (0, tau_slot)), label="p-tau")] + [
        Potential(_difference(h[j], h[0]), label=f"h[{j + 1}]-h[1]") for j in range(1, n)]


# ---------------------------------------------------------------------------
# genus-2 hyperelliptic curve q^2 = p(p-1)(p-a)(p-b)(p-c)
# ---------------------------------------------------------------------------


def _quintic(p, a, b, c):
    return p * (p - 1.0) * (p - a) * (p - b) * (p - c)


def _track_sqrt(values: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Continuous square roots along N sampled loops, an (N, nodes) array of
    their squares: each loop's first root the one closest to its anchor,
    every next one the one closest to the root before.  Relative to the
    principal roots r, a sign flips wherever r_k is closer to -r_{k-1} than
    to r_{k-1}, so the signs are a running product along each loop."""
    r = np.sqrt(values)
    before = np.concatenate([anchors[:, None], r[:, :-1]], axis=1)
    return r * np.cumprod(np.where(abs(r - before) <= abs(r + before), 1.0, -1.0), axis=1)


def _factors(*pairs):
    """Rows u of a product of linear factors x_i - x_j = u . x over
    x = (p1, p2, a, b, c, 0, 1), one per pair (i, j)."""
    u = np.zeros((len(pairs), 7))
    for row, (i, j) in enumerate(pairs):
        u[row, i], u[row, j] = 1.0, -1.0
    return u


# f = N / D with N = A1 B2 + q1 q2 and D = 2 (p1 - p2) p1 (p1 - 1) A1
_A1_B2 = _factors((0, 2), (0, 3), (0, 4), (1, 5), (1, 6))
_Q1_Q2 = _factors(*((i, r) for i in (0, 1) for r in (2, 3, 4, 5, 6)))
_DEN = _factors((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6))
# The 21 factors of the three products stacked, each with its power in its
# product (q1 q2 is the square root of ten).  For a product P over factors r,
# d_k log P = sum_r power_r u_rk / (u_r . x) and
# d_k d_l log P = -sum_r power_r u_rk u_rl / (u_r . x)^2, so one matrix per
# order maps the powered reciprocals of all 21 factors onto the three
# products' log-gradients (3 x 5 rows) and log-Hessians (3 x 5 x 5 rows).
_FACTORS = np.concatenate((_A1_B2, _Q1_Q2, _DEN))
_POWERS = np.array([1.0] * 5 + [0.5] * 10 + [1.0] * 6)
_IN = np.repeat(np.eye(3), (5, 10, 6), axis=1)  # _IN[P, r]: factor r is one of P's
_LOG_GRAD = np.einsum("pr,rk->pkr", _IN, _FACTORS[:, :5]).reshape(15, 21)
_LOG_HESS = -np.einsum("pr,rk,rl->pklr", _IN, _FACTORS[:, :5], _FACTORS[:, :5]).reshape(75, 21)


def _ratio_hessian(f, f_grad, den, den_grad, num_hess, den_hess):
    """Second partials of f = N / D from the jets of N and D and f's own:
    f_kl = (N_kl - f_k D_l - f_l D_k - f D_kl) / D, over any trailing point axis."""
    cross = f_grad[:, None] * den_grad
    return (num_hess - cross - cross.swapaxes(0, 1) - f * den_hess) / den


class GenusTwoF(JetEvaluator):
    """Two-point function of the genus-2 curve.

    Values use the principal branch of q at each argument (``np.sqrt`` on
    argument columns).  Every partial of total order <= 2 is closed form,
    from one jet of f = N / D on the principal q1 and q2, which one
    log-derivative pass over the 21 linear factors of N's two terms and D
    gives: every ``partials`` call asking an order 1 or 2 reads it, and
    builds its second order only when asked; higher orders have no closed
    form.  Its circles (the residue checks') continue the sheet along every
    loop, so the branch cut of the principal square root never crosses a
    disc.
    """

    # args: (p1, p2, a, b, c)

    def __init__(self):
        dom = Domain((
            Diagonal(0, 1),
            *(FixedPoints(t, [0.0, 1.0]) for t in (0, 1)),
            Diagonal(0, 2), Diagonal(0, 3), Diagonal(0, 4),
            Diagonal(1, 2), Diagonal(1, 3), Diagonal(1, 4),
            Diagonal(2, 3), Diagonal(2, 4), Diagonal(3, 4),
            *(FixedPoints(t, [0.0, 1.0]) for t in (2, 3, 4)),
        ))
        super().__init__(5, self._fn, domain=dom, partial_fn=self._partial_fn,
                         label="genus2:f")

    @staticmethod
    def _roots(args):
        """The principal q1 and q2 at (p1, p2, a, b, c)."""
        return (np.sqrt(_quintic(args[t], *args[2:])) for t in (0, 1))

    @staticmethod
    def _assemble(p1, p2, a, b, c, q1, q2):
        A1 = (p1 - a) * (p1 - b) * (p1 - c)
        num = A1 * p2 * (p2 - 1.0) + q1 * q2
        den = 2.0 * (p1 - p2) * p1 * (p1 - 1.0) * A1
        return num / den

    def _fn(self, *args):
        return self._assemble(*args, *self._roots(args))

    def eval_rows(self, loops, anchors):
        """Values on the loops, with q1 and q2 continued along each from
        their principal values at its anchor."""
        roots = map(_track_sqrt, (_quintic(loops[t], *loops[2:]) for t in (0, 1)),
                    self._roots(anchors))
        return self._assemble(*loops, *roots)

    # closed-form partials -------------------------------------------------

    @staticmethod
    def _factor_jet(args, second):
        """(f_k, f_kl) at the points: every first partial, a 5-row array, and,
        if ``second``, every second partial, 5 x 5 rows (else None), over
        argument columns.  A1 B2, q1 q2 and D are products of powers of the
        linear factors, so each jet is its value times the jet of its
        logarithm, all three from one pass over the 21 factors: d_k log P
        and P_kl / P = d_k d_l log P + d_k log P d_l log P.  q1 q2 is
        (quintic(p1) quintic(p2))^(1/2) on either sheet, so its logarithmic
        jet does not depend on the sheet.  Then f_k = (N_k - f D_k) / D, and
        f_kl from ``_ratio_hessian``."""
        p1, p2, a, b, c = args
        q1, q2 = GenusTwoF._roots(args)
        A1 = (p1 - a) * (p1 - b) * (p1 - c)
        P = np.array([A1 * (p2 * (p2 - 1.0)), q1 * q2, 2.0 * (p1 - p2) * p1 * (p1 - 1.0) * A1])
        inv = 1.0 / (_FACTORS @ np.array(np.broadcast_arrays(*args, 0.0, 1.0)))
        powered = _POWERS[:, None] * inv
        log_grad = (_LOG_GRAD @ powered).reshape(3, 5, -1)
        grad = P[:, None] * log_grad
        f = (P[0] + P[1]) / P[2]
        f_grad = (grad[0] + grad[1] - f * grad[2]) / P[2]
        if not second:
            return f_grad, None
        log_hess = (_LOG_HESS @ (powered * inv)).reshape(3, 5, 5, -1)
        hess = P[:, None, None] * (log_hess + log_grad[:, :, None] * log_grad[:, None])
        return f_grad, _ratio_hessian(f, f_grad, P[2], grad[2], hess[0] + hess[1], hess[2])

    def _partial_fn(self, args, multis):
        """Orders 1 and 2 from one jet at the points, its second partials
        only when asked; the value and higher orders are declined, a request
        for nothing else before any square root is taken."""
        orders = [sum(multi) for multi in multis]
        if 1 not in orders and 2 not in orders:
            return [NotImplemented] * len(multis)
        # a lone point is read as a column of two: matmul rounds one column (gemv)
        # apart from several (gemm), and a point must give its column's floats
        n = len(args[0])
        jet = self._factor_jet(args if n > 1 else [np.repeat(col, 2) for col in args],
                               2 in orders)
        return [jet[order - 1][(*(slot for slot, o in enumerate(multi) for _ in range(o)),
                                slice(n))]
                if order in (1, 2) else NotImplemented for multi, order in zip(multis, orders)]


def genus2() -> GTStructure:
    """Genus-2 curve with branch points 0, 1, infinity and moduli a, b, c."""
    g = [place(HALF_SPHERE, 4, (0, 1 + i), f"genus2:g[{'abc'[i]}]") for i in range(3)]
    return GTStructure(
        m=3,
        g=g,
        f=GenusTwoF(),
        label="genus2",
        p_box=(-1.8, 3.6, -1.4, 1.4),
        v_boxes=[(1.4, 2.0, -0.3, 0.3), (2.6, 3.2, -0.3, 0.3), (3.8, 4.4, -0.3, 0.3)],
        min_separation=0.2,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    build: Callable[..., GTStructure]
    build_enhanced: Callable[..., EnhancedGT] | None = None
    potentials: Callable[..., list[Potential]] | None = None


CATALOG: dict[str, CatalogEntry] = {
    "benney": CatalogEntry(
        "benney",
        "Benney chain: f = 1/(p1-p2), g_i = 1/(p-u_i)",
        benney, benney_enhanced, benney_potentials,
    ),
    "genus0": CatalogEntry(
        "genus0",
        "sphere with n+3 punctures (0, 1, infinity frozen)",
        genus0, genus0_enhanced, genus0_potentials,
    ),
    "genus1": CatalogEntry(
        "genus1",
        "torus with n punctures and moving modulus tau",
        genus1, genus1_enhanced, genus1_potentials,
    ),
    "genus2": CatalogEntry(
        "genus2",
        "genus-2 hyperelliptic curve, moduli a, b, c",
        lambda n=0: genus2(), None, None,
    ),
}


def build_structure(name: str, n: int = 2) -> GTStructure:
    if name not in CATALOG:
        raise ConfigError(f"unknown structure {name!r}; known: {sorted(CATALOG)}")
    return CATALOG[name].build(n)


def build_enhanced(name: str, n: int = 2) -> EnhancedGT:
    if name not in CATALOG or CATALOG[name].build_enhanced is None:
        raise ConfigError(f"no enhanced structure for {name!r}")
    return CATALOG[name].build_enhanced(n)


def build_potentials(name: str, n: int = 2) -> list[Potential]:
    if name not in CATALOG or CATALOG[name].potentials is None:
        raise ConfigError(f"no potentials catalogued for {name!r}")
    return CATALOG[name].potentials(n)
