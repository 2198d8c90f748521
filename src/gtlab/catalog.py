"""Built-in structure instances.

Four families: the Benney chain (genus 0, non-compact normalization), the
sphere with n + 3 punctures, the torus with n + 1 punctures and moving
modulus, and a genus-2 hyperelliptic curve with moving branch points.
Each family supplies the structure, where available its enhancement and a
set of potentials, and sampling boxes tuned so that rejection sampling
converges quickly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EnhancedGT, GTStructure, Potential
from .errors import ConfigError
from .kernel import (
    TWO_PI_I,
    Diagonal,
    Domain,
    FixedPoints,
    HalfPlane,
    JetEvaluator,
    LatticePoints,
    log_theta_partial,
    rho_partial,
)


def _pole_partial(d: complex, k: int, r: int) -> complex:
    """d^k/dp^k d^r/du^r of 1/(p - u) at d = p - u: the (k+r)-th
    derivative of 1/x, with the u-slot picking up (-1)^r."""
    tot = k + r
    return (-1) ** r * (-1) ** tot * math.factorial(tot) / d ** (tot + 1)


def _pole_evaluator(arity: int, label: str) -> JetEvaluator:
    """1/(p1 - p2) over (p1, p2, ...), with closed-form partials; the slots
    after the first two are inert."""

    def fn(*args):
        return 1.0 / (args[0] - args[1])

    def pf(args, multi):
        if any(multi[2:]):
            return 0.0 + 0.0j
        return _pole_partial(args[0] - args[1], multi[0], multi[1])

    return JetEvaluator(arity, fn, domain=Domain((Diagonal(0, 1),)), partial_fn=pf,
                        label=label)


def _log_partial(d: complex, k: int, r: int) -> complex:
    """d^k/dp^k d^r/du^r log(p - u) at d = p - u, for total order >= 1
    (where the log branch never enters)."""
    tot = k + r
    return (-1) ** r * (-1) ** (tot - 1) * math.factorial(tot - 1) / d**tot


# ---------------------------------------------------------------------------
# Benney (genus 0, non-compact): f = 1/(p1-p2), g_i = 1/(p-u_i)
# ---------------------------------------------------------------------------


def benney(n: int) -> GTStructure:
    if n < 1:
        raise ConfigError("benney needs at least one puncture")

    def g_fn(i):
        def fn(*args):
            return 1.0 / (args[0] - args[1 + i])

        return fn

    def g_partial(i):
        def pf(args, multi):
            if any(o for s, o in enumerate(multi) if s not in (0, 1 + i)):
                return 0.0 + 0.0j
            return _pole_partial(args[0] - args[1 + i], multi[0], multi[1 + i])

        return pf

    g = [
        JetEvaluator(
            1 + n,
            g_fn(i),
            domain=Domain((Diagonal(0, 1 + i),)),
            partial_fn=g_partial(i),
            label=f"benney:g[{i}]",
        )
        for i in range(n)
    ]

    return GTStructure(
        m=n,
        g=g,
        f=_pole_evaluator(2 + n, "benney:f"),
        label=f"benney[{n}]",
        p_box=(-1.5, 1.5, -1.5, 1.5),
        v_boxes=[(-1.5, 1.5, -1.5, 1.5)] * n,
        puncture_slots=tuple(range(n)),
    )


def benney_enhanced(n: int) -> EnhancedGT:
    return EnhancedGT(benney(n), _pole_evaluator(2 + n, "benney:lambda"))


def benney_potentials(n: int) -> list[Potential]:
    pots = []
    for j in range(n):

        def fn(*args, _j=j):
            return cmath.log(args[0] - args[1 + _j])

        def pf(args, multi, _j=j):
            if any(o for s, o in enumerate(multi) if s not in (0, 1 + _j)):
                return 0.0 + 0.0j
            return _log_partial(args[0] - args[1 + _j], multi[0], multi[1 + _j])

        pots.append(
            Potential(
                JetEvaluator(1 + n, fn, domain=Domain((Diagonal(0, 1 + j),)),
                             partial_fn=pf, label=f"benney:h[{j}]"),
                label=f"log(p-u{j + 1})",
            )
        )

    def fn_id(*args):
        return args[0]

    def pf_id(args, multi):
        if multi[0] == 1 and not any(multi[1:]):
            return 1.0 + 0.0j
        return 0.0 + 0.0j

    pots.append(Potential(JetEvaluator(1 + n, fn_id, partial_fn=pf_id,
                                       label="benney:h[p]"), label="p"))
    return pots


# ---------------------------------------------------------------------------
# sphere with n+3 punctures (three frozen at 0, 1, infinity)
# ---------------------------------------------------------------------------


def _genus0_kernel_partial(p: complex, u: complex, k: int, r: int) -> complex:
    """Partials of u(u-1) / ((p-u) p (p-1)), which splits into
    (u-1)/p - u/(p-1) + 1/(p-u)."""
    total = 0.0 + 0.0j
    if r == 0:
        total += (u - 1.0) * _pole_partial(p, k, 0) - u * _pole_partial(p - 1.0, k, 0)
    elif r == 1:
        total += _pole_partial(p, k, 0) - _pole_partial(p - 1.0, k, 0)
    total += _pole_partial(p - u, k, r)
    return total


def genus0(n: int) -> GTStructure:
    if n < 1:
        raise ConfigError("genus0 needs at least one movable puncture")

    def g_fn(i):
        def fn(*args):
            p, u = args[0], args[1 + i]
            return u * (u - 1.0) / ((p - u) * p * (p - 1.0))

        return fn

    def g_partial(i):
        def pf(args, multi):
            if any(o for s, o in enumerate(multi) if s not in (0, 1 + i)):
                return 0.0 + 0.0j
            return _genus0_kernel_partial(args[0], args[1 + i], multi[0], multi[1 + i])

        return pf

    g = [
        JetEvaluator(
            1 + n,
            g_fn(i),
            domain=Domain((Diagonal(0, 1 + i), FixedPoints(0, [0.0, 1.0]))),
            partial_fn=g_partial(i),
            label=f"genus0:g[{i}]",
        )
        for i in range(n)
    ]

    def f_fn(*args):
        p1, p2 = args[0], args[1]
        return p2 * (p2 - 1.0) / ((p1 - p2) * p1 * (p1 - 1.0))

    def f_partial(args, multi):
        if any(multi[2:]):
            return 0.0 + 0.0j
        return _genus0_kernel_partial(args[0], args[1], multi[0], multi[1])

    f = JetEvaluator(
        2 + n,
        f_fn,
        domain=Domain((Diagonal(0, 1), FixedPoints(0, [0.0, 1.0]))),
        partial_fn=f_partial,
        label="genus0:f",
    )
    return GTStructure(
        m=n,
        g=g,
        f=f,
        label=f"genus0[{n}]",
        p_box=(-2.0, 2.0, -2.0, 2.0),
        v_boxes=[(-2.0, 2.0, -2.0, 2.0)] * n,
        puncture_slots=tuple(range(n)),
    )


def genus0_enhanced(n: int) -> EnhancedGT:
    return EnhancedGT(genus0(n), _pole_evaluator(2 + n, "genus0:lambda"))


def _genus0_h(j: int, n: int) -> JetEvaluator:
    """h_j for the sphere: log(p - u_j) for j < n, log(p) and log(p-1) for
    the two frozen finite punctures."""
    if j < n:
        def fn(*args):
            return cmath.log(args[0] - args[1 + j])

        def pf(args, multi):
            if any(o for s, o in enumerate(multi) if s not in (0, 1 + j)):
                return 0.0 + 0.0j
            return _log_partial(args[0] - args[1 + j], multi[0], multi[1 + j])

        return JetEvaluator(1 + n, fn, domain=Domain((Diagonal(0, 1 + j),)),
                            partial_fn=pf, label=f"genus0:h[u{j + 1}]")
    point = 0.0 if j == n else 1.0

    def fn(*args):
        return cmath.log(args[0] - point)

    def pf(args, multi):
        if any(multi[1:]):
            return 0.0 + 0.0j
        return _log_partial(args[0] - point, multi[0], 0)

    return JetEvaluator(1 + n, fn, domain=Domain((FixedPoints(0, [point]),)),
                        partial_fn=pf, label=f"genus0:h[{point}]")


def genus0_potentials(n: int) -> list[Potential]:
    """Differences h_j - h_1: individually the h_j miss the potential
    equation by a common j-independent defect, so pairwise differences
    satisfy it."""
    pots = []
    h1 = _genus0_h(0, n)
    for j in range(1, n + 2):
        hj = _genus0_h(j, n)

        def fn(*args, _hj=hj, _h1=h1):
            return _hj.value(args) - _h1.value(args)

        def pf(args, multi, _hj=hj, _h1=h1):
            return _hj.partial(args, multi) - _h1.partial(args, multi)

        dom = hj.domain.merged(h1.domain)
        pots.append(
            Potential(JetEvaluator(1 + n, fn, domain=dom, partial_fn=pf),
                      label=f"h[{j + 1}]-h[1]")
        )
    return pots


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

    def f_fn(*args):
        p1, p2, tau = args[0], args[1], args[f_tau]
        return rho_partial(p1 - p2, tau, 0, 0) - rho_partial(p1, tau, 0, 0)

    def f_partial(args, multi):
        if any(multi[2:f_tau]):
            return 0.0 + 0.0j
        k, l, t = multi[0], multi[1], multi[f_tau]
        p1, p2, tau = args[0], args[1], args[f_tau]
        out = (-1) ** l * rho_partial(p1 - p2, tau, k + l, t)
        if l == 0:
            out -= rho_partial(p1, tau, k, t)
        return out

    f_dom = Domain((
        LatticePoints(0, f_tau, 1),
        LatticePoints(0, f_tau),
        HalfPlane(f_tau),
    ))
    f = JetEvaluator(2 + m, f_fn, domain=f_dom, partial_fn=f_partial,
                     label="genus1:f")

    def g_fn(j):
        def fn(*args):
            p, u, tau = args[0], args[1 + j], args[g_tau]
            return rho_partial(p - u, tau, 0, 0) - rho_partial(p, tau, 0, 0)

        return fn

    def g_partial(j):
        def pf(args, multi):
            if any(o for s, o in enumerate(multi) if s not in (0, 1 + j, g_tau)):
                return 0.0 + 0.0j
            k, r, t = multi[0], multi[1 + j], multi[g_tau]
            p, u, tau = args[0], args[1 + j], args[g_tau]
            out = (-1) ** r * rho_partial(p - u, tau, k + r, t)
            if r == 0:
                out -= rho_partial(p, tau, k, t)
            return out

        return pf

    g = []
    for j in range(n):
        dom = Domain((
            LatticePoints(0, g_tau, 1 + j),
            LatticePoints(0, g_tau),
            HalfPlane(g_tau),
        ))
        g.append(JetEvaluator(1 + m, g_fn(j), domain=dom,
                              partial_fn=g_partial(j), label=f"genus1:g[u{j + 1}]"))

    def g_tau_fn(*args):
        return TWO_PI_I

    def g_tau_partial(args, multi):
        return 0.0 + 0.0j  # constant field

    g.append(JetEvaluator(1 + m, g_tau_fn, domain=Domain((HalfPlane(g_tau),)),
                          partial_fn=g_tau_partial, label="genus1:g[tau]"))

    return GTStructure(
        m=m,
        g=g,
        f=f,
        label=f"genus1[{n}]",
        p_box=(-0.45, 0.45, -0.35, 0.35),
        v_boxes=[(0.1, 0.9, 0.15, 0.45)] * n + [(-0.4, 0.4, 0.9, 1.7)],
        min_separation=0.15,
        puncture_slots=tuple(range(n)),
    )


def genus1_enhanced(n: int) -> EnhancedGT:
    s = genus1(n)
    base_f = s.f

    def lam_fn(*args):
        return base_f.fn(*args) - TWO_PI_I

    lam = JetEvaluator(base_f.arity, lam_fn, domain=base_f.domain,
                       partial_fn=base_f.partial_fn, label="genus1:lambda")
    return EnhancedGT(s, lam)


def genus1_potentials(n: int) -> list[Potential]:
    """p - tau, and the differences h_j - h_1 with
    h_j = log theta(p - u_j, tau) - log theta(u_j, tau)."""
    m = n + 1
    tau_slot = 1 + n

    def lin_fn(*args):
        return args[0] - args[tau_slot]

    def lin_pf(args, multi):
        if sum(multi) == 1 and multi[0] == 1:
            return 1.0 + 0.0j
        if sum(multi) == 1 and multi[tau_slot] == 1:
            return -1.0 + 0.0j
        return 0.0 + 0.0j

    pots = [
        Potential(
            JetEvaluator(1 + m, lin_fn, domain=Domain((HalfPlane(tau_slot),)),
                         partial_fn=lin_pf),
            label="p-tau",
        )
    ]

    def h_partial(j: int, args, multi) -> complex:
        """Partials of h_j = log theta(p - u_j) - log theta(u_j)."""
        if any(o for s, o in enumerate(multi) if s not in (0, 1 + j, tau_slot)):
            return 0.0 + 0.0j
        k, r, t = multi[0], multi[1 + j], multi[tau_slot]
        p, u, tau = args[0], args[1 + j], args[tau_slot]
        out = (-1) ** r * log_theta_partial(p - u, tau, k + r, t)
        if k == 0:
            out -= log_theta_partial(u, tau, r, t)
        return out

    zero = (0,) * (1 + m)  # the multi-index of a value
    for j in range(1, n):

        def pf(args, multi, _j=j):
            return h_partial(_j, args, multi) - h_partial(0, args, multi)

        def fn(*args, _pf=pf):
            return _pf(args, zero)

        dom = Domain((
            LatticePoints(0, tau_slot, 1 + j),
            LatticePoints(0, tau_slot, 1),
            LatticePoints(1 + j, tau_slot),
            LatticePoints(1, tau_slot),
            HalfPlane(tau_slot),
        ))
        pots.append(
            Potential(JetEvaluator(1 + m, fn, domain=dom, partial_fn=pf),
                      label=f"h[{j + 1}]-h[1]")
        )
    return pots


# ---------------------------------------------------------------------------
# genus-2 hyperelliptic curve q^2 = p(p-1)(p-a)(p-b)(p-c)
# ---------------------------------------------------------------------------


def _quintic(p, a, b, c):
    return p * (p - 1.0) * (p - a) * (p - b) * (p - c)


def _quintic_dp(p, a, b, c):
    roots = (0.0, 1.0, a, b, c)
    tot = 0.0 + 0.0j
    for k in range(5):
        prod = 1.0 + 0.0j
        for l, r in enumerate(roots):
            if l != k:
                prod *= p - r
        tot += prod
    return tot


def _track_sqrt(values: np.ndarray, anchor: complex) -> np.ndarray:
    """Continuous square root along a sampled loop, anchored so the first
    point's root is the one closest to ``anchor``."""
    out = np.empty_like(values)
    prev = anchor
    for k, v in enumerate(values):
        r = cmath.sqrt(v)
        out[k] = r if abs(r - prev) <= abs(r + prev) else -r
        prev = out[k]
    return out


class GenusTwoF(JetEvaluator):
    """Two-point function of the genus-2 curve.

    Values use the principal branch of q at each argument; derivatives by
    circle quadrature continue the sheet along the circle so the branch cut
    of the principal square root never contaminates a derivative disc.
    First-order partials are closed-form (the identities downstream consume
    mostly those).
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
    def _assemble(p1, p2, a, b, c, q1, q2):
        A1 = (p1 - a) * (p1 - b) * (p1 - c)
        num = A1 * p2 * (p2 - 1.0) + q1 * q2
        den = 2.0 * (p1 - p2) * p1 * (p1 - 1.0) * A1
        return num / den

    def _fn(self, p1, p2, a, b, c):
        q1 = cmath.sqrt(_quintic(p1, a, b, c))
        q2 = cmath.sqrt(_quintic(p2, a, b, c))
        return self._assemble(p1, p2, a, b, c, q1, q2)

    def eval_rows(self, rows, anchor, rests):
        """Values (rest None) or the closed-form first partial in the slot a
        rest names along a loop of arguments, with q1 and q2 continued along
        it once from their principal values at ``anchor``.  The partial
        rows of one node share its terms, and _quintic_dp of a point that
        stays put along the loop (p2 on a p1 circle) is computed once."""
        if any(rest is not None and sum(rest) > 1 for rest in rests):
            raise NotImplementedError(
                "genus-2 mixed partials beyond total order 2 in more than "
                "one slot are not supported"
            )
        q1 = _track_sqrt(np.array([_quintic(r[0], r[2], r[3], r[4]) for r in rows]),
                         cmath.sqrt(_quintic(anchor[0], anchor[2], anchor[3], anchor[4])))
        q2 = _track_sqrt(np.array([_quintic(r[1], r[2], r[3], r[4]) for r in rows]),
                         cmath.sqrt(_quintic(anchor[1], anchor[2], anchor[3], anchor[4])))
        slots = [None if rest is None else rest.index(1) for rest in rests]
        seen: dict = {}

        def quintic_dp(*key):
            if key not in seen:
                seen[key] = _quintic_dp(*key)
            return seen[key]

        any_partial = any(slot is not None for slot in slots)
        out = np.empty((len(rests), len(rows)), dtype=complex)
        for k, row in enumerate(rows):
            shared = self._shared(row, q1[k], q2[k]) if any_partial else None
            for i, slot in enumerate(slots):
                out[i, k] = (self._assemble(*row, q1[k], q2[k]) if slot is None else
                             self._first_partial(row, slot, q1[k], q2[k], shared, quintic_dp))
        return out

    # closed-form first partials ------------------------------------------

    @staticmethod
    def _shared(args, q1, q2):
        """(A1, B2, f, den) at one point: what every first partial there uses."""
        p1, p2, a, b, c = args
        A1 = (p1 - a) * (p1 - b) * (p1 - c)
        B2 = p2 * (p2 - 1.0)
        num = A1 * B2 + q1 * q2
        den = 2.0 * (p1 - p2) * p1 * (p1 - 1.0) * A1
        return A1, B2, num / den, den

    @staticmethod
    def _first_partial(args, slot, q1, q2, shared, quintic_dp=_quintic_dp):
        p1, p2, a, b, c = args
        A1, B2, f, den = shared
        if slot == 0:
            dA1 = (p1 - b) * (p1 - c) + (p1 - a) * (p1 - c) + (p1 - a) * (p1 - b)
            dq1 = quintic_dp(p1, a, b, c) / (2.0 * q1)
            dnum = dA1 * B2 + dq1 * q2
            dden = den * (1.0 / (p1 - p2) + 1.0 / p1 + 1.0 / (p1 - 1.0) + dA1 / A1)
        elif slot == 1:
            dq2 = quintic_dp(p2, a, b, c) / (2.0 * q2)
            dnum = A1 * (2.0 * p2 - 1.0) + q1 * dq2
            dden = den * (-1.0 / (p1 - p2))
        else:
            e = args[slot]  # the moving branch point
            dA1 = -A1 / (p1 - e)
            dq1 = -q1 / (2.0 * (p1 - e))
            dq2 = -q2 / (2.0 * (p2 - e))
            dnum = dA1 * B2 + dq1 * q2 + q1 * dq2
            dden = den * (dA1 / A1)
        return (dnum - f * dden) / den

    def _partial_fn(self, args, multi):
        if sum(multi) != 1:
            return NotImplemented
        q1 = cmath.sqrt(_quintic(args[0], args[2], args[3], args[4]))
        q2 = cmath.sqrt(_quintic(args[1], args[2], args[3], args[4]))
        return self._first_partial(args, multi.index(1), q1, q2, self._shared(args, q1, q2))


def genus2() -> GTStructure:
    """Genus-2 curve with branch points 0, 1, infinity and moduli a, b, c."""

    def g_fn(slot):
        def fn(p, a, b, c):
            e = (a, b, c)[slot]
            return e * (e - 1.0) / ((p - e) * 2.0 * p * (p - 1.0))

        return fn

    def g_partial(i):
        # e(e-1) / (2 p (p-1) (p-e)) has the same partial-fraction shape
        # as the sphere kernel, halved
        def pf(args, multi):
            if any(o for s, o in enumerate(multi) if s not in (0, 1 + i)):
                return 0.0 + 0.0j
            return 0.5 * _genus0_kernel_partial(
                args[0], args[1 + i], multi[0], multi[1 + i]
            )

        return pf

    g = [
        JetEvaluator(
            4,
            g_fn(i),
            domain=Domain((Diagonal(0, 1 + i), FixedPoints(0, [0.0, 1.0]))),
            partial_fn=g_partial(i),
            label=f"genus2:g[{'abc'[i]}]",
        )
        for i in range(3)
    ]
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
    # zero locus of g_1 in (p, v...) slots; poles of the quasilinear
    # coefficient functions that the structure's own domain does not know
    gt_exclusions: tuple = ()


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
        gt_exclusions=(FixedPoints(1, [0.0, 1.0]),),
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
        gt_exclusions=(FixedPoints(1, [0.0, 1.0]),),
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
