"""Gibbons-Tsarev systems attached to a structure.

The distinguished fiber coordinate v_1 (slot 0 of the fiber; reorder the
structure's g components to distinguish another) turns a structure into
the quasilinear system

    d_i p_j = A(p_i, p_j, v) d_i v_1             (i != j)
    d_i v_l = B_l(p_i, v)   d_i v_1
    d_i d_j v_1 = Q(p_i, p_j, v) d_i v_1 d_j v_1  (i != j)

with A = f / g_1, B_l = g_l / g_1 and

    Q(p_1, p_2) = 2 f_{p_2}(p_1, p_2) / g_1(p_1)
        + (f(p_1, p_2) g_1'(p_2) + g(p_1)(g_1(p_2))) / (g_1(p_1) g_1(p_2)).

``GTSystem.fiber`` asks each g_k once at a point, or once over argument
columns, and gives their jets and the B_l there (``_b_row`` reads a B_l's
first-partial row off the jets); ``GTSystem.pair`` reads the jets
``fiber`` gave at two points (or two columns of points) and gives A and Q
at the pairs, each with its first-partial row.  Both checks below run on
batches: a ``_State`` holds one row per field over N states, and
``_flows`` gives d_i of every field (p, v, w) of every state along every
direction i, together with the A, Q and B_l values it used, A's and Q's
rows and the g jets B_l's rows come from.  It asks each g_k once, one
``fiber`` call over every point of every state, and f once, one ``pair``
call over every ordered pair of points of every state.  One
mixed-derivative rule takes d_a d_b of a field by the chain rule through
the rows of the flow along b.
``compatibility_residual`` compares d_i d_j with d_j d_i for every field
that evolves in both directions, over all its sampled states at once.
``integrate_reduction`` marches the system on a tensor grid, its state
extended by the own-direction slopes y_j = d_j p_j and z_j = d_j w_j, which
evolve along i != j by the same rule (d_i y_j = d_j (A(p_i, p_j) w_i),
d_i z_j = d_j (Q(p_i, p_j) w_i w_j)); ``convergence_ratio`` marches the
grids of steps h and h/2 together and confirms the second-order accuracy
of the scheme by step halving.  A grid state depends only on states one
level (sum of grid indices) below it, so the march goes level by level
(Lamport's hyperplane method): the states of one level, on every grid, are
one batch, and so are the predictor states of every step leaving it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import GTStructure, VerificationReport, _jet, _make_report, worst_residual
from .errors import ConfigError, DomainViolation, NonConvergence
from .kernel import JetEvaluator, SplitMix64, multi_index, on_columns

G1_FLOOR = 1e-8  # |g_1| below this counts as a zero of g_1


@dataclass
class GTSystem:
    """Coefficient functions of the quasilinear system.

    ``fiber(args)`` at (p, v), a point or a tuple of argument columns,
    gives (jets, B): jets[k] is g_k followed by its first partials, and for
    g_1 (k = 0) by its second partials too, a row per entry on columns;
    B[l] = B_l(p, v), None at l = 0 (B_1 = 1), whose first-partial row
    ``_b_row`` reads off the jets.  ``pair(jets_1, jets_2, args)`` gives
    (A, Q, A_row, Q_row) at (p_1, p_2, v), A and Q with their first-partial
    rows in slot order, from the jets ``fiber`` gave at (p_1, v) and
    (p_2, v), of which it reads g_1's alone at p_2.
    """

    structure: GTStructure
    fiber: Callable[[Sequence[complex]], tuple]
    pair: Callable[[list, list, Sequence[complex]], tuple]

    @property
    def m(self) -> int:
        return self.structure.m


def build_system(s: GTStructure) -> GTSystem:
    """Convert a structure into its quasilinear system.

    ``fiber`` asks each g_k once at (p, v), in one ``partials`` call, for
    its value and first partials, and g_1 for its second partials too:
    every point is some pair's p_2.  ``pair`` reads g at both points from
    those jets and asks only f, once, for its value, every first partial
    and every d_{p_2} d_k f.  It computes the terms A and Q share (F, F_2,
    G_1, G_2, N) once and every first partial of both by the chain rule.
    So f's second partials come from f's own ``partial_fn`` where it has
    them (every catalog f, genus2's included), and an f or g without closed
    forms opens its circles on its own domain, where no circle approaches
    a zero of g_1.  Both answer a point or argument columns, with the same
    expressions.  ``fiber`` raises ``DomainViolation`` at a |g_1| below
    ``G1_FLOOR``, naming the first point at fault.
    """
    if s.m < 1:
        raise ConfigError("need at least one fiber coordinate")
    m = s.m
    g1 = s.g[0]
    # reject an identically-zero g_1 up front
    if abs(g1.value(tuple(s.sample(1, 99, 1)[0].tolist()))) < G1_FLOOR:
        raise ConfigError("g_1 vanishes at a generic point")

    f_jet = _jet(2 + m, *range(2 + m))  # a value and every first partial
    g_jet = _jet(1 + m, *range(1 + m))
    f_mixed = [multi_index(2 + m, 1, k) for k in range(2 + m)]  # d_1 d_k f
    g_pairs = [(a, b) for a in range(1 + m) for b in range(a, 1 + m)]
    g1_jet = g_jet + [multi_index(1 + m, a, b) for a, b in g_pairs]  # and every second partial

    def fiber(args):
        """(jets, B) at (p, v); see ``GTSystem``."""
        jets = [g1.partials(args, g1_jet), *(gk.partials(args, g_jet) for gk in s.g[1:])]
        G = jets[0][0]
        low = np.abs(G) < G1_FLOOR  # a zero of g_1
        if np.any(low):
            at = np.flatnonzero(low)[0]
            where = f" (point {at} of {low.size})" if on_columns(args) else ""
            raise DomainViolation(f"g_1({complex(np.ravel(args[0])[at])}) = "
                                  f"{complex(np.ravel(G)[at])} below floor {G1_FLOOR}{where}")
        return jets, [None] + [jet[0] / G for jet in jets[1:]]

    def pair(jets_1, jets_2, args):
        """(A, Q, A_row, Q_row) at (p_1, p_2, v); see ``GTSystem``."""
        # g_k at p1 and g_1 at p2 with their partials: dg[k][j] = d_j g_k(p1)
        gv, dg = [jet[0] for jet in jets_1], [jet[1:] for jet in jets_1]
        G1 = gv[0]
        G2, *dG2 = jets_2[0]
        F, *dfs = s.f.partials(args, f_jet + f_mixed)
        df, d1f = dfs[:2 + m], dfs[2 + m:]
        N = F * dG2[0]
        for k in range(m):
            N += gv[k] * dG2[1 + k]
        A, Q = F / G1, 2.0 * df[1] / G1 + N / (G1 * G2)
        dG1 = dg[0][0]
        A_row = [df[0] / G1 - F * dG1 / G1**2, df[1] / G1,
                 *(df[2 + l] / G1 - F * dg[0][1 + l] / G1**2 for l in range(m))]
        H = {}  # second partials of g_1 at p2
        for (a, b), val in zip(g_pairs, dG2[1 + m:]):
            H[a, b] = H[b, a] = val
        dN = df[0] * dG2[0]
        for k in range(m):
            dN += dg[k][0] * dG2[1 + k]
        Q_row = [2.0 * d1f[0] / G1 - 2.0 * df[1] * dG1 / G1**2 + dN / (G1 * G2)
                 - N * dG1 / (G1**2 * G2)]
        dN = df[1] * dG2[0] + F * H[0, 0]
        for k in range(m):
            dN += gv[k] * H[0, 1 + k]
        Q_row.append(2.0 * d1f[1] / G1 + dN / (G1 * G2) - N * dG2[0] / (G1 * G2**2))
        for l in range(m):
            dG1 = dg[0][1 + l]
            dN = df[2 + l] * dG2[0] + F * H[0, 1 + l]
            for k in range(m):
                dN += dg[k][1 + l] * dG2[1 + k]
                dN += gv[k] * H[1 + k, 1 + l]
            Q_row.append(2.0 * d1f[2 + l] / G1 - 2.0 * df[1] * dG1 / G1**2 + dN / (G1 * G2)
                         - N * (dG1 * G2 + G1 * dG2[1 + l]) / (G1 * G2) ** 2)
        return A, Q, A_row, Q_row

    return GTSystem(structure=s, fiber=fiber, pair=pair)


def inject_defect(s: GTStructure, scale: float = 1e-2, seed: int = 0) -> GTStructure:
    """Return a copy of the structure whose f is polluted by a seeded
    low-degree polynomial of size ``scale``.

    The perturbed structure is no longer compatible, so the compatibility
    residual must light up; this is the detection test for the a-posteriori
    machinery.
    """
    rng = SplitMix64(seed)
    c = [complex(rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5)) for _ in range(3)]
    base = s.f

    def fn(*args):
        p1, p2 = args[0], args[1]
        return base.value(args) + scale * (c[0] + c[1] * p1 + c[2] * p2 * p2)

    def pf(args, multis):
        """base's partials plus the defect's; the value, which base's would
        miss the defect in, goes to ``fn``."""
        out = list(base.partials(args, multis))  # on columns, the rows of base's table
        for i, multi in enumerate(multis):
            if not any(multi):
                out[i] = NotImplemented
            elif multi[0] == 1 and sum(multi) == 1:
                out[i] += scale * c[1]
            elif multi[1] == 1 and sum(multi) == 1:
                out[i] += scale * 2.0 * c[2] * args[1]
            elif multi[1] == 2 and sum(multi) == 2:
                out[i] += scale * 2.0 * c[2]
        return out

    f = JetEvaluator(base.arity, fn, domain=base.domain, partial_fn=pf,
                     label=f"{base.label}+defect")
    return GTStructure(
        m=s.m,
        g=s.g,
        f=f,
        label=f"{s.label}+defect",
        p_box=s.p_box,
        v_boxes=s.v_boxes,
        min_separation=s.min_separation,
        puncture_slots=s.puncture_slots,
    )


# ---------------------------------------------------------------------------
# the first-order flow and its mixed second derivatives
# ---------------------------------------------------------------------------


class _State:
    """A batch of N solution jets, one row per field over the states: the
    points p_1..p_M, the fiber point v_1..v_m, the slopes w_i = d_i v_1 and,
    for a reduction march, the own-direction slopes y_i = d_i p_i and
    z_i = d_i w_i (no rows without them).  A batch of derivatives has the
    same rows, 0 where a field has no equation along the direction, so a
    step keeps that field as it is."""

    def __init__(self, X: np.ndarray, M: int, m: int):
        self.X, self.M, self.m = X, M, m

    def _field(self, k: int) -> np.ndarray:
        """The rows of p, v, w, y or z (k = 0..4)."""
        M, m = self.M, self.m
        start = (0, M, M + m, 2 * M + m, 3 * M + m)[k]
        return self.X[start:start + (M, m, M, M, M)[k]]

    p = property(lambda self: self._field(0))
    v = property(lambda self: self._field(1))
    w = property(lambda self: self._field(2))
    y = property(lambda self: self._field(3))
    z = property(lambda self: self._field(4))

    def step(self, h, d: "_State") -> "_State":
        """This batch advanced by h (a number or a column) along the derivatives d."""
        return _State(self.X + h * d.X, self.M, self.m)

    def take(self, at) -> "_State":
        """The states ``at`` (an index array or a slice) of this batch."""
        return _State(self.X[:, at], self.M, self.m)

    @staticmethod
    def join(batches: Sequence["_State"]) -> "_State":
        """One batch of the states of ``batches``, in order."""
        return _State(np.concatenate([b.X for b in batches], axis=1), batches[0].M, batches[0].m)


def _flows(sys: GTSystem, st: _State) -> list[tuple]:
    """The flow of every state of a batch along every direction i: for each
    i, (d, A, Q, B, A_rows, Q_rows, g) over the batch, where d holds d_i of
    p, v and w, A[k] = A(p_i, p_k, v) and Q[k] likewise (NaN at k = i),
    B[l] = B_l(p_i, v) (1 at l = 0), A_rows[k] and Q_rows[k] are the
    first-partial rows of A[k] and Q[k] (NaN at k = i), and g[l] is g_l's
    value and first partials at (p_i, v), which B_l's row is read off
    (``_b_row``).  d_i p_i and d_i w_i are the batch's own slopes y_i and
    z_i, NaN without them.

    Each g_k is asked once, by one ``fiber`` call over every point of every
    state, and f once, by one ``pair`` call over every ordered pair of
    points of every state."""
    p, v, w = st.p, st.v, st.w
    M, m, N = st.M, st.m, st.X.shape[1]
    # the jet table: point k of state s in column k N + s
    at = p.ravel()
    jets, B = sys.fiber((at, *np.concatenate([v] * M, axis=1)))
    # A and Q, and their rows, of the ordered pair (i, k) of state s at [..., i, k, s]
    coef = np.full((2, M, M, N), np.nan, dtype=complex)
    coef_rows = np.full((2, 2 + m, M, M, N), np.nan, dtype=complex)
    i, k, s = np.nonzero(np.broadcast_to(~np.eye(M, dtype=bool)[:, :, None], (M, M, N)))
    one, two = i * N + s, k * N + s
    a, q, a_row, q_row = sys.pair([jet.take(one, axis=1) for jet in jets],
                                  [jets[0].take(two, axis=1)], (at[one], at[two], *v[:, s]))
    coef[:, i, k, s], coef_rows[:, :, i, k, s] = (a, q), (a_row, q_row)
    (A, Q), (A_rows, Q_rows) = coef, coef_rows.transpose(0, 2, 3, 1, 4)
    dp, dw = A * w[:, None], Q * w[:, None] * w  # [i, k]: A(p_i, p_k) w_i, Q(p_i, p_k) w_i w_k
    if st.y.size:
        diag = np.arange(M)
        dp[diag, diag], dw[diag, diag] = st.y, st.z
    B = np.array([np.ones(M * N), *B[1:]]).reshape(m, M, N)  # B_1 = 1
    g = np.array([jet[:2 + m] for jet in jets]).reshape(m, 2 + m, M, N)
    d = np.concatenate((dp, (B * w).transpose(1, 0, 2), dw), axis=1)
    return [(_State(d[i], M, m), A[i], Q[i], B[:, i], A_rows[i], Q_rows[i], g[:, :, i])
            for i in range(M)]


def _b_row(jets, l: int):
    """The first-partial row of B_l = g_l / g_1 in slot order, from the
    values and first partials of g_1 and g_l: ``fiber``'s jets, or a
    flow's."""
    n = len(jets[l])
    G, dG, gl, dgl = jets[0][0], np.asarray(jets[0][1:n]), jets[l][0], np.asarray(jets[l][1:])
    return dgl / G - gl * dG / G**2


def _chain(row, da: _State, points):
    """d_a of a coefficient through its first-partial row: the point slots
    (p_t for t in ``points``) first, then the fiber slots."""
    n = len(points)
    return (sum(row[s] * da.p[t] for s, t in enumerate(points))
            + sum(row[n + l] * dv for l, dv in enumerate(da.v)))


def _mixed(st: _State, fa, fb, b: int, kind: str, k: int):
    """d_a d_b of the field p_k, v_k or w_k (``kind`` "p", "v" or "w"),
    from the flows ``fa`` along a and ``fb`` along b.

    d_b of the field is A(p_b, p_k) w_b, B_k(p_b) w_b (w_b for v_1)
    or Q(p_b, p_k) w_b w_k, with the coefficient value and its row read
    off ``fb``; the chain and product rules take d_a of its factors from
    ``fa``."""
    da, (_, A, Q, B, A_rows, Q_rows, g) = fa[0], fb
    w = st.w
    if kind == "v":
        if k == 0:
            return da.w[b]
        return _chain(_b_row(g, k), da, (b,)) * w[b] + B[k] * da.w[b]
    if kind == "p":
        return _chain(A_rows[k], da, (b, k)) * w[b] + A[k] * da.w[b]
    dQ = _chain(Q_rows[k], da, (b, k))
    return dQ * w[b] * w[k] + Q[k] * (da.w[b] * w[k] + w[b] * da.w[k])


def compatibility_residual(
    sys: GTSystem,
    M: int = 3,
    states: int = 50,
    seed: int = 17,
    tol: float = 1e-9,
) -> VerificationReport:
    """Max over random states and index pairs of |d_i d_j F - d_j d_i F|
    for every field F that evolves in both directions, the states one
    batch."""
    if M < 3:
        raise ConfigError("mixed-derivative compatibility needs M >= 3")
    s = sys.structure
    rng = SplitMix64(seed)
    raw = s.sample(states, seed, M)
    ws = [complex(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5)) for _ in range(M * len(raw))]
    st = _State(np.hstack([raw, np.reshape(ws, (len(raw), M))]).T.copy(), M, sys.m)
    diffs = []
    with np.errstate(all="ignore"):  # a non-finite residual fails the report
        flows = _flows(sys, st)
        for i in range(M):
            for j in range(i + 1, M):
                others = [k for k in range(M) if k not in (i, j)]
                fields = ([("p", k) for k in others] + [("v", l) for l in range(sys.m)]
                          + [("w", k) for k in others])
                for kind, k in fields:
                    d_ij = _mixed(st, flows[i], flows[j], j, kind, k)
                    d_ji = _mixed(st, flows[j], flows[i], i, kind, k)
                    diffs.append(np.abs(d_ij - d_ji))
    residuals = np.max(diffs, axis=0)  # NaN at a state with any NaN difference
    return _make_report("gt_compatibility", residuals.tolist(), tol, seed, M=M)


# ---------------------------------------------------------------------------
# grid integration of a hydrodynamic reduction
# ---------------------------------------------------------------------------


@dataclass
class FreeData:
    """The 2M free functions of one variable: p_i and w_i along their own
    axis (value and first-derivative callables), plus the fiber point at
    the grid origin."""

    p_funcs: tuple[Callable[[float], complex], ...]
    p_derivs: tuple[Callable[[float], complex], ...]
    w_funcs: tuple[Callable[[float], complex], ...]
    w_derivs: tuple[Callable[[float], complex], ...]
    v0: tuple[complex, ...]


def default_free_data(sys: GTSystem, M: int, seed: int = 23) -> FreeData:
    """Smooth seeded free data anchored at an admissible sample of the
    structure."""
    s = sys.structure
    row = s.sample(1, seed, M)[0].tolist()  # (p_1..p_M, v)
    rng = SplitMix64(seed + 1)

    def make_pair(base):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05
        beta = rng.uniform(2.0, 4.0)
        fn = lambda t, b=base, al=alpha, be=beta: b + al * math.sin(be * t)  # noqa: E731
        dfn = lambda t, al=alpha, be=beta: al * be * math.cos(be * t)  # noqa: E731
        return fn, dfn

    pf, pd, wf, wd = [], [], [], []
    for i in range(M):
        fn, dfn = make_pair(row[i])
        pf.append(fn)
        pd.append(dfn)
        w0 = complex(rng.uniform(0.4, 0.9), rng.uniform(-0.2, 0.2))
        fn, dfn = make_pair(w0)
        wf.append(fn)
        wd.append(dfn)
    return FreeData(tuple(pf), tuple(pd), tuple(wf), tuple(wd), tuple(row[M:]))


@dataclass
class ReductionResult:
    M: int
    steps: int
    h: float
    grid_v1: np.ndarray  # v_1 over the grid
    residual: float  # max |FD mixed derivative - Q w_i w_j|
    blow_up: bool
    blow_up_at: tuple | None


def _derivative(st: _State, flows: list[tuple], i: int) -> _State:
    """d_i of every state of a march batch: the flow of (p, v, w) and, for
    j != i, d_i y_j = d_j (A(p_i, p_j) w_i) and d_i z_j = d_j (Q(p_i, p_j) w_i w_j)
    by the mixed rule, which reads the rows along i.  d_i y_i and d_i z_i
    have no equation: 0."""
    fi = flows[i]
    yz = np.zeros((2, st.M, st.X.shape[1]), dtype=complex)
    for j in range(st.M):
        if j != i:
            yz[0, j] = _mixed(st, flows[j], fi, i, "p", j)
            yz[1, j] = _mixed(st, flows[j], fi, i, "w", j)
    return _State(np.concatenate((fi[0].X, yz.reshape(2 * st.M, -1))), st.M, st.m)


def _heun(sys: GTSystem, st: _State, flows: list[tuple], src: np.ndarray, h: np.ndarray,
          cuts: Sequence[int]) -> _State:
    """Every predictor-corrector step leaving a batch at once, in step order:
    step t from state src[t] by h[t], along direction i for t in
    [cuts[i], cuts[i + 1]).  ``flows`` are the batch's.  The predictor
    states of all steps are one batch, asked for its flows in one ``_flows``
    call.  y_i and z_i, which have no direction-i equation, are carried over
    unchanged and must be fixed up by the caller."""
    spans = [(i, slice(a, b)) for i, (a, b) in enumerate(zip(cuts, cuts[1:])) if b > a]
    base = st.take(src)
    k1 = _State.join([_derivative(st, flows, i).take(src[span]) for i, span in spans])
    pred = base.step(h, k1)
    flows = _flows(sys, pred)
    k2 = _State.join([_derivative(pred, flows, i).take(span) for i, span in spans])
    return base.step(h / 2, k1.step(1.0, k2))  # h along the mean of k1 and k2


@functools.lru_cache(maxsize=8)
def _plan(M: int, steps: tuple[int, ...]) -> tuple[tuple, ...]:
    """The levels of a march on grids of ``steps`` steps each, from the
    origins up, each (record, src, grid_of, cuts, targets, main, on_axis,
    transport); the states of a level, on every grid, are one batch.
    ``record`` holds, per grid with states on the level, (g, their places in
    the batch, their grid indices as an index tuple).  The steps leaving the
    level go from src[t] on grid grid_of[t], along i for t in
    [cuts[i], cuts[i + 1]).  Target t, targets[t] = (g, index) on the next
    level, is step main[t] advanced, then fixed up: ``on_axis`` holds
    (t, g, axis, n) for a target n steps out on a data axis, and
    ``transport`` (axis, targets, their main steps, their transverse steps)
    for the targets off the axes.  A target's main step goes along its first
    nonzero axis and, off the data axes, its transverse step along the
    next."""
    levels = []
    for n in steps:
        levels.append([[] for _ in range(M * n + 1)])
        for idx in product(range(n + 1), repeat=M):  # each level in lexicographic order
            levels[-1][sum(idx)].append(idx)
    keys, plan = [(g, (0,) * M) for g in range(len(steps))], []
    for k in range(max(len(lv) for lv in levels)):
        pos = {key: t for t, key in enumerate(keys)}
        targets = [(g, idx) for g, lv in enumerate(levels) if k + 1 < len(lv) for idx in lv[k + 1]]
        legs = sorted(((axis, pos[g, tuple(x - (t == axis) for t, x in enumerate(idx))], g, t, leg)
                       for t, (g, idx) in enumerate(targets)
                       for leg, axis in enumerate([a for a in range(M) if idx[a] > 0][:2])),
                      key=lambda step: step[0])
        main, trans = np.zeros(len(targets), int), {}
        for n, (*_, t, leg) in enumerate(legs):
            if leg:
                trans[t] = n
            else:
                main[t] = n
        record = []
        for g in dict.fromkeys(g for g, _ in keys):
            here = np.array([t for t, (gt, _) in enumerate(keys) if gt == g])
            record.append((g, here, tuple(np.array([keys[t][1] for t in here]).T)))
        transport = []
        for axis in range(M):
            ts = [t for t in trans if legs[main[t]][0] == axis]
            if ts:
                transport.append((axis, np.array(ts), main[ts], np.array([trans[t] for t in ts])))
        plan.append((
            tuple(record), np.array([step[1] for step in legs], int),
            np.array([step[2] for step in legs], int),
            np.searchsorted([step[0] for step in legs], range(M + 1)).tolist(), tuple(targets),
            main, tuple((t, g, legs[main[t]][0], idx[legs[main[t]][0]])
                        for t, (g, idx) in enumerate(targets) if t not in trans),
            tuple(transport)))
        keys = targets
    return tuple(plan)


def _march(sys: GTSystem, M: int, grids: Sequence[tuple[int, float]],
           data: FreeData) -> list[ReductionResult]:
    """March the reduction from the free data on every grid (steps, h) of
    ``grids`` together, level by level (``_plan``): the states of one level
    on every grid are one batch, whose flows serve every step that leaves
    it, and the predictors of those steps are one batch; so each g_k is
    asked once per level and Heun stage, and f once there.
    A grid's blow-up is at its first blown-up state in lexicographic
    order."""
    if M not in (2, 3):
        raise ConfigError("grid integration supports M = 2 or 3")
    if any(steps < 2 for steps, _ in grids):
        raise ConfigError("need at least 2 steps for an interior defect cell")
    hs = np.array([h for _, h in grids], float)
    v1 = [np.zeros((steps + 1,) * M, dtype=complex) for steps, _ in grids]
    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    qww = [{ij: np.zeros_like(grid) for ij in pairs} for grid in v1]  # Q w_i w_j along i
    blown = [[] for _ in grids]

    origin = [*(fn(0.0) for fn in data.p_funcs), *data.v0, *(fn(0.0) for fn in data.w_funcs),
              *(fn(0.0) for fn in data.p_derivs), *(fn(0.0) for fn in data.w_derivs)]
    st = _State(np.array(origin, dtype=complex)[:, None].repeat(len(grids), axis=1),
                M, len(data.v0))
    with np.errstate(all="ignore"):  # a non-finite field is a blow-up, flagged below
        for (record, src, grid_of, cuts, targets, main, on_axis,
             transport) in _plan(M, tuple(steps for steps, _ in grids)):
            flows = _flows(sys, st)
            for g, here, where in record:
                v1[g][where] = st.v[0][here]
                for i, j in pairs:
                    qww[g][i, j][where] = flows[i][0].w[j][here]  # d_i w_j = Q w_i w_j
            if not targets:
                break
            done = _heun(sys, st, flows, src, hs[grid_of], cuts)
            new = done.take(main)
            for t, g, axis, n in on_axis:  # p, w and their slopes on a data axis are data
                time = n * grids[g][1]
                new.p[axis][t] = data.p_funcs[axis](time)
                new.w[axis][t] = data.w_funcs[axis](time)
                new.y[axis][t] = data.p_derivs[axis](time)
                new.z[axis][t] = data.w_derivs[axis](time)
            # off the axes, transport the own-direction slopes from the
            # transverse step, then integrate p_axis, w_axis by the trapezoid
            # rule so their update stays second order (the main step only
            # sees the stale slope at its source)
            for axis, ts, mains, trans in transport:
                prev, h = src[mains], hs[grid_of[mains]]
                new.y[axis][ts], new.z[axis][ts] = done.y[axis][trans], done.z[axis][trans]
                new.p[axis][ts] = st.p[axis][prev] + 0.5 * h * (st.y[axis][prev] + new.y[axis][ts])
                new.w[axis][ts] = st.w[axis][prev] + 0.5 * h * (st.z[axis][prev] + new.z[axis][ts])
            far = ~(np.abs(new.X[:2 * M + new.m]) <= 1e6).all(axis=0)  # p, v and w
            for t in np.flatnonzero(far):  # a NaN field is a blow-up too
                blown[targets[t][0]].append(targets[t][1])
            st = new
    return [ReductionResult(M=M, steps=steps, h=h, grid_v1=v1[g],
                            residual=_defect(v1[g], qww[g], steps, h),
                            blow_up=bool(blown[g]), blow_up_at=min(blown[g], default=None))
            for g, (steps, h) in enumerate(grids)]


def _defect(v1: np.ndarray, qww: dict, steps: int, h: float) -> float:
    """The compatibility defect on each (i, j) cell face: the finite-
    difference mixed derivative of v_1 against Q w_i w_j averaged over the
    cell corners.  Cells touching the data axes mix prescribed and evolved
    corners and carry an error boundary layer, so the a-posteriori measure
    runs over cells whose corners are all interior."""
    defects = []
    for (i, j), q in qww.items():
        def corner(di, dj):
            shift = [di * (t == i) + dj * (t == j) for t in range(v1.ndim)]
            return tuple(slice(1 + x, steps + x) for x in shift)

        c00, c10, c01, c11 = corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)
        fd = (v1[c11] - v1[c10] - v1[c01] + v1[c00]) / (h * h)
        rhs = q[c00] + q[c10] + q[c01] + q[c11]
        defects.append(np.abs(fd - rhs / 4.0).ravel())
    return worst_residual(np.concatenate(defects))


def integrate_reduction(
    sys: GTSystem,
    M: int = 2,
    steps: int = 8,
    h: float = 0.02,
    data: FreeData | None = None,
    seed: int = 23,
) -> ReductionResult:
    """March the reduction over a tensor grid [0, steps*h]^M with a
    second-order predictor-corrector and report the compatibility defect
    of the computed solution.

    The 2M free functions live on the coordinate axes: on axis i the
    fields p_i, w_i (and their slopes y_i, z_i) are read off the free
    data.  Off the axes every field evolves by the system; the slopes
    y_i, z_i, which have no own-direction equation, are transported from
    a transverse neighbor.

    The defect compares the finite-difference mixed derivative of v_1 on
    each grid cell with Q w_i w_j averaged over the cell corners; both are
    O(h^2)-accurate, so halving h must cut the defect by about four.
    """
    if data is None:
        data = default_free_data(sys, M, seed)
    return _march(sys, M, [(steps, h)], data)[0]


def convergence_ratio(sys: GTSystem, M: int = 2, steps: int = 8, h: float = 0.02,
                      seed: int = 23) -> tuple[float, ReductionResult, ReductionResult]:
    """Defect ratio between step h and h/2 over the same physical domain,
    the two grids marched together."""
    data = default_free_data(sys, M, seed)
    coarse, fine = _march(sys, M, [(steps, h), (2 * steps, h / 2.0)], data)
    if fine.residual == 0:
        raise NonConvergence("zero fine-grid residual; ratio undefined")
    return coarse.residual / fine.residual, coarse, fine
