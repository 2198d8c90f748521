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
columns, and gives their jets and the B_l there (``_b_rows`` reads the
B_l's first-partial rows off the jets), and f's jet at the pairs of points
it is given, all in one ``kernel.jets`` call; ``GTSystem.pair`` reads the
jets ``fiber`` gave at two points (or two columns of points) and gives A
and Q at the pairs, each with its first-partial row.  Both checks below
run on batches: an array with one row per field and a column per state,
and ``_flows`` gives one stacked record of d_i of every field (p, v, w) of
every state along every direction i, the A and Q of every ordered pair of
points of every state with their rows, the B_l and the g jets, from one
``fiber`` and one ``pair`` call.  One stacked mixed-derivative pass
(``_second``) takes d_a d_b of a field by the chain rule through the rows
of the flow along b, for every (a, b, field, state) asked at once.
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
one batch, and so are the predictor states of every step leaving it, and a
Heun stage is a fixed number of array operations over its batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from .core import GTStructure, VerificationReport, _jet, _make_report, worst_residual
from .errors import ConfigError, DomainViolation, GTLabError, NonConvergence
from .kernel import JetEvaluator, SplitMix64, jets, multi_index, on_columns

G1_FLOOR = 1e-8  # |g_1| below this counts as a zero of g_1


@dataclass
class GTSystem:
    """Coefficient functions of the quasilinear system.

    ``fiber(args, pairs)`` at (p, v), a point or a tuple of argument
    columns, gives (jets, B, table): jets[k] is g_k followed by its first
    partials, and for g_1 (k = 0) by its second partials too, a row per
    entry on columns; B[l] = B_l(p, v), None at l = 0 (B_1 = 1), whose
    first-partial rows ``_b_rows`` reads off the jets; and ``table`` is f's
    at the pair arguments ``pairs``.  ``pair(jets_1,
    jets_2, table)`` gives (A, Q, A_row, Q_row) at (p_1, p_2, v), A and Q
    with their first-partial rows in slot order, from the jets ``fiber``
    gave at (p_1, v) and (p_2, v), of which it reads g_1's alone at p_2,
    and from f's ``table`` there.
    """

    structure: GTStructure
    fiber: Callable[[Sequence[complex], Sequence[complex]], tuple]
    pair: Callable[[list, list, Sequence[complex]], tuple]

    @property
    def m(self) -> int:
        return self.structure.m


def build_system(s: GTStructure) -> GTSystem:
    """Convert a structure into its quasilinear system.

    ``fiber`` asks each g_k once at (p, v) for its value and first
    partials, and g_1 for its second partials too: every point is some
    pair's p_2.  It asks f at the pairs in the same ``kernel.jets``
    call, for its value, every first partial and every d_{p_2} d_k f, so
    that an f and g's placed from one batch kernel (genus1's theta) sum
    one series; an error of a g, and then the floor below, comes before
    any error of f.  ``pair`` reads g at both points from those jets and f
    from that table, and asks nothing.  It computes the terms A and Q
    share (F, F_2, G_1, G_2, N) once and every first partial of both by
    the chain rule.
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

    def fiber(args, pairs):
        """(jets, B, table) at (p, v) and ``pairs``; see ``GTSystem``."""
        asks = [(g1, args, g1_jet), *((gk, args, g_jet) for gk in s.g[1:])]
        try:
            tables, err = jets(asks + [(s.f, pairs, f_jet + f_mixed)]), None
        except (GTLabError, ArithmeticError) as exc:  # the first error of a request alone
            tables, err = jets(asks), exc  # an error of a g, then the floor below, comes first
        G = tables[0][0]
        low = np.abs(G) < G1_FLOOR  # a zero of g_1
        if low.any():
            at = np.flatnonzero(low)[0]
            where = f" (point {at} of {low.size})" if on_columns(args) else ""
            raise DomainViolation(f"g_1({complex(np.ravel(args[0])[at])}) = "
                                  f"{complex(np.ravel(G)[at])} below floor {G1_FLOOR}{where}")
        if err is not None:
            raise err
        return tables[:m], [None] + [jet[0] / G for jet in tables[1:m]], tables[m]

    def pair(jets_1, jets_2, table):
        """(A, Q, A_row, Q_row) at (p_1, p_2, v); see ``GTSystem``."""
        # g_k at p1 and g_1 at p2 with their partials: dg[k][j] = d_j g_k(p1)
        gv, dg = [jet[0] for jet in jets_1], [jet[1:] for jet in jets_1]
        G1 = gv[0]
        G2, *dG2 = jets_2[0]
        F, *dfs = table
        df, d1f = dfs[:2 + m], dfs[2 + m:]
        N = F * dG2[0]
        for k in range(m):
            N += gv[k] * dG2[1 + k]
        G11, G12, F2 = G1**2, G1 * G2, 2.0 * df[1]  # each computed once, read as written
        A, Q = F / G1, F2 / G1 + N / G12
        dG1 = dg[0][0]
        A_row = [df[0] / G1 - F * dG1 / G11, df[1] / G1,
                 *(df[2 + l] / G1 - F * dg[0][1 + l] / G11 for l in range(m))]
        H = {}  # second partials of g_1 at p2
        for (a, b), val in zip(g_pairs, dG2[1 + m:]):
            H[a, b] = H[b, a] = val
        dN = df[0] * dG2[0]
        for k in range(m):
            dN += dg[k][0] * dG2[1 + k]
        Q_row = [2.0 * d1f[0] / G1 - F2 * dG1 / G11 + dN / G12 - N * dG1 / (G11 * G2)]
        dN = df[1] * dG2[0] + F * H[0, 0]
        for k in range(m):
            dN += gv[k] * H[0, 1 + k]
        Q_row.append(2.0 * d1f[1] / G1 + dN / G12 - N * dG2[0] / (G1 * G2**2))
        for l in range(m):
            dG1 = dg[0][1 + l]
            dN = df[2 + l] * dG2[0] + F * H[0, 1 + l]
            for k in range(m):
                dN += dg[k][1 + l] * dG2[1 + k]
                dN += gv[k] * H[1 + k, 1 + l]
            Q_row.append(2.0 * d1f[2 + l] / G1 - F2 * dG1 / G11 + dN / G12
                         - N * (dG1 * G2 + G1 * dG2[1 + l]) / G12**2)
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


@functools.lru_cache(maxsize=None)
def _pairs(M: int, m: int) -> tuple:
    """The ordered pairs (i, k), i != k, of M points in i-major order, as
    columns I and K and as at[i, k], the place of (i, k) among them (-1 at
    i = k); and the place of d_i of row r at [r, i] among the rows
    ``_flows`` stacks."""
    own, i = np.eye(M, dtype=bool), np.arange(M)
    I, K = np.nonzero(~own)
    P, at = len(I), np.full((M, M), -1)
    at[I, K] = np.arange(P)
    return I, K, at, np.concatenate((  # [r, i]: at.T[k, i] is the pair (i, k)
        np.where(own, P + i, at.T), P + M + np.arange(m * M).reshape(m, M),
        np.where(own, 2 * P + M + m * M + i, P + M + m * M + at.T)))


@functools.lru_cache(maxsize=256)  # a batch size recurs across levels, marches and jobs
def _columns(M: int, N: int) -> np.ndarray:
    """For N states of M points, the jet table's columns (point k of state s
    at k N + s) of the two points of the ordered pair n of state s, at
    [0, n N + s] and [1, n N + s], and s at [2, n N + s]."""
    I, K, _, _ = _pairs(M, 0)
    s = np.tile(np.arange(N), len(I))
    return np.array([np.repeat(I, N) * N + s, np.repeat(K, N) * N + s, s])


def _flows(sys: GTSystem, X: np.ndarray, M: int) -> tuple:
    """The flow along every direction of a batch X of states, one row per
    field (p_1..p_M, v_1..v_m, w, y, z: w_i = d_i v_1, y_i = d_i p_i and
    z_i = d_i w_i) and a column per state: (d, c, B, jets, w).

    d[r, i, s] is d_i of row r (p, v, w) of state s: A(p_i, p_k) w_i,
    B_l(p_i) w_i and Q(p_i, p_k) w_i w_k, and y_i and z_i at k = i.
    c[0, 0, n, s] is A at the ordered pair n = (i, k) of state s
    (``_pairs``) and c[0, 1:, n, s] its first-partial row in slot order
    (p_i, p_k, v); c[1] holds Q likewise.  B[l, i, s] is B_l(p_i, v), 1 at
    l = 0; ``jets`` are the g jets ``fiber`` gave, point k of state s in
    column k N + s, which B's rows are read off (``_b_rows``); w the
    states' slopes.  One ``fiber`` call asks each g_k over every point of
    every state and f over every ordered pair of points of every state."""
    m, N = sys.m, X.shape[1]
    I, K, _, rows = _pairs(M, m)
    one, two, s = _columns(M, N)
    p, v, w = X[:M].ravel(), X[M:M + m], X[M + m:2 * M + m]
    pairs = (p[one], p[two], *v[:, s])
    jets, B, F = sys.fiber((p, *v[:, s[:M * N]]), pairs)  # s runs 0..N-1 once per pair
    a, q, a_row, q_row = sys.pair([jet[:, one] for jet in jets], [jets[0][:, two]], F)
    c = np.concatenate((a, *a_row, q, *q_row)).reshape(2, 3 + m, -1, N)
    cw = c[:, 0] * w[I]  # A(p_i, p_k) w_i and Q(p_i, p_k) w_i
    B = np.concatenate((np.ones(M * N), *B[1:])).reshape(m, M, N)
    d = np.concatenate((cw[0], X[2 * M + m:3 * M + m], (B * w).reshape(m * M, N),
                        cw[1] * w[K], X[3 * M + m:]))[rows]
    return d, c, B, jets, w


def _b_rows(jets) -> np.ndarray:
    """The first-partial rows of B_l = g_l / g_1, l >= 1, in slot order, at
    [l - 1, slot], from the values and first partials of g_1 and the g_l:
    ``fiber``'s jets at a point or on columns."""
    n = 2 + len(jets)
    G, dG = jets[0][0], np.asarray(jets[0][1:n])
    g = np.reshape(jets[1:], (len(jets) - 1, n, *np.shape(G)))
    return g[:, 1:] / G - g[:, :1] * dG / G**2


def _second(fl: tuple, a, b, k, s) -> tuple[np.ndarray, np.ndarray]:
    """d_a d_b p_k and d_a d_b w_k (k != b) of state s, over the broadcast of
    the index arrays a, b, k and s.  d_b of the field is A(p_b, p_k) w_b or
    Q(p_b, p_k) w_b w_k (``_flows``); the chain rule takes d_a of the
    coefficient through its row, the point slots summed before the fiber
    slots, and the product rule d_a of the slopes."""
    d, c, B, _, w = fl
    M, m = len(w), len(B)
    coef = c[:, :, _pairs(M, m)[2][b, k], s]  # A and Q, each with its row
    # each sum as one started at 0 and taken term by term, bit for bit:
    # accumulate adds the fiber terms in order, and where it ends at -0 (a
    # sum from 0 ends at +0) the point terms' sum, never -0, absorbs it
    chain = (0 + coef[:, 1] * d[b, a, s] + coef[:, 2] * d[k, a, s]
             + np.add.accumulate(coef[:, 3:] * d[M:M + m, a, s], axis=1)[:, -1])
    w_b, w_k, dw_b, dw_k = w[b, s], w[k, s], d[M + m + b, a, s], d[M + m + k, a, s]
    return (chain[0] * w_b + coef[0, 0] * dw_b,
            chain[1] * w_b * w_k + coef[1, 0] * (dw_b * w_k + w_b * dw_k))


def _second_v(fl: tuple, a, b, s) -> np.ndarray:
    """d_a d_b v_l of state s at [l, ...], over the broadcast of a, b and s:
    d_a w_b at l = 0, else ``_second``'s rule through B_l's row."""
    d, _, B, jets, w = fl
    M, m = len(w), len(B)
    row = _b_rows(jets).reshape(m - 1, 1 + m, *w.shape)[:, :, b, s]
    chain = (0 + row[:, 0] * d[b, a, s]
             + np.add.accumulate(row[:, 1:] * d[M:M + m, a, s], axis=1)[:, -1])
    dw_b = d[M + m + b, a, s]
    return np.concatenate((dw_b[None], chain * w[b, s] + B[1:, b, s] * dw_b))


def compatibility_residual(
    sys: GTSystem,
    M: int = 3,
    states: int = 50,
    seed: int = 17,
    tol: float = 1e-9,
) -> VerificationReport:
    """Max over random states and index pairs of |d_i d_j F - d_j d_i F|
    for every field F that evolves in both directions, the states one
    batch, every d_a d_b of a kind of field from one stacked pass."""
    if M < 3:
        raise ConfigError("mixed-derivative compatibility needs M >= 3")
    s = sys.structure
    rng = SplitMix64(seed)
    raw = s.sample(states, seed, M)
    ws = [complex(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5)) for _ in range(M * len(raw))]
    nan = np.full((len(raw), 2 * M), np.nan)  # no own-direction slopes, and no field reads them
    X = np.hstack([raw, np.reshape(ws, (len(raw), M)), nan]).T.copy()
    pairs, at = list(combinations(range(M), 2)), np.arange(len(raw))
    i, j = np.array(pairs).T[:, :, None]
    i3, j3, k3 = np.array([(*ij, k) for ij in pairs for k in range(M) if k not in ij]).T[:, :, None]
    with np.errstate(all="ignore"):  # a non-finite residual fails the report
        fl = _flows(sys, X, M)
        d_ij = np.concatenate((*_second(fl, i3, j3, k3, at), *_second_v(fl, i, j, at)))
        d_ji = np.concatenate((*_second(fl, j3, i3, k3, at), *_second_v(fl, j, i, at)))
    residuals = np.max(np.abs(d_ij - d_ji), axis=0)  # NaN at a state with any NaN difference
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


def _phase(x: float) -> float:
    """``x``, unless a step so wide overflowed it (math.sin(inf) raises
    ValueError): then an OverflowError that names it."""
    if math.isinf(x):
        raise OverflowError(f"free data phase overflows float64: {x}")
    return x


def default_free_data(sys: GTSystem, M: int, seed: int = 23) -> FreeData:
    """Smooth seeded free data anchored at an admissible sample of the
    structure."""
    s = sys.structure
    row = s.sample(1, seed, M)[0].tolist()  # (p_1..p_M, v)
    rng = SplitMix64(seed + 1)

    def make_pair(base):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05
        beta = rng.uniform(2.0, 4.0)
        fn = lambda t, b=base, al=alpha, be=beta: b + al * math.sin(_phase(be * t))  # noqa: E731
        dfn = lambda t, al=alpha, be=beta: al * be * math.cos(_phase(be * t))  # noqa: E731
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


def _slopes(fl: tuple, dirs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d_i of every row (p, v, w, y, z) of state s[t] along i = dirs[t], a
    column per t: the flow of p, v and w and, for j != i, d_i y_j =
    d_j (A(p_i, p_j) w_i) and d_i z_j = d_j (Q(p_i, p_j) w_i w_j) from one
    ``_second`` pass over every (t, j).  d_i y_i and d_i z_i have no
    equation: 0."""
    d, M = fl[0], len(fl[4])
    t, j = np.nonzero(np.arange(M) != dirs[:, None])
    out = np.zeros((2 * M + len(d), len(s)), dtype=complex)
    out[:len(d)] = d[:, dirs, s]
    out[len(d):].reshape(2, M, -1)[:, j, t] = _second(fl, j, dirs[t], j, s[t])
    return out


def _heun(sys: GTSystem, X: np.ndarray, fl: tuple, src: np.ndarray, dirs: np.ndarray,
          h: np.ndarray) -> np.ndarray:
    """Every predictor-corrector step leaving a batch X at once: step t from
    state src[t] by h[t] along direction dirs[t], ``fl`` the batch's flow.
    The predictor states of all steps are one batch, asked for its flow in
    one ``_flows`` call.  y_i and z_i, which have no direction-i equation,
    are carried over unchanged and must be fixed up by the caller."""
    base, k1 = X[:, src], _slopes(fl, dirs, src)
    pred = base + h * k1
    k2 = _slopes(_flows(sys, pred, len(fl[4])), dirs, np.arange(len(src)))
    return base + h / 2 * (k1 + 1.0 * k2)  # h along the mean of k1 and k2


@functools.lru_cache(maxsize=8)
def _plan(M: int, steps: tuple[int, ...]) -> tuple[tuple, ...]:
    """The levels of a march on grids of ``steps`` steps each, from the
    origins up, each (at, src, grid, dirs, targets, main, on, moved).  A
    level's states, on every grid, are one batch, grid after grid and each
    grid's in lexicographic order; ``at`` holds their places in the grids'
    values (grid after grid, each in C order).  Step t leaves state src[t]
    on grid grid[t] along dirs[t], the steps in order of direction.  Target
    n, targets[n] = (g, index) on the next level, is step main[n] advanced,
    then fixed up along that step's axis: ``on`` = (axis, targets, data)
    for the targets on a data axis, their p, w, y and z the data table's
    columns ``data`` (grid after grid, axis after axis, steps 1..steps);
    ``moved`` = (axis, targets, trans, prev, grid) for the others, their
    own-direction slopes from step ``trans`` and their p and w integrated
    from state ``prev`` of grid ``grid``.  A target's main step goes along
    its first nonzero axis and, off the data axes, its transverse step
    along the next."""
    levels = []
    for n in steps:
        levels.append([[] for _ in range(M * n + 1)])
        for idx in product(range(n + 1), repeat=M):  # each level in lexicographic order
            levels[-1][sum(idx)].append(idx)
    start, first = np.cumsum([0, *((n + 1) ** M for n in steps)]), np.cumsum([0, *steps]) * M
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
        dirs, src, grid = (np.array([step[x] for step in legs], int) for x in range(3))
        on = np.array([t for t in range(len(targets)) if t not in trans], int)
        moved = np.array(list(trans), int)
        plan.append((
            np.array([start[g] + np.ravel_multi_index(idx, (steps[g] + 1,) * M)
                      for g, idx in keys]), src, grid, dirs, tuple(targets), main,
            (dirs[main[on]], on, np.array(
                [first[g] + a * steps[g] + idx[a] - 1
                 for (g, idx), a in zip([targets[t] for t in on], dirs[main[on]])], int)),
            (dirs[main[moved]], moved, np.array([trans[t] for t in moved], int),
             src[main[moved]], grid[main[moved]])))
        keys = targets
    return tuple(plan)


def _march(sys: GTSystem, M: int, grids: Sequence[tuple[int, float]],
           data: FreeData) -> list[ReductionResult]:
    """March the reduction from the free data on every grid (steps, h) of
    ``grids`` together, level by level (``_plan``): the states of one level
    on every grid are one batch, whose flow serves every step that leaves
    it, and the predictors of those steps are one batch; so each g_k is
    asked once per level and Heun stage, and f once there.  A level writes
    v_1 and Q w_i w_j into the grids' values, the data into the targets on
    the axes and the transported slopes into the others, each field with
    one index.  A grid's blow-up is at its first blown-up state in
    lexicographic order."""
    if M not in (2, 3):
        raise ConfigError("grid integration supports M = 2 or 3")
    if any(steps < 2 for steps, _ in grids):
        raise ConfigError("need at least 2 steps for an interior defect cell")
    m, hs = len(data.v0), np.array([h for _, h in grids], float)
    shapes = [(steps + 1,) * M for steps, _ in grids]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    I, J = np.triu_indices(M, 1)
    v1, qww = np.zeros(ends[-1], dtype=complex), np.zeros((len(I), ends[-1]), dtype=complex)
    table = np.array([[fns[axis](n * h) for steps, h in grids for axis in range(M)
                       for n in range(1, steps + 1)]
                      for fns in (data.p_funcs, data.w_funcs, data.p_derivs, data.w_derivs)],
                     dtype=complex)  # the data on the axes, in ``_plan``'s order
    fields = np.array([[0], [M + m], [2 * M + m], [3 * M + m]])  # p, w, y and z along axis 0
    blown = [[] for _ in grids]

    origin = [*(fn(0.0) for fn in data.p_funcs), *data.v0, *(fn(0.0) for fn in data.w_funcs),
              *(fn(0.0) for fn in data.p_derivs), *(fn(0.0) for fn in data.w_derivs)]
    X = np.array(origin, dtype=complex)[:, None].repeat(len(grids), axis=1)
    with np.errstate(all="ignore"):  # a non-finite field is a blow-up, flagged below
        for at, src, grid, dirs, targets, main, on, moved in _plan(
                M, tuple(steps for steps, _ in grids)):
            fl = _flows(sys, X, M)
            v1[at], qww[:, at] = X[M], fl[0][M + m + J, I]  # d_i w_j = Q w_i w_j
            if not targets:
                break
            done = _heun(sys, X, fl, src, dirs, hs[grid])
            new = done[:, main]
            axis, ts, where = on  # p, w and their slopes on a data axis are data
            new[fields + axis, ts] = table[:, where]
            # off the axes, transport the own-direction slopes from the
            # transverse step, then integrate p_axis, w_axis by the trapezoid
            # rule so their update stays second order (the main step only
            # sees the stale slope at its source)
            axis, ts, trans, prev, g = moved
            rows = fields + axis
            new[rows[2:], ts] = done[rows[2:], trans]
            new[rows[:2], ts] = X[rows[:2], prev] + 0.5 * hs[g] * (
                X[rows[2:], prev] + new[rows[2:], ts])
            far = ~(np.abs(new[:2 * M + m]) <= 1e6).all(axis=0)  # p, v and w
            for t in np.flatnonzero(far):  # a NaN field is a blow-up too
                blown[targets[t][0]].append(targets[t][1])
            X = new
    return [ReductionResult(M=M, steps=steps, h=h, grid_v1=grid.reshape(shape),
                            residual=_defect(grid.reshape(shape), q.reshape(-1, *shape), h),
                            blow_up=bool(at), blow_up_at=min(at, default=None))
            for (steps, h), shape, grid, q, at in zip(
                grids, shapes, np.split(v1, ends[:-1]), np.split(qww, ends[:-1], axis=1), blown)]


def _defect(v1: np.ndarray, qww: np.ndarray, h: float) -> float:
    """The compatibility defect on each (i, j) cell face, i < j: the finite-
    difference mixed derivative of v_1 against Q w_i w_j (``qww``, a grid per
    pair) averaged over the cell corners.  Cells touching the data axes mix
    prescribed and evolved corners and carry an error boundary layer, so
    the a-posteriori measure runs over cells whose corners are all
    interior."""
    steps, defects = len(v1) - 1, []
    for i, j, q in zip(*np.triu_indices(v1.ndim, 1), qww):
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
