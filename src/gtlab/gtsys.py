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

``GTSystem.fiber`` asks each g_k once at a point and gives the B_l and
their first-partial rows there; ``GTSystem.pair`` reads the jets ``fiber``
gave at two points and gives A and Q at the pair, each with its
first-partial rows when asked.  Both checks below rest on one first-order
flow: d_i of every field of a state (p, v, w), together with the A, Q and
B_l values it used and, where a mixed derivative along i needs them, their
rows; it reads g from the state's jet table, ``fiber`` at each point,
and both are memoised on the state, the flow once per direction.  One
mixed-derivative rule takes d_a d_b of a field by the chain rule through
the rows of the flow along b.
``compatibility_residual`` compares d_i d_j with d_j d_i for every field
that evolves in both directions.  ``integrate_reduction`` marches the
system on a tensor grid, its state extended by the own-direction slopes
y_j = d_j p_j and z_j = d_j w_j, which evolve along i != j by the same rule
(d_i y_j = d_j (A(p_i, p_j) w_i), d_i z_j = d_j (Q(p_i, p_j) w_i w_j)); it
confirms the second-order accuracy of the scheme by step halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import GTStructure, VerificationReport, _jet, _make_report, worst_residual
from .errors import ConfigError, DomainViolation, NonConvergence
from .kernel import JetEvaluator, SplitMix64, multi_index

G1_FLOOR = 1e-8  # |g_1| below this counts as a zero of g_1


@dataclass
class GTSystem:
    """Coefficient functions of the quasilinear system.

    ``fiber(args)`` at (p, v) gives (jets, B, B_rows): jets[k] is g_k
    followed by its first partials, and for g_1 (k = 0) by its second
    partials too; B[l] = B_l(p, v) and B_rows[l] its first-partial row in
    slot order, both None at l = 0 (B_1 = 1).  ``pair(jets_1, jets_2,
    args, rows)`` gives (A, Q, A_row, Q_row) at (p_1, p_2, v) from the jets
    ``fiber`` gave at (p_1, v) and (p_2, v); the rows are None unless
    ``rows`` is set.
    """

    structure: GTStructure
    fiber: Callable[[Sequence[complex]], tuple]
    pair: Callable[[list, list, Sequence[complex], bool], tuple]

    @property
    def m(self) -> int:
        return self.structure.m


def build_system(s: GTStructure) -> GTSystem:
    """Convert a structure into its quasilinear system.

    ``fiber`` asks each g_k once at (p, v), in one ``partials`` call, for
    its value and first partials, and g_1 for its second partials too:
    every point is some pair's p_2.  ``pair`` reads g at both points from
    those jets and asks only f: for F and d_{p_2} f or, with ``rows``,
    every first partial and d_{p_2} d_k f too, the same expressions giving
    the same A and Q bit for bit.  It computes the terms A and Q share (F,
    F_2, G_1, G_2, N) once and, with ``rows``, every first partial of both
    by the chain rule.  So f's second partials come from f's own
    ``partial_fn`` where it has them (every catalog f, genus2's included),
    and an f or g without closed forms opens its circles on its own domain,
    where no circle approaches a zero of g_1.  ``fiber`` raises
    ``DomainViolation`` at a |g_1| below ``G1_FLOOR``.
    """
    if s.m < 1:
        raise ConfigError("need at least one fiber coordinate")
    m = s.m
    g1 = s.g[0]
    # reject an identically-zero g_1 up front
    probe_ps, probe_v = s.sample(1, 99, 1)[0]
    if abs(g1.value((probe_ps[0], *probe_v))) < G1_FLOOR:
        raise ConfigError("g_1 vanishes at a generic point")

    f_jet = _jet(2 + m, *range(2 + m))  # a value and every first partial
    f_val = _jet(2 + m, 1)  # f and d_{p_2} f
    g_jet = _jet(1 + m, *range(1 + m))
    f_mixed = [multi_index(2 + m, 1, k) for k in range(2 + m)]  # d_1 d_k f
    g_pairs = [(a, b) for a in range(1 + m) for b in range(a, 1 + m)]
    g1_jet = g_jet + [multi_index(1 + m, a, b) for a, b in g_pairs]  # and every second partial

    def fiber(args):
        """(jets, B, B_rows) at (p, v); see ``GTSystem``."""
        jets = [g1.partials(args, g1_jet), *(gk.partials(args, g_jet) for gk in s.g[1:])]
        G, dG = jets[0][0], jets[0][1:]
        if abs(G) < G1_FLOOR:  # a zero of g_1
            raise DomainViolation(f"g_1({args[0]}) = {G} below floor {G1_FLOOR}")
        B = [None] + [jet[0] / G for jet in jets[1:]]
        B_rows = [None] + [[dgl[k] / G - gl * dG[k] / G**2 for k in range(1 + m)]
                           for gl, *dgl in jets[1:]]
        return jets, B, B_rows

    def pair(jets_1, jets_2, args, rows):
        """(A, Q, A_row, Q_row) at (p_1, p_2, v); see ``GTSystem``."""
        # g_k at p1 and g_1 at p2 with their partials: dg[k][j] = d_j g_k(p1)
        gv, dg = [jet[0] for jet in jets_1], [jet[1:] for jet in jets_1]
        G1 = gv[0]
        G2, *dG2 = jets_2[0]
        if rows:
            F, *dfs = s.f.partials(args, f_jet + f_mixed)
            df, d1f = dfs[:2 + m], dfs[2 + m:]
            F_2 = df[1]
        else:
            F, F_2 = s.f.partials(args, f_val)
        N = F * dG2[0]
        for k in range(m):
            N += gv[k] * dG2[1 + k]
        A, Q = F / G1, 2.0 * F_2 / G1 + N / (G1 * G2)
        if not rows:
            return A, Q, None, None
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
        out = base.partials(args, multis)
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
    """One jet of a solution: points p_1..p_M, fiber point v, slopes
    w_i = d_i v_1 and, for a reduction march, the own-direction slopes
    y_i = d_i p_i and z_i = d_i w_i.  A state of derivatives has the same
    fields, None where a field has no equation along the direction.
    ``fibers`` is its jet table, ``fiber`` at every (p_k, v), and ``flows``
    memoises ``_flow`` per direction; both fill on first use, and a state
    is not changed once a flow has read it."""

    def __init__(self, p, v, w, y=None, z=None):
        self.p, self.v, self.w, self.y, self.z = p, v, w, y, z
        self.fibers, self.flows = None, {}

    def step(self, h, d):
        """This state advanced by h along the derivative state d; a field
        that d leaves as None keeps its value."""

        def advance(xs, ds):
            return [x if dx is None else x + h * dx for x, dx in zip(xs, ds)]

        return _State(advance(self.p, d.p), advance(self.v, d.v), advance(self.w, d.w),
                      advance(self.y, d.y), advance(self.z, d.z))


def _flow(sys: GTSystem, st: _State, i: int, rows: bool = False):
    """d_i of p, v and w by the system, with the coefficients it used:
    (d, A, Q, B, A_rows, Q_rows, B_rows) where A[k] = A(p_i, p_k, v) and
    Q[k] likewise (None at k = i), B[l] = B_l(p_i, v) (None at l = 0), and
    A_rows[k], Q_rows[k] and B_rows[l] are the first-partial rows of A[k],
    Q[k] and B[l], A_rows and Q_rows None unless ``rows``.  It reads g
    from the state's jet table.  d_i p_i and d_i w_i are the state's own
    slopes y_i and z_i, None without them.  The flow is memoised on the
    state: once per direction, and once more, asking f again, if rows are
    asked after values."""
    memo = st.flows.get(i)
    if memo is not None and (memo[4] is not None or not rows):
        return memo
    p, v, w = st.p, st.v, st.w
    M = len(p)
    if st.fibers is None:
        st.fibers = [sys.fiber((pk, *v)) for pk in p]
    jets, B, B_rows = st.fibers[i]
    A, Q = [None] * M, [None] * M
    A_rows, Q_rows = ([None] * M, [None] * M) if rows else (None, None)
    dp, dw = [None] * M, [None] * M
    for k in range(M):
        if k != i:
            A[k], Q[k], *jet = sys.pair(jets, st.fibers[k][0], (p[i], p[k], *v), rows)
            if rows:
                A_rows[k], Q_rows[k] = jet
            dp[k] = A[k] * w[i]
            dw[k] = Q[k] * w[i] * w[k]
    if st.y is not None:
        dp[i], dw[i] = st.y[i], st.z[i]
    dv = [w[i] if b is None else b * w[i] for b in B]
    st.flows[i] = _State(dp, dv, dw), A, Q, B, A_rows, Q_rows, B_rows
    return st.flows[i]


def _chain(row, da: _State, points) -> complex:
    """d_a of a coefficient through its first-partial row: the point slots
    (p_t for t in ``points``) first, then the fiber slots."""
    n = len(points)
    return (sum(row[s] * da.p[t] for s, t in enumerate(points))
            + sum(row[n + l] * dv for l, dv in enumerate(da.v)))


def _mixed(st: _State, fa, fb, b: int, kind: str, k: int) -> complex:
    """d_a d_b of the field p_k, v_k or w_k (``kind`` "p", "v" or "w"),
    from the flows ``fa`` along a and ``fb`` along b.

    d_b of the field is A(p_b, p_k) w_b, B_k(p_b) w_b (w_b for v_1)
    or Q(p_b, p_k) w_b w_k, with the coefficient value and its row read
    off ``fb`` (a flow with rows); the chain and product rules take d_a of
    its factors from ``fa``."""
    da, (_, A, Q, B, A_rows, Q_rows, B_rows) = fa[0], fb
    w = st.w
    if kind == "v":
        if k == 0:
            return da.w[b]
        return _chain(B_rows[k], da, (b,)) * w[b] + B[k] * da.w[b]
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
    for every field F that evolves in both directions."""
    if M < 3:
        raise ConfigError("mixed-derivative compatibility needs M >= 3")
    s = sys.structure
    rng = SplitMix64(seed)
    residuals = []
    raw = s.sample(states, seed, M)
    for ps, v in raw:
        w = [complex(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5)) for _ in range(M)]
        st = _State(ps, v, w)
        flows = [_flow(sys, st, i, rows=True) for i in range(M)]
        diffs = []
        for i in range(M):
            for j in range(i + 1, M):
                others = [k for k in range(M) if k not in (i, j)]
                fields = ([("p", k) for k in others] + [("v", l) for l in range(sys.m)]
                          + [("w", k) for k in others])
                for kind, k in fields:
                    d_ij = _mixed(st, flows[i], flows[j], j, kind, k)
                    d_ji = _mixed(st, flows[j], flows[i], i, kind, k)
                    diffs.append(abs(d_ij - d_ji))
        residuals.append(worst_residual(diffs))
    return _make_report("gt_compatibility", residuals, tol, seed, M=M)


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
    ps, v = s.sample(1, seed, M)[0]
    rng = SplitMix64(seed + 1)

    def make_pair(base):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05
        beta = rng.uniform(2.0, 4.0)
        fn = lambda t, b=base, al=alpha, be=beta: b + al * math.sin(be * t)  # noqa: E731
        dfn = lambda t, al=alpha, be=beta: al * be * math.cos(be * t)  # noqa: E731
        return fn, dfn

    pf, pd, wf, wd = [], [], [], []
    for i in range(M):
        fn, dfn = make_pair(ps[i])
        pf.append(fn)
        pd.append(dfn)
        w0 = complex(rng.uniform(0.4, 0.9), rng.uniform(-0.2, 0.2))
        fn, dfn = make_pair(w0)
        wf.append(fn)
        wd.append(dfn)
    return FreeData(tuple(pf), tuple(pd), tuple(wf), tuple(wd), tuple(v))


@dataclass
class ReductionResult:
    M: int
    steps: int
    h: float
    grid_v1: np.ndarray  # v_1 over the grid
    residual: float  # max |FD mixed derivative - Q w_i w_j|
    blow_up: bool
    blow_up_at: tuple | None


def _derivative(sys: GTSystem, st: _State, i: int) -> _State:
    """d_i of the march state: the flow of (p, v, w) and, for j != i,
    d_i y_j = d_j (A(p_i, p_j) w_i) and d_i z_j = d_j (Q(p_i, p_j) w_i w_j)
    by the mixed rule, which needs rows along i only.  d_i y_i and d_i z_i
    have no equation: None."""
    fi = _flow(sys, st, i, rows=True)
    y, z = [None] * len(st.p), [None] * len(st.p)
    for j in range(len(st.p)):
        if j != i:
            fj = _flow(sys, st, j)
            y[j] = _mixed(st, fj, fi, i, "p", j)
            z[j] = _mixed(st, fj, fi, i, "w", j)
    return _State(fi[0].p, fi[0].v, fi[0].w, y, z)  # the memo's state stays as it was


def _heun_step(sys: GTSystem, st: _State, i: int, h: float) -> _State:
    """One predictor-corrector step along direction i; y_i and z_i, which
    have no direction-i equation, are carried over unchanged and must be
    fixed up by the caller."""
    k1 = _derivative(sys, st, i)
    k2 = _derivative(sys, st.step(h, k1), i)
    return st.step(h / 2, k1.step(1.0, k2))  # h along the mean of k1 and k2


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
    if M not in (2, 3):
        raise ConfigError("grid integration supports M = 2 or 3")
    if steps < 2:
        raise ConfigError("need at least 2 steps for an interior defect cell")
    if data is None:
        data = default_free_data(sys, M, seed)
    n = steps + 1
    shape = (n,) * M
    states: dict[tuple, _State] = {}
    states[(0,) * M] = _State(
        [data.p_funcs[i](0.0) for i in range(M)],
        list(data.v0),
        [data.w_funcs[i](0.0) for i in range(M)],
        [data.p_derivs[i](0.0) for i in range(M)],
        [data.w_derivs[i](0.0) for i in range(M)],
    )
    blow_up = False
    blow_up_at = None
    for idx in sorted(product(range(n), repeat=M)):
        if idx == (0,) * M:
            continue
        axis = min(i for i in range(M) if idx[i] > 0)
        prev = tuple(idx[i] - (1 if i == axis else 0) for i in range(M))
        st = _heun_step(sys, states[prev], axis, h)
        on_axis = all(idx[i] == 0 for i in range(M) if i != axis)
        if on_axis:
            t = idx[axis] * h
            st.p[axis] = data.p_funcs[axis](t)
            st.w[axis] = data.w_funcs[axis](t)
            st.y[axis] = data.p_derivs[axis](t)
            st.z[axis] = data.w_derivs[axis](t)
        else:
            # transport the own-direction slopes from a transverse neighbor,
            # then integrate p_axis, w_axis by the trapezoid rule so their
            # update stays second order (the main step only sees the stale
            # slope at prev)
            taxis = next(i for i in range(M) if i != axis and idx[i] > 0)
            tprev = tuple(idx[i] - (1 if i == taxis else 0) for i in range(M))
            tst = _heun_step(sys, states[tprev], taxis, h)
            st.y[axis] = tst.y[axis]
            st.z[axis] = tst.z[axis]
            pv = states[prev]
            st.p[axis] = pv.p[axis] + 0.5 * h * (pv.y[axis] + st.y[axis])
            st.w[axis] = pv.w[axis] + 0.5 * h * (pv.z[axis] + st.z[axis])
        states[idx] = st
        mags = [abs(x) for x in st.p + st.v + st.w]  # a NaN field is a blow-up too
        if not blow_up and not all(math.isfinite(a) and a <= 1e6 for a in mags):
            blow_up = True
            blow_up_at = idx
    grid_v1 = np.zeros(shape, dtype=complex)
    for idx, st in states.items():
        grid_v1[idx] = st.v[0]
    # compatibility defect on each (i, j) cell face; cells touching the
    # data axes mix prescribed and evolved corners and carry an error
    # boundary layer, so the a-posteriori measure runs over cells whose
    # corners are all interior
    defects = []
    for i in range(M):
        for j in range(i + 1, M):
            for idx in product(range(1, steps), repeat=M):
                c00 = idx
                c10 = tuple(x + (1 if k == i else 0) for k, x in enumerate(idx))
                c01 = tuple(x + (1 if k == j else 0) for k, x in enumerate(idx))
                c11 = tuple(
                    x + (1 if k in (i, j) else 0) for k, x in enumerate(idx)
                )
                fd = (
                    grid_v1[c11] - grid_v1[c10] - grid_v1[c01] + grid_v1[c00]
                ) / (h * h)
                rhs = 0.0 + 0.0j
                for corner in (c00, c10, c01, c11):
                    st = states[corner]  # Q(p_i, p_j, v) from its flow along i
                    rhs += _flow(sys, st, i)[2][j] * st.w[i] * st.w[j]
                defects.append(abs(fd - rhs / 4.0))
    return ReductionResult(
        M=M,
        steps=steps,
        h=h,
        grid_v1=grid_v1,
        residual=worst_residual(defects),
        blow_up=blow_up,
        blow_up_at=blow_up_at,
    )


def convergence_ratio(sys: GTSystem, M: int = 2, steps: int = 8, h: float = 0.02,
                      seed: int = 23) -> tuple[float, ReductionResult, ReductionResult]:
    """Defect ratio between step h and h/2 over the same physical domain."""
    data = default_free_data(sys, M, seed)
    coarse = integrate_reduction(sys, M, steps, h, data=data, seed=seed)
    fine = integrate_reduction(sys, M, 2 * steps, h / 2.0, data=data, seed=seed)
    if fine.residual == 0:
        raise NonConvergence("zero fine-grid residual; ratio undefined")
    return coarse.residual / fine.residual, coarse, fine
