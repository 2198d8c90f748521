"""Gibbons-Tsarev systems attached to a structure.

The distinguished fiber coordinate v_1 (index ``pivot``) turns a structure
into the quasilinear system

    d_i p_j = A(p_i, p_j, v) d_i v_1             (i != j)
    d_i v_l = B_l(p_i, v)   d_i v_1
    d_i d_j v_1 = Q(p_i, p_j, v) d_i v_1 d_j v_1  (i != j)

with A = f / g_1, B_l = g_l / g_1 and

    Q(p_1, p_2) = 2 f_{p_2}(p_1, p_2) / g_1(p_1)
        + (f(p_1, p_2) g_1'(p_2) + g(p_1)(g_1(p_2))) / (g_1(p_1) g_1(p_2)).

``compatibility_residual`` checks equality of mixed second derivatives of
every field through the exact chain rule; ``integrate_reduction`` marches
the system on a tensor grid and confirms the second-order accuracy of the
scheme by step halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import GTStructure, VerificationReport, _make_report, worst_residual
from .errors import ConfigError, DomainViolation, NonConvergence
from .kernel import Domain, Exclusion, JetEvaluator, SplitMix64

G1_FLOOR = 1e-8  # |g_1| below this counts as a zero of the pivot component


def _remap_domain(domain: Domain, mapping: Sequence[int]) -> Domain:
    try:
        return domain.remap(mapping)
    except NotImplementedError:
        return Domain()


@dataclass
class GTSystem:
    """Coefficient functions of the quasilinear system.

    A and Q have arity 2 + m over (p_1, p_2, v); each B_l has arity 1 + m.
    ``A_row``, ``B_rows[l]`` and ``Q_row`` map a point to the list of every
    first partial of A, B_l and Q there, in slot order.
    """

    structure: GTStructure
    pivot: int
    A: JetEvaluator
    B: tuple[JetEvaluator, ...]
    Q: JetEvaluator
    A_row: Callable[[Sequence[complex]], list[complex]]
    B_rows: tuple[Callable[[Sequence[complex]], list[complex]], ...]
    Q_row: Callable[[Sequence[complex]], list[complex]]

    @property
    def m(self) -> int:
        return self.structure.m


def build_system(
    s: GTStructure,
    pivot: int = 0,
    extra_exclusions: Sequence[Exclusion] = (),
) -> GTSystem:
    """Convert a structure into its quasilinear system.

    ``extra_exclusions`` should carry any known zero locus of the pivot
    component g_1 (its zeros are poles of A, B, Q but are not part of the
    structure's own domain data).  They are expressed in the structure's
    (p, v_1, ..., v_m) slot convention and remapped onto both point slots
    of A and Q.

    Each coefficient has a row function (``A_row``, ``B_rows[l]``,
    ``Q_row``) that returns every first partial at one point and computes
    the terms the slots share (F, G_1, G_2, N and the g_1 partials) once;
    Q's row takes all the mixed partials d_1 d_k f in one ``partials`` call,
    one circle per slot where f has no closed form.  The evaluators'
    ``partial_fn`` read these rows.  Without analytic partials in the
    structure, a row is ``partials`` of the quotient, one circle per slot.
    """
    if s.m < 1:
        raise ConfigError("need at least one fiber coordinate")
    if not 0 <= pivot < s.m:
        raise ConfigError(f"pivot {pivot} out of range for m={s.m}")
    m = s.m
    g1 = s.g[pivot]
    # reject an identically-zero pivot component up front
    probe_ps, probe_v = s.sample(1, 99, 1)[0]
    if abs(g1.value((probe_ps[0], *probe_v))) < G1_FLOOR:
        raise ConfigError("pivot component of g vanishes at a generic point")

    def g1_at(p, v):
        val = g1.value((p, *v))
        if abs(val) < G1_FLOOR:
            raise DomainViolation(f"g_1({p}) = {val} below floor {G1_FLOOR}")
        return val

    # slot maps embedding g-argument lists into (p1, p2, v...) lists
    map_p1 = [0] + list(range(2, 2 + m))
    map_p2 = [1] + list(range(2, 2 + m))
    extra = Domain(tuple(extra_exclusions))
    extra_p1 = _remap_domain(extra, map_p1)
    extra_p2 = _remap_domain(extra, map_p2)

    def _mp(arity, *slots):
        multi = [0] * arity
        for slot in slots:
            multi[slot] += 1
        return multi

    f_units = [_mp(2 + m, k) for k in range(2 + m)]
    g_units = [_mp(1 + m, k) for k in range(1 + m)]
    f_mixed = [_mp(2 + m, 1, k) for k in range(2 + m)]  # d_1 d_k f
    g_pairs = [(a, b) for a in range(1 + m) for b in range(a, 1 + m)]
    g_hess = [_mp(1 + m, a, b) for a, b in g_pairs]

    # analytic first-order partials of the quotients are available exactly
    # when the structure's own evaluators carry them; this keeps the chain
    # rule away from quadrature circles that could stray across zeros of g_1
    have_pf = all(e.partial_fn is not None for e in (s.f, *s.g))

    def quotient(units, fn, row, dom, label):
        """The evaluator and its first-partial row function: the closed-form
        ``row`` when the structure is analytic, else one circle per slot."""
        if not have_pf:
            e = JetEvaluator(len(units), fn, domain=dom, label=label)
            return e, lambda args: e.partials(args, units)

        def pf(args, multi):
            return row(args)[multi.index(1)] if sum(multi) == 1 else NotImplemented

        return JetEvaluator(len(units), fn, domain=dom, partial_fn=pf, label=label), row

    def A_fn(*args):
        p1, p2, v = args[0], args[1], args[2:]
        return s.f.value(args) / g1_at(p1, v)

    def A_row(args):
        p1, v = args[0], args[2:]
        G = g1_at(p1, v)
        F = s.f.value(args)
        df = s.f.partials(args, f_units)
        dG = g1.partials((p1, *v), g_units)
        return [df[0] / G - F * dG[0] / G**2, df[1] / G,
                *(df[2 + l] / G - F * dG[1 + l] / G**2 for l in range(m))]

    A_dom = s.f.domain.merged(_remap_domain(g1.domain, map_p1)).merged(extra_p1)
    A, A_row = quotient(f_units, A_fn, A_row, A_dom, f"{s.label}:A")

    def B_fn(l):
        def fn(*args):
            p, v = args[0], args[1:]
            return s.g[l].value(args) / g1_at(p, v)

        return fn

    def B_row(l):
        def row(args):
            G = g1_at(args[0], args[1:])
            gl = s.g[l].value(args)
            dgl = s.g[l].partials(args, g_units)
            dG = g1.partials(args, g_units)
            return [dgl[k] / G - gl * dG[k] / G**2 for k in range(1 + m)]

        return row

    B, B_rows = [], []
    for l in range(m):
        dom = s.g[l].domain.merged(g1.domain).merged(extra)
        e, row = quotient(g_units, B_fn(l), B_row(l), dom, f"{s.label}:B[{l}]")
        B.append(e)
        B_rows.append(row)

    def Q_fn(*args):
        p1, p2, v = args[0], args[1], args[2:]
        a1, a2 = (p1, *v), (p2, *v)
        g1p1 = g1_at(p1, v)
        g1p2 = g1_at(p2, v)
        dG2 = g1.partials(a2, g_units)
        num = s.f.value(args) * dG2[0]
        for k in range(m):
            num += s.g[k].value(a1) * dG2[1 + k]
        return 2.0 * s.f.partial(args, f_units[1]) / g1p1 + num / (g1p1 * g1p2)

    def Q_row(args):
        p1, p2, v = args[0], args[1], args[2:]
        a1, a2 = (p1, *v), (p2, *v)
        G1, G2 = g1_at(p1, v), g1_at(p2, v)
        F = s.f.value(args)
        gv = [s.g[k].value(a1) for k in range(m)]
        dg = [s.g[k].partials(a1, g_units) for k in range(m)]  # dg[k][j]: d_j g_k(p1)
        dG2 = g1.partials(a2, g_units)
        H = {}  # second partials of g_1 at p2
        for (a, b), val in zip(g_pairs, g1.partials(a2, g_hess)):
            H[a, b] = H[b, a] = val
        N = F * dG2[0]
        for k in range(m):
            N += gv[k] * dG2[1 + k]
        df = s.f.partials(args, f_units)
        d1f = s.f.partials(args, f_mixed)
        dG1 = dg[pivot][0]
        dN = df[0] * dG2[0]
        for k in range(m):
            dN += dg[k][0] * dG2[1 + k]
        row = [
            2.0 * d1f[0] / G1
            - 2.0 * df[1] * dG1 / G1**2
            + dN / (G1 * G2)
            - N * dG1 / (G1**2 * G2)
        ]
        dN = df[1] * dG2[0] + F * H[0, 0]
        for k in range(m):
            dN += gv[k] * H[0, 1 + k]
        row.append(2.0 * d1f[1] / G1 + dN / (G1 * G2) - N * dG2[0] / (G1 * G2**2))
        for l in range(m):
            dG1 = dg[pivot][1 + l]
            dN = df[2 + l] * dG2[0] + F * H[0, 1 + l]
            for k in range(m):
                dN += dg[k][1 + l] * dG2[1 + k]
                dN += gv[k] * H[1 + k, 1 + l]
            row.append(
                2.0 * d1f[2 + l] / G1
                - 2.0 * df[1] * dG1 / G1**2
                + dN / (G1 * G2)
                - N * (dG1 * G2 + G1 * dG2[1 + l]) / (G1 * G2) ** 2
            )
        return row

    Q_dom = (
        s.f.domain
        .merged(_remap_domain(g1.domain, map_p1))
        .merged(_remap_domain(g1.domain, map_p2))
        .merged(extra_p1)
        .merged(extra_p2)
    )
    Q, Q_row = quotient(f_units, Q_fn, Q_row, Q_dom, f"{s.label}:Q")
    return GTSystem(structure=s, pivot=pivot, A=A, B=tuple(B), Q=Q,
                    A_row=A_row, B_rows=tuple(B_rows), Q_row=Q_row)


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

    def pf(args, multi):
        out = base.partial(args, multi)
        if sum(multi) == 0:
            return out + scale * (c[0] + c[1] * args[0] + c[2] * args[1] ** 2)
        if multi[0] == 1 and sum(multi) == 1:
            return out + scale * c[1]
        if multi[1] == 1 and sum(multi) == 1:
            return out + scale * 2.0 * c[2] * args[1]
        if multi[1] == 2 and sum(multi) == 2:
            return out + scale * 2.0 * c[2]
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
# compatibility of mixed derivatives
# ---------------------------------------------------------------------------


class _State:
    """One jet of a solution: points p_1..p_M, fiber point v, slopes
    w_i = d_i v_1."""

    def __init__(self, ps, v, w):
        self.ps = list(ps)
        self.v = list(v)
        self.w = list(w)


def _flow_derivative(sys: GTSystem, st: _State, i: int, field_id):
    """d_i of a state field by the system equations (None for the free
    fields p_i and w_i along their own direction)."""
    kind, idx = field_id
    args2 = lambda pa, pb: (pa, pb, *st.v)  # noqa: E731
    if kind == "p":
        if idx == i:
            return None
        return sys.A.value(args2(st.ps[i], st.ps[idx])) * st.w[i]
    if kind == "v":
        if idx == sys.pivot:
            return st.w[i]
        return sys.B[idx].value((st.ps[i], *st.v)) * st.w[i]
    if kind == "w":
        if idx == i:
            return None
        return sys.Q.value(args2(st.ps[i], st.ps[idx])) * st.w[i] * st.w[idx]
    raise ValueError(kind)


def _directional(sys: GTSystem, row, i: int, st: _State, p_slots: dict[int, int]):
    """d_i of an evaluator by the chain rule through its first-partial
    ``row``; p_slots maps evaluator slots to point indices, remaining slots
    are the fiber coordinates in order."""
    total = 0.0 + 0.0j
    for slot, partial in enumerate(row):
        if slot in p_slots:
            d = _flow_derivative(sys, st, i, ("p", p_slots[slot]))
        else:
            l = slot - len(p_slots)
            d = _flow_derivative(sys, st, i, ("v", l))
        if d is None:
            raise ValueError("free field inside chain rule")
        total += partial * d
    return total


def _mixed_second(sys: GTSystem, st: _State, i: int, j: int, field_id):
    """d_i d_j of a field, expanded through the system (i != j and the
    field is not free along i or j)."""
    kind, idx = field_id
    if kind == "p":
        # d_j p_idx = A(p_j, p_idx) w_j
        eargs = (st.ps[j], st.ps[idx], *st.v)
        dA = _directional(sys, sys.A_row(eargs), i, st, {0: j, 1: idx})
        A = sys.A.value(eargs)
        dw_j = _flow_derivative(sys, st, i, ("w", j))
        return dA * st.w[j] + A * dw_j
    if kind == "v":
        if idx == sys.pivot:
            # d_j v_1 = w_j
            return _flow_derivative(sys, st, i, ("w", j))
        eargs = (st.ps[j], *st.v)
        dB = _directional(sys, sys.B_rows[idx](eargs), i, st, {0: j})
        B = sys.B[idx].value(eargs)
        dw_j = _flow_derivative(sys, st, i, ("w", j))
        return dB * st.w[j] + B * dw_j
    if kind == "w":
        eargs = (st.ps[j], st.ps[idx], *st.v)
        dQ = _directional(sys, sys.Q_row(eargs), i, st, {0: j, 1: idx})
        Q = sys.Q.value(eargs)
        dw_j = _flow_derivative(sys, st, i, ("w", j))
        dw_idx = _flow_derivative(sys, st, i, ("w", idx))
        return dQ * st.w[j] * st.w[idx] + Q * (dw_j * st.w[idx] + st.w[j] * dw_idx)
    raise ValueError(kind)


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
        w = tuple(
            complex(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5)) for _ in range(M)
        )
        st = _State(ps, v, w)
        diffs = []
        for i in range(M):
            for j in range(i + 1, M):
                fields = (
                    [("p", k) for k in range(M) if k not in (i, j)]
                    + [("v", l) for l in range(sys.m)]
                    + [("w", k) for k in range(M) if k not in (i, j)]
                )
                for fid in fields:
                    d_ij = _mixed_second(sys, st, i, j, fid)
                    d_ji = _mixed_second(sys, st, j, i, fid)
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


def _rhs_extended(sys: GTSystem, state: dict, i: int, M: int):
    """Direction-i derivative of the extended state.

    Besides (p, v, w) the state carries the own-direction slopes
    y_j = d_j p_j and z_j = d_j w_j.  Their direction-i evolution for
    j != i follows from cross-differentiating the system; d_i y_i and
    d_i z_i have no equation and come back as None.
    """
    ps, v, w, y, z = state["p"], state["v"], state["w"], state["y"], state["z"]
    m = sys.m
    out_p, out_w, out_y, out_z = ([None] * M for _ in range(4))
    out_p[i] = y[i]
    out_w[i] = z[i]

    def dj_of(j):
        """Direction-j derivatives of (p_i, p_j, v): what the chain rule
        through A(p_i, p_j, v) or Q(p_i, p_j, v) consumes."""
        d_pi = sys.A.value((ps[j], ps[i], *v)) * w[j]
        d_pj = y[j]
        d_v = [
            w[j] if l == sys.pivot else sys.B[l].value((ps[j], *v)) * w[j]
            for l in range(m)
        ]
        return d_pi, d_pj, d_v

    for j in range(M):
        if j == i:
            continue
        args = (ps[i], ps[j], *v)
        A = sys.A.value(args)
        Q = sys.Q.value(args)
        out_p[j] = A * w[i]
        out_w[j] = Q * w[i] * w[j]
        # d_i y_j = d_j (A(p_i, p_j) w_i), expanded along direction j
        d_pi, d_pj, d_v = dj_of(j)
        rA = sys.A_row(args)
        dA = rA[0] * d_pi + rA[1] * d_pj + sum(rA[2 + l] * d_v[l] for l in range(m))
        dw_i_along_j = sys.Q.value((ps[j], ps[i], *v)) * w[j] * w[i]
        out_y[j] = dA * w[i] + A * dw_i_along_j
        # d_i z_j = d_j (Q(p_i, p_j) w_i w_j)
        rQ = sys.Q_row(args)
        dQ = rQ[0] * d_pi + rQ[1] * d_pj + sum(rQ[2 + l] * d_v[l] for l in range(m))
        out_z[j] = dQ * w[i] * w[j] + Q * (dw_i_along_j * w[j] + w[i] * z[j])
    out_v = [
        w[i] if l == sys.pivot else sys.B[l].value((ps[i], *v)) * w[i]
        for l in range(m)
    ]
    return {"p": out_p, "v": out_v, "w": out_w, "y": out_y, "z": out_z}


def _heun_step_extended(sys, state, i, h, M):
    """One predictor-corrector step along direction i; fields without a
    direction-i equation (y_i, z_i) are carried over unchanged and must be
    fixed up by the caller."""
    k1 = _rhs_extended(sys, state, i, M)

    def advanced(base, deriv):
        out = {}
        for key in ("p", "v", "w", "y", "z"):
            out[key] = [
                base[key][n] + (h * deriv[key][n] if deriv[key][n] is not None else 0.0)
                for n in range(len(base[key]))
            ]
        return out

    pred = advanced(state, k1)
    k2 = _rhs_extended(sys, pred, i, M)
    avg = {
        key: [
            None
            if k1[key][n] is None
            else 0.5 * (k1[key][n] + k2[key][n])
            for n in range(len(k1[key]))
        ]
        for key in ("p", "v", "w", "y", "z")
    }
    return advanced(state, avg)


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
    states: dict[tuple, dict] = {}
    origin = {
        "p": [data.p_funcs[i](0.0) for i in range(M)],
        "v": list(data.v0),
        "w": [data.w_funcs[i](0.0) for i in range(M)],
        "y": [data.p_derivs[i](0.0) for i in range(M)],
        "z": [data.w_derivs[i](0.0) for i in range(M)],
    }
    states[(0,) * M] = origin
    blow_up = False
    blow_up_at = None
    for idx in sorted(product(range(n), repeat=M)):
        if idx == (0,) * M:
            continue
        axis = min(i for i in range(M) if idx[i] > 0)
        prev = tuple(idx[i] - (1 if i == axis else 0) for i in range(M))
        st = _heun_step_extended(sys, states[prev], axis, h, M)
        on_axis = all(idx[i] == 0 for i in range(M) if i != axis)
        if on_axis:
            t = idx[axis] * h
            st["p"][axis] = data.p_funcs[axis](t)
            st["w"][axis] = data.w_funcs[axis](t)
            st["y"][axis] = data.p_derivs[axis](t)
            st["z"][axis] = data.w_derivs[axis](t)
        else:
            # transport the own-direction slopes from a transverse neighbor,
            # then integrate p_axis, w_axis by the trapezoid rule so their
            # update stays second order (the main step only sees the stale
            # slope at prev)
            taxis = next(i for i in range(M) if i != axis and idx[i] > 0)
            tprev = tuple(idx[i] - (1 if i == taxis else 0) for i in range(M))
            tst = _heun_step_extended(sys, states[tprev], taxis, h, M)
            st["y"][axis] = tst["y"][axis]
            st["z"][axis] = tst["z"][axis]
            pv = states[prev]
            st["p"][axis] = pv["p"][axis] + 0.5 * h * (pv["y"][axis] + st["y"][axis])
            st["w"][axis] = pv["w"][axis] + 0.5 * h * (pv["z"][axis] + st["z"][axis])
        states[idx] = st
        mag = max(abs(x) for x in st["p"] + st["v"] + st["w"])
        if not blow_up and (not math.isfinite(mag) or mag > 1e6):
            blow_up = True
            blow_up_at = idx
    grid_v1 = np.zeros(shape, dtype=complex)
    for idx, st in states.items():
        grid_v1[idx] = st["v"][sys.pivot]
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
                    st = states[corner]
                    rhs += (
                        sys.Q.value((st["p"][i], st["p"][j], *st["v"]))
                        * st["w"][i]
                        * st["w"][j]
                    )
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
