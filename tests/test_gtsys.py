"""Quasilinear systems: coefficients, compatibility, defects, marching."""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter

import pytest

import numpy as np

from gtlab import catalog, gtsys
from gtlab.core import GTStructure, _jet
from gtlab.errors import ConfigError, DomainViolation, GTLabError, InvalidModulus, NonConvergence
from gtlab.gtsys import (
    G1_FLOOR,
    FreeData,
    ReductionResult,
    _flows,
    _second,
    _second_v,
    _slopes,
    build_system,
    compatibility_residual,
    convergence_ratio,
    default_free_data,
    inject_defect,
    integrate_reduction,
)
from gtlab.kernel import Domain, FixedPoints, JetEvaluator, laurent_coeff, multi_index, on_columns


def _benney_system(n=2):
    return build_system(catalog.build_structure("benney", n))


# ---------------------------------------------------------------------------
# coefficient functions against hand-evaluated closed forms (benney)
# ---------------------------------------------------------------------------

P1, P2 = 1.1 + 0.6j, -0.8 + 0.3j
V = (0.25 + 0.1j, -0.45 - 0.2j)


def test_coefficient_values_match_closed_forms():
    sys_ = _benney_system()

    def g(k, p):
        return 1.0 / (p - V[k])

    jets, B, F = sys_.fiber((P1, *V), (P1, P2, *V))
    A, Q, _, _ = sys_.pair(jets, sys_.fiber((P2, *V), (P1, P2, *V))[0], F)
    f12 = 1.0 / (P1 - P2)
    assert A == pytest.approx(f12 / g(0, P1), rel=1e-12)
    assert B[0] is None  # B_1 = 1: the flow uses w itself
    assert B[1] == pytest.approx(g(1, P1) / g(0, P1), rel=1e-12)
    # Q = 2 f_{p2}/g1(p1) + (f g1'(p2) + g(p1)(g1(p2))) / (g1(p1) g1(p2));
    # for this structure f_{p2} = 1/(p1-p2)^2, g1'(p) = -1/(p-u1)^2 and the
    # fiber action g(p1)(g1(p2)) = g1(p1)/(p2-u1)^2
    fp2 = 1.0 / (P1 - P2) ** 2
    g1p = -1.0 / (P2 - V[0]) ** 2
    action = g(0, P1) / (P2 - V[0]) ** 2
    q_oracle = 2.0 * fp2 / g(0, P1) + (f12 * g1p + action) / (g(0, P1) * g(0, P2))
    assert Q == pytest.approx(q_oracle, rel=1e-12)


def test_build_system_needs_a_fiber_coordinate():
    f = JetEvaluator(2, lambda p1, p2: 1.0 / (p1 - p2))
    with pytest.raises(ConfigError, match=r"^need at least one fiber coordinate$"):
        build_system(GTStructure(m=0, g=(), f=f))


def test_build_system_refuses_an_identically_zero_g1():
    s = catalog.build_structure("benney", 1)
    zero = JetEvaluator(2, lambda p, v: 0.0 * p)
    with pytest.raises(ConfigError, match=r"^g_1 vanishes at a generic point$"):
        build_system(GTStructure(m=1, g=(zero,), f=s.f, p_box=s.p_box, v_boxes=s.v_boxes))


# zero locus of g_1 in (p, v...) slots for the structures that have one:
# poles of A, B and Q that the structure's own domains do not declare
G1_ZEROS = {"genus0": Domain((FixedPoints(1, [0.0, 1.0]),)),
            "genus2": Domain((FixedPoints(1, [0.0, 1.0]),))}


def _value_cases(sys_, zeros=Domain()):
    """(label, value-only evaluator, row function) for A, Q and each B_l
    with l >= 1.  Each evaluator's domain holds the loci of everything its
    value reads: f, g_1 at both points for A and Q, g_l and g_1 for B_l,
    with ``zeros`` added to g_1's."""
    s = sys_.structure
    m = s.m
    g1 = s.g[0].domain.merged(zeros)
    pair_dom = (s.f.domain.merged(g1.remap([0, *range(2, 2 + m)]))
                .merged(g1.remap([1, *range(2, 2 + m)])))
    at = tuple(s.sample(1, 5, 2)[0].tolist())  # f's pair for B, which reads no f

    def pair(args):
        jets_1, _, F = sys_.fiber((args[0], *args[2:]), args)
        return sys_.pair(jets_1, sys_.fiber((args[1], *args[2:]), args)[0], F)

    cases = [("A", 2 + m, lambda *a: pair(a)[0], lambda a: pair(a)[2], pair_dom),
             ("Q", 2 + m, lambda *a: pair(a)[1], lambda a: pair(a)[3], pair_dom)]
    cases += [(f"B[{l}]", 1 + m, lambda *a, l=l: sys_.fiber(a, at)[1][l],
               lambda a, l=l: gtsys._b_rows(sys_.fiber(a, at)[0])[l - 1], s.g[l].domain.merged(g1))
              for l in range(1, m)]
    return [(label, JetEvaluator(arity, fn, domain=dom, label=label), row)
            for label, arity, fn, row, dom in cases]


def test_coefficient_partials_match_quadrature():
    sys_ = _benney_system()
    for label, bare, row in _value_cases(sys_):
        args = (P1, P2, *V) if bare.arity == 2 + len(V) else (P1, *V)
        want, _ = _row_oracle(bare, args)
        for slot, analytic in enumerate(row(args)):
            assert analytic == pytest.approx(want[slot], rel=1e-7), (label, slot)


def _row_cases(name):
    """(label, value-only evaluator, row, args) for A, Q and each B_l
    (l >= 1) at a sampled point of the named structure."""
    s = catalog.build_structure(name, 2)
    p1, p2, *v = s.sample(1, 5, 2)[0].tolist()
    return [(label, bare, row, (p1, p2, *v) if bare.arity == 2 + s.m else (p1, *v))
            for label, bare, row in _value_cases(build_system(s), G1_ZEROS.get(name, Domain()))]


def _row_oracle(bare, args):
    """Every first partial of a value-only evaluator by quadrature, and the
    scale the row is compared at: the largest of the value and the partials,
    since some entries vanish exactly (benney's A does not depend on u_2).
    Each circle's radius is a quarter of the slot's clearance, at most 0.35,
    so a pole the domain misses shows here."""
    cols = np.array([args], dtype=complex).T
    want = [laurent_coeff(bare, slot, cols,
                          [min(0.25 * np.max(bare.domain.clearance(cols, slot)), 0.35)], [1])[0, 0]
            for slot in range(bare.arity)]
    return want, max(abs(w) for w in [*want, bare.value(args)])


@pytest.mark.parametrize("name", ["benney", "genus0", "genus2"])
def test_gtsys_rows_match_quadrature_of_values(name):
    for label, bare, row, args in _row_cases(name):
        got = row(args)
        want, scale = _row_oracle(bare, args)
        assert len(got) == bare.arity
        for slot, value in enumerate(got):
            assert abs(value - want[slot]) <= 1e-8 * scale, (label, slot)


def test_gtsys_row_oracle_catches_a_dropped_q_term():
    # drop F * d_p^2 g_1(p2) from the p2 slot of the Q row: the quadrature
    # oracle above must see the difference
    s = catalog.build_structure("benney", 2)
    label, bare, row, args = _row_cases("benney")[1]
    assert label == "Q"
    p1, p2, v = args[0], args[1], args[2:]
    G1, G2 = s.g[0].value((p1, *v)), s.g[0].value((p2, *v))
    dropped = s.f.value(args) * s.g[0].partial((p2, *v), (2, 0, 0)) / (G1 * G2)
    want, scale = _row_oracle(bare, args)
    assert abs(row(args)[1] - want[1]) <= 1e-8 * scale
    assert abs(row(args)[1] - dropped - want[1]) > 1e-8 * scale


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2", "benney+defect"])
def test_pair_values_do_not_depend_on_rows(name):
    # pair gives A and Q with their rows from one f request, and A and Q
    # must be the floats f's value and d_{p_2} f alone give, read as the
    # values-only expressions A = F / G_1 and Q = 2 F_2 / G_1 + N / (G_1 G_2);
    # and the jet table's g values those ``value`` gives
    if name == "benney+defect":
        sys_ = build_system(inject_defect(catalog.build_structure("benney", 2), seed=1))
        args = (P1, P2, *V)
    else:
        s = catalog.build_structure(name, 2)
        sys_ = build_system(s)
        args = tuple(s.sample(1, 5, 2)[0].tolist())
    m = sys_.m
    jets_1, B, table = sys_.fiber((args[0], *args[2:]), args)
    jets_2 = sys_.fiber((args[1], *args[2:]), args)[0]
    A, Q, a_row, q_row = sys_.pair(jets_1, jets_2, table)
    F, F_2 = sys_.structure.f.partials(args, [(0,) * len(args), multi_index(len(args), 1)])
    G1, (G2, *dG2) = jets_1[0][0], jets_2[0]
    N = F * dG2[0]
    for k in range(m):
        N += jets_1[k][0] * dG2[1 + k]
    assert A == F / G1 and Q == 2.0 * F_2 / G1 + N / (G1 * G2)
    values = [gk.value((args[0], *args[2:])) for gk in sys_.structure.g]
    if name == "genus1":
        # a jet widens each log-theta window by its orders (kernel.theta_jet), so
        # its value rounds apart from the value alone: within 1e-13 of its size,
        # the bound columns meet against points in test_columns_agree_with_points
        assert all(abs(jet[0] - x) <= 1e-13 * abs(x) for jet, x in zip(jets_1, values))
    else:
        assert [jet[0] for jet in jets_1] == values
    assert B[1:] == [jet[0] / jets_1[0][0] for jet in jets_1[1:]]
    assert len(a_row) == len(q_row) == len(args)
    assert gtsys._b_rows(jets_1).shape == (m - 1, 1 + m)


def _system(name):
    """The named system; benney+defect is benney's with a defected f."""
    s = catalog.build_structure(name.split("+")[0], 2)
    return build_system(inject_defect(s, seed=1) if name.endswith("+defect") else s)


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2", "benney+defect"])
def test_fiber_and_pair_on_columns_agree_with_points(name):
    # a batch of pairs through the same expressions as its points, to 1e-13
    # of each answer's scale: every g jet, B and each B row from fiber's
    # jets, and A, Q and their rows from pair.  A jet or row is scaled by its
    # largest entry, as the row oracles above scale theirs (benney's A does
    # not depend on u_2, and genus1's columns sum theta over the batch's
    # window: 1.5e-13 of one entry, 4e-14 of its row)
    sys_ = _system(name)
    pts = sys_.structure.sample(6, 7, 2)
    cols = list(np.ascontiguousarray(pts.T))
    fib_1, fib_2 = (sys_.fiber((col, *cols[2:]), tuple(cols)) for col in cols[:2])

    def close(got, want):
        scale = max(abs(x) for x in want)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * scale, (name, got, want)

    for n, (p1, p2, *v) in enumerate(pts.tolist()):
        one, two = (sys_.fiber((p, *v), (p1, p2, *v)) for p in (p1, p2))
        for jet_col, jet in zip(fib_1[0], one[0]):
            close(jet_col[:, n], jet)
        for l in range(1, sys_.m):
            close([fib_1[1][l][n]], [one[1][l]])
            close(gtsys._b_rows(fib_1[0])[l - 1][:, n], gtsys._b_rows(one[0])[l - 1])
        batch = sys_.pair(fib_1[0], fib_2[0], fib_1[2])
        point = sys_.pair(one[0], two[0], one[2])
        close([batch[0][n]], [point[0]])
        close([batch[1][n]], [point[1]])
        for row_col, row in zip(batch[2:], point[2:]):
            close([x[n] for x in row_col], row)


def test_fiber_on_columns_names_the_first_point_below_the_floor():
    # g_1 = (p - 0.3)(p - 0.5i) vanishes at two of five points: the error
    # names the first of them; the three others pass
    s = catalog.build_structure("benney", 1)

    def g1_partials(args, multis):
        p = args[0]
        return [{(1, 0): 2.0 * p - 0.3 - 0.5j, (2, 0): 2.0}.get(tuple(multi), 0.0)
                if any(multi) else NotImplemented for multi in multis]

    g1 = JetEvaluator(2, lambda p, u: (p - 0.3) * (p - 0.5j), partial_fn=g1_partials)
    sys_ = build_system(GTStructure(m=1, g=(g1,), f=s.f, p_box=s.p_box, v_boxes=s.v_boxes))
    p = np.array([0.1 + 0.2j, -0.4 + 0.1j, 0.3 + 0j, 0.2 - 0.3j, 0.5j])
    u = np.full(5, 1.2 + 0.4j)
    pairs = (p[[0, 1]], p[[1, 3]], u[:2])
    with pytest.raises(DomainViolation, match=re.escape(f"g_1({complex(p[2])}) = ") + ".* below "
                       + re.escape(f"floor {G1_FLOOR} (point 2 of 5)") + "$"):
        sys_.fiber((p, u), pairs)
    sys_.fiber((p[[0, 1, 3]], u[:3]), pairs)


def test_fiber_raises_a_g_error_then_the_floor_before_an_error_of_f():
    # fiber asks the g's and f's pairs in one kernel.jets call, which sums
    # one theta series for genus1's g_1 and f; an error of a g comes first,
    # then a g_1 below the floor, and only then an error of f, as when f
    # was asked after the floor check
    s = catalog.build_structure("genus1", 1)
    sys_ = build_system(s)
    m = s.m
    multis = _jet(2 + m, *range(2 + m)) + [multi_index(2 + m, 1, k) for k in range(2 + m)]
    p, u = np.array([0.1 + 0.05j, -0.2 + 0.1j, 0.15 - 0.1j]), np.full(3, 0.4 + 0.3j)
    tau = np.full(3, 0.1 + 1.2j)
    good = (p, u, tau)
    pairs = (p[[0, 1]], p[[1, 0]], u[:2], np.array([0.1 + 1.2j, 0.1 - 1.2j]))  # Im tau < 0
    fine = pairs[:3] + (tau[:2],)  # pairs where f answers

    def error(call):
        with pytest.raises(GTLabError) as info:
            call()
        return type(info.value), str(info.value)

    assert error(lambda: sys_.fiber(good, pairs)) == error(lambda: s.f.partials(pairs, multis))
    assert error(lambda: sys_.fiber(good, pairs))[0] is InvalidModulus
    zero = (p, np.array([0.4 + 0.3j, 0j, 0.4 + 0.3j]), tau)  # g_1 = rho(p) - rho(p) at u = 0
    assert error(lambda: sys_.fiber(zero, pairs)) == error(lambda: sys_.fiber(zero, fine))
    assert error(lambda: sys_.fiber(zero, fine))[1].endswith(f"below floor {G1_FLOOR} (point 1 of 3)")
    nan = (np.array([p[0], p[1], np.nan]), u, tau)  # g_1's own theta fails
    g_error = error(lambda: s.g[0].partials(nan, [multi_index(1 + m)]))
    assert error(lambda: sys_.fiber(nan, pairs)) == error(lambda: sys_.fiber(nan, fine)) == g_error
    assert g_error[0] is DomainViolation and "non-finite theta argument" in g_error[1]
    # and where no evaluator fails, f's table is the one f alone gives
    table = sys_.fiber(good, fine)[2]
    assert table.tobytes() == s.f.partials(fine, multis).tobytes()


def _points(args):
    """The points an evaluator call was asked at: one, or a row per point of columns."""
    return list(zip(*(np.asarray(col).tolist() for col in args))) if on_columns(args) else [
        tuple(args)]


def _count_asks(monkeypatch, s):
    """A Counter of (evaluator, point, second partials asked) over every
    ``value`` and ``partials`` call on the structure's g and f, a call on
    argument columns counted at each of its points."""
    asked = Counter()
    value, partials = JetEvaluator.value, JetEvaluator.partials
    watched = {id(e) for e in (*s.g, s.f)}

    def counted_value(self, args):
        if id(self) in watched:
            for point in _points(args):
                asked[id(self), point, False] += 1
        return value(self, args)

    def counted_partials(self, args, multis):
        if id(self) in watched:
            for point in _points(args):
                asked[id(self), point, any(sum(multi) == 2 for multi in multis)] += 1
        return partials(self, args, multis)

    monkeypatch.setattr(JetEvaluator, "value", counted_value)
    monkeypatch.setattr(JetEvaluator, "partials", counted_partials)
    return asked


def test_state_asks_each_g_once_per_point(monkeypatch):
    # the flows of a batch of M=3 states along every direction read one jet
    # table: each g_k is asked exactly once at every (p_k, v) of every state,
    # so pair asks no g, and f once per ordered pair, always with rows
    s = catalog.build_structure("genus0", 2)
    sys_ = build_system(s)
    raw = s.sample(4, 5, 3)
    X = np.hstack([raw, np.ones((4, 3)), np.zeros((4, 6))]).T
    asked = _count_asks(monkeypatch, s)
    _flows(sys_, X, 3)
    g_asks = {(e, args): n for (e, args, _), n in asked.items() if e != id(s.f)}
    assert g_asks == {(id(gk), (p, *row[3:])): 1 for gk in s.g for row in raw.tolist()
                      for p in row[:3]}
    f_asks = {key: n for key, n in asked.items() if key[0] == id(s.f)}
    assert len(f_asks) == 6 * 4 and set(f_asks.values()) == {1}
    assert all(second for _, _, second in f_asks)


@pytest.mark.parametrize("M,steps", [(2, 4), (3, 2)])
def test_march_asks_each_g_once_per_point(monkeypatch, M, steps):
    # a march asks every g_k once at each point of each state it visits,
    # and no g twice at one point
    s = catalog.build_structure("benney", 2)
    sys_ = build_system(s)
    asked = _count_asks(monkeypatch, s)
    integrate_reduction(sys_, M=M, steps=steps, h=0.02)
    g_asks = {key: n for key, n in asked.items() if key[0] != id(s.f)}
    assert g_asks and max(g_asks.values()) == 1
    points = Counter(args for _, args, _ in g_asks)
    assert set(points.values()) == {len(s.g)}


@pytest.mark.parametrize("M,steps", [(2, 4), (3, 2)])
def test_march_asks_each_evaluator_once_per_level_stage_and_jet_level(monkeypatch, M, steps):
    # both grids of a convergence ratio march together, level by level: each
    # g_k is asked in one call per level (the level's flows) and one per
    # level left (its steps' predictors), and f in one call there; a march
    # asking per state makes a call per state
    s = catalog.build_structure("benney", 2)
    sys_ = build_system(s)
    calls = Counter()
    partials = JetEvaluator.partials

    def counted(self, args, multis):
        calls[id(self)] += 1
        return partials(self, args, multis)

    monkeypatch.setattr(JetEvaluator, "partials", counted)
    convergence_ratio(sys_, M=M, steps=steps, h=0.02)
    stages = 2 * (M * 2 * steps + 1) - 1  # the fine grid's levels, and the levels left
    assert [calls[id(gk)] for gk in s.g] == [stages] * len(s.g)
    assert calls[id(s.f)] == stages


# ---------------------------------------------------------------------------
# compatibility of the mixed second derivatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,n", [("benney", 2), ("genus0", 2)])
def test_compatibility_holds(name, n):
    sys_ = build_system(catalog.build_structure(name, n))
    rep = compatibility_residual(sys_, M=3, states=15, seed=17, tol=1e-9)
    assert rep.passed, rep.max_residual


def test_compatibility_needs_three_points():
    with pytest.raises(ConfigError, match=r"^mixed-derivative compatibility needs M >= 3$"):
        compatibility_residual(_benney_system(), M=2)


# compatibility_residual(M=3, states=10, seed=17), every state in one batch:
# (max, mean) residual, pinned exactly; m = 2 and genus2's m = 3 run the B rows.
# genus2's moved from (1.787e-13, 6.910e-14) when its f took argument columns
# (numpy's square root and Hessian contractions over the batch), and from
# (3.962e-13, 9.188e-14) when its f's first and second partials came from one
# log-derivative pass over its 21 linear factors; all lie within the
# per-state oracle's 16 eps S below
GOLDEN_COMPATIBILITY = {
    ("benney", 2): (5.720310336735898e-14, 1.1498039220205471e-14),
    ("genus2", 0): (4.5396952955807387e-13, 9.243390397621338e-14),
}
# The same report from one state at a time with Python's complex arithmetic,
# before the batch, with S, the largest |d_a d_b F| among the differences.
# A residual |d_i d_j F - d_j d_i F| is zero in exact arithmetic: it is
# rounding, 2.6 to 11 eps S in both floats, and numpy's complex division
# (a reciprocal, then a product) rounds otherwise than Python's, so the
# batch moves it by its own size.  The oracle: old and new max residual
# within 16 eps S of each other, the new below 16 eps S.
PER_STATE_COMPATIBILITY = {
    ("benney", 2): (5.402578411571408e-14, 22.739053223825213),
    ("genus2", 0): (2.779303147179909e-13, 306.23301790997584),
}


@pytest.mark.parametrize("name,n", list(GOLDEN_COMPATIBILITY))
def test_compatibility_keeps_every_float(name, n):
    rep = compatibility_residual(build_system(catalog.build_structure(name, n)),
                                 M=3, states=10, seed=17)
    assert (rep.max_residual, rep.mean_residual) == GOLDEN_COMPATIBILITY[name, n]
    old, scale = PER_STATE_COMPATIBILITY[name, n]
    bound = 16 * np.finfo(float).eps * scale
    assert rep.max_residual <= bound and abs(rep.max_residual - old) <= bound


# ---------------------------------------------------------------------------
# the per-pair mixed rule: the oracle of the stacked pass
# ---------------------------------------------------------------------------


class _Rows:
    """A batch's rows by field, as the per-pair rule reads them."""

    def __init__(self, X, M, m):
        self.X, self.p, self.v, self.w = X, X[:M], X[M:M + m], X[M + m:2 * M + m]


def _per_direction(fl, M):
    """The stacked flow record read per direction i, as the per-pair rule
    reads a flow: (d_i of p, v and w, A[k], Q[k], B[l], A_rows[k],
    Q_rows[k], g), A[k] = A(p_i, p_k) with its row and Q likewise for
    k != i, and g[l] g_l's value and first partials at p_i.  The ordered
    pair (i, k) is the i (M - 1) + k - (k > i)-th of ``_flows``' i-major
    pairs, counted here, not read off the record."""
    d, c, B, jets, _ = fl
    m = len(B)
    g = np.array([jet[:2 + m] for jet in jets]).reshape(m, 2 + m, M, -1)
    flows = []
    for i in range(M):
        at = {k: i * (M - 1) + k - (k > i) for k in range(M) if k != i}
        A, Q, A_rows, Q_rows = ({k: c[x, y, n] for k, n in at.items()}
                                for y in (0, slice(1, None)) for x in (0, 1))
        flows.append((_Rows(d[:, i], M, m), A, Q, B[:, i], A_rows, Q_rows, g[:, :, i]))
    return flows


def _b_row(jets, l):
    """The first-partial row of B_l = g_l / g_1 in slot order, from the
    values and first partials of g_1 and g_l."""
    n = len(jets[l])
    G, dG, gl, dgl = jets[0][0], np.asarray(jets[0][1:n]), jets[l][0], np.asarray(jets[l][1:])
    return dgl / G - gl * dG / G**2


def _chain(row, da, points):
    """d_a of a coefficient through its first-partial row: the point slots
    (p_t for t in ``points``) first, then the fiber slots."""
    n = len(points)
    return (sum(row[s] * da.p[t] for s, t in enumerate(points))
            + sum(row[n + l] * dv for l, dv in enumerate(da.v)))


def _mixed(st, fa, fb, b, kind, k):
    """d_a d_b of the field p_k, v_k or w_k (``kind`` "p", "v" or "w") of
    the batch ``st``, from the flows ``fa`` along a and ``fb`` along b, one
    field and one pair of directions at a time.

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


def _derivative(st, flows, i):
    """d_i of every row of a march batch: the flow of (p, v, w) and, for
    j != i, d_i y_j = d_j (A(p_i, p_j) w_i) and d_i z_j = d_j (Q(p_i, p_j) w_i w_j)
    by the mixed rule, which reads the rows along i.  d_i y_i and d_i z_i
    have no equation: 0."""
    fi, M = flows[i], len(st.p)
    yz = np.zeros((2, M, st.X.shape[1]), dtype=complex)
    for j in range(M):
        if j != i:
            yz[0, j] = _mixed(st, flows[j], fi, i, "p", j)
            yz[1, j] = _mixed(st, flows[j], fi, i, "w", j)
    return np.concatenate((fi[0].X, yz.reshape(2 * M, -1)))


def _batch(s, M, states, seed):
    """A batch of sampled states of the structure, its slopes w, y and z
    seeded draws."""
    raw = s.sample(states, seed, M)
    rng = np.random.default_rng(seed)
    shape = (len(raw), 3 * M)
    slopes = rng.uniform(0.3, 1.2, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    return np.hstack([raw, slopes]).T.copy()


def _mismatches(sys_, M, X, record=lambda fl: fl):
    """The (direction, field) at which the stacked pass over the batch X
    differs in any bit from the per-pair rule: ``_slopes`` along every
    direction against ``_derivative`` and, at M >= 3, ``_second`` and
    ``_second_v`` at every (a, b, field) against ``_mixed``.  The stacked
    pass reads ``record`` of the flow, the rule the flow itself."""
    m, N = sys_.m, X.shape[1]
    fl = _flows(sys_, X, M)
    st, flows, at, out = _Rows(X, M, m), _per_direction(fl, M), np.arange(N), []
    for i in range(M):
        if _slopes(record(fl), np.full(N, i), at).tobytes() != _derivative(st, flows, i).tobytes():
            out.append((i, "slopes"))
    for a, b in [(a, b) for a in range(M) for b in range(M) if a != b and M >= 3]:
        got = {(kind, k): x for k in range(M) if k != b
               for kind, x in zip("pw", _second(record(fl), a, b, k, at))}
        got.update({("v", l): x for l, x in enumerate(_second_v(record(fl), a, b, at))})
        out += [(a, b, key) for key, x in got.items()
                if x.tobytes() != _mixed(st, flows[a], flows[b], b, *key).tobytes()]
    return out


CATALOG = [("benney", 1), ("benney", 2), ("genus0", 1), ("genus0", 2), ("genus1", 1),
           ("genus1", 2), ("genus2", 2)]


@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("name,n", CATALOG)
def test_stacked_mixed_pass_is_the_per_pair_rule_bit_for_bit(name, n, M):
    # every d_a d_b the march and the compatibility check take from one
    # stacked pass is the float the per-pair rule gives, field by field
    s = catalog.build_structure(name, n)
    assert _mismatches(build_system(s), M, _batch(s, M, 4, 31)) == []


@pytest.mark.parametrize("M", [2, 3])
def test_the_bit_for_bit_oracle_catches_swapped_pairs_and_a_dropped_v_term(monkeypatch, M):
    # the stacked pass reading A(p_k, p_b) for A(p_b, p_k), or its chain
    # rule missing the v_1 term, differs from the per-pair rule
    s = catalog.build_structure("benney", 2)
    sys_, X = build_system(s), _batch(s, M, 4, 31)

    def dropped(fl):
        c = fl[1].copy()
        c[:, 3] = 0.0  # the d_{v_1} entry of every A and Q row
        return fl[0], c, *fl[2:]

    assert len(_mismatches(sys_, M, X, dropped)) >= M
    pairs = gtsys._pairs

    def swapped(M, m):
        I, K, at, rows = pairs(M, m)
        return I, K, at.T, rows

    monkeypatch.setattr(gtsys, "_pairs", swapped)
    assert len(_mismatches(sys_, M, X)) >= M


def _per_state_compatibility(s, M, states, seed):
    """compatibility_residual's batch, per state, by the per-pair rule: (its
    residual, S, the largest |d_a d_b F| among the differences it takes,
    and |g_1| at each of its points)."""
    sys_ = build_system(s)
    rng = gtsys.SplitMix64(seed)
    raw = s.sample(states, seed, M)
    ws = [[complex(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5)) for _ in range(M)]
          for _ in raw]
    X = np.hstack([raw, np.reshape(ws, (len(raw), M)), np.full((len(raw), 2 * M), np.nan)]).T
    st, flows = _Rows(X, M, s.m), _per_direction(_flows(sys_, X, M), M)
    diffs, sizes = [], []
    for i in range(M):
        for j in range(i + 1, M):
            others = [k for k in range(M) if k not in (i, j)]
            for kind, k in ([("p", k) for k in others] + [("v", l) for l in range(s.m)]
                            + [("w", k) for k in others]):
                d_ij = _mixed(st, flows[i], flows[j], j, kind, k)
                d_ji = _mixed(st, flows[j], flows[i], i, kind, k)
                diffs.append(np.abs(d_ij - d_ji))
                sizes.append(np.maximum(np.abs(d_ij), np.abs(d_ji)))
    g1 = np.array([[abs(s.g[0].value((p, *row[M:]))) for p in row[:M]] for row in raw.tolist()])
    return np.max(diffs, axis=0), np.max(sizes, axis=0), g1


def test_genus2_compatibility_near_its_tolerance_is_rounding_at_a_small_g1():
    # rational seed 108's genus2 gtsys job reads a residual within a factor
    # of three of its tolerance 1e-9.  Its cause: one state (index 3) has
    # |g_1| below 3e-2 at all three points, so the coefficients A = f / g_1
    # and Q, with g_1 in their denominators, make its mixed derivatives
    # about 4e5 (S); relative to S every state's residual is rounding, below
    # the 16 eps S of the per-state oracle above.  The same job with a 1e-9
    # defect in f reads at least 1e-11 relative at every state, and fails
    seed, M, states = 778644996, 3, 5
    s = catalog.build_structure("genus2")
    rep = compatibility_residual(build_system(s), M=M, states=states, seed=seed)
    assert rep.passed and rep.max_residual > 1e-10
    residual, size, g1 = _per_state_compatibility(s, M, states, seed)
    assert rep.max_residual == residual.max()
    worst = int(np.argmax(residual))
    assert worst == 3 and g1[worst].max() < 3e-2 and size[worst] > 1e5
    assert np.delete(size, worst).max() < 1e3
    assert np.delete(g1, worst, axis=0).max(axis=1).min() > 6e-2
    assert np.all(residual <= 16 * np.finfo(float).eps * size)
    bad = inject_defect(s, scale=1e-9)
    defect, bad_size, _ = _per_state_compatibility(bad, M, states, seed)
    assert np.all(defect >= 1e-11 * bad_size)
    assert not compatibility_residual(build_system(bad), M=M, states=states, seed=seed).passed


def test_injected_defect_is_detected():
    s = catalog.build_structure("benney", 2)
    bad = inject_defect(s, scale=1e-2, seed=1)
    sys_ = build_system(bad)
    rep = compatibility_residual(sys_, M=3, states=15, seed=17, tol=1e-9)
    assert rep.max_residual > 1e-4


def test_injected_defect_scales_with_amplitude():
    s = catalog.build_structure("benney", 2)
    res = []
    for scale in (1e-2, 1e-4):
        sys_ = build_system(inject_defect(s, scale=scale, seed=1))
        res.append(compatibility_residual(sys_, M=3, states=10,
                                          seed=17).max_residual)
    assert res[0] > 10.0 * res[1]


@pytest.mark.parametrize("name", ["benney", "genus2"])
def test_defect_partials_match_circles_over_its_values(name):
    # d_p1, d_p2 and d_p2^2 of the defected f against Cauchy circles over its
    # fn.  Both sides drop the base f, whose partials are checked against
    # circles elsewhere: the circles run over fn less the base's fn, the
    # defect polynomial, which no square-root cut of genus2's f crosses
    s = catalog.build_structure(name, 2)
    bad = inject_defect(s, scale=1e-2, seed=1)
    defect = JetEvaluator(bad.f.arity, lambda *a: bad.f.fn(*a) - s.f.fn(*a))
    asked = [(0, 1), (1, 1), (1, 2)]  # (slot, order)
    multis = [tuple(order if t == slot else 0 for t in range(bad.f.arity)) for slot, order in asked]
    for args in map(tuple, s.sample(4, seed=5, n_p=2).tolist()):
        got = [x - y for x, y in zip(bad.f.partials(args, multis), s.f.partials(args, multis))]
        cols = np.array([args], dtype=complex).T
        want = [laurent_coeff(defect, slot, cols, [0.1], [order])[0, 0] * math.factorial(order)
                for slot, order in asked]
        assert got == pytest.approx(want, rel=1e-9, abs=1e-11), (name, args)


def test_defect_perturbs_values_but_keeps_domain():
    s = catalog.build_structure("benney", 1)
    bad = inject_defect(s, scale=1e-2, seed=1)
    args = (P1, P2, V[0])
    assert bad.f.value(args) != pytest.approx(s.f.value(args), abs=1e-6)
    assert bad.f.domain is s.f.domain or bad.f.domain.exclusions == s.f.domain.exclusions


# ---------------------------------------------------------------------------
# reduction marching
# ---------------------------------------------------------------------------


def test_integrate_reduction_runs_clean():
    sys_ = build_system(catalog.build_structure("benney", 1))
    res = integrate_reduction(sys_, M=2, steps=6, h=0.02)
    assert not res.blow_up
    assert res.grid_v1.shape == (7, 7)
    assert res.residual < 1.0


@pytest.mark.filterwarnings("error")
def test_a_step_past_float_range_fails_on_the_phase_it_overflows():
    # the free data's phase beta t overflows to inf on this grid, where
    # math.sin would raise ValueError
    sys_ = build_system(catalog.build_structure("benney", 1))
    with pytest.raises(OverflowError, match="^free data phase overflows float64: inf$"):
        integrate_reduction(sys_, M=2, steps=2, h=1e308)


def test_integrate_reduction_marches_three_components():
    sys_ = build_system(catalog.build_structure("benney", 2))
    res = integrate_reduction(sys_, M=3, steps=3, h=0.02)
    assert not res.blow_up
    assert res.grid_v1.shape == (4, 4, 4)
    assert res.residual < 1.0


def test_integrate_reduction_respects_free_data():
    sys_ = build_system(catalog.build_structure("benney", 1))
    data = default_free_data(sys_, M=2, seed=23)
    a = integrate_reduction(sys_, M=2, steps=4, h=0.02, data=data)
    b = integrate_reduction(sys_, M=2, steps=4, h=0.02, data=data)
    assert (a.grid_v1 == b.grid_v1).all()  # fully deterministic


def test_integrate_reduction_flags_a_blow_up():
    # slopes w_i = 1e7 exceed the blow-up bound at the first grid point;
    # the step is small enough that the march stays inside the domain
    sys_ = build_system(catalog.build_structure("benney", 1))
    d = default_free_data(sys_, M=2, seed=23)
    big = tuple((lambda t: 1e7 + 0j) for _ in range(2))
    still = tuple((lambda t: 0j) for _ in range(2))
    res = integrate_reduction(sys_, M=2, steps=2, h=1e-9,
                              data=FreeData(d.p_funcs, d.p_derivs, big, still, d.v0))
    assert res.blow_up and res.blow_up_at == (0, 1)
    assert not integrate_reduction(sys_, M=2, steps=2, h=1e-9, data=d).blow_up
    # a NaN slope is a blow-up where it first shows, whatever field comes first
    nan = (lambda t: complex(math.nan, 0.0), d.w_funcs[1])
    res = integrate_reduction(sys_, M=2, steps=2, h=1e-9,
                              data=FreeData(d.p_funcs, d.p_derivs, nan, d.w_derivs, d.v0))
    assert res.blow_up and res.blow_up_at == (0, 1)


@pytest.mark.parametrize("M", [1, 4])
def test_integrate_reduction_supports_two_or_three_points(M):
    with pytest.raises(ConfigError, match=r"^grid integration supports M = 2 or 3$"):
        integrate_reduction(_benney_system(1), M=M)


def test_integrate_reduction_needs_two_steps():
    sys_ = build_system(catalog.build_structure("benney", 1))
    with pytest.raises(ConfigError):
        integrate_reduction(sys_, M=2, steps=1, h=0.02)


# integrate_reduction(benney(1), M=2, steps=4, h=0.02, seed=23), level by
# level: every float below must stay as it is.  v_1 is the per-state march's
# bit for bit; the residual is pinned as the level march gives it
GOLDEN_RESIDUAL = 6.334079935963067e-06
# The per-state march's residual, an oracle.  v_1 does not move, so the
# finite differences do not; the defect moves with Q w_i w_j at the cell
# corners, which numpy's complex division (a reciprocal, then a product)
# rounds otherwise than Python's: Q has two divisions, each within 3 eps of
# its value either way, so a corner term moves by less than 16 eps
# |Q w_i w_j|, and |Q w_i w_j| <= 0.0969 on this grid.  The mean of four
# corners moves by no more, and the defect is a max of |fd - mean|:
# 16 eps * 0.0969 / 6.33e-6 = 5.4e-11 of it.
PER_STATE_RESIDUAL = 6.334079935976284e-06
RESIDUAL_ORACLE_REL = 16 * 2.0**-52 * 0.0969 / PER_STATE_RESIDUAL
GOLDEN_V1 = [
    (0.7788632321116191+0.0938797667849145j), (0.7885796290153498+0.09209953677508552j),
    (0.7983074753514618+0.09035467224040522j), (0.8080467007179214+0.08864495572019124j),
    (0.817797188093179+0.08697002575349427j), (0.7925225092095113+0.09667035098026616j),
    (0.8022008458545344+0.09488762568060528j), (0.8118908066670405+0.09313998952232029j),
    (0.8215923225776071+0.09142723129943363j), (0.8313052778039223+0.08974899652365022j),
    (0.8061824064807748+0.0995093928164869j), (0.8158225193088897+0.09772370869415818j),
    (0.8254744369223259+0.09597286393350297j), (0.8351380911154289+0.09425663270452803j),
    (0.8448133671365559+0.09257466744543369j), (0.8198429191319534+0.10239651775383367j),
    (0.829444650512397+0.10060741457475242j), (0.8390583729834075+0.09885292742814182j),
    (0.848684018742237+0.09713279508385582j), (0.8583214738651472+0.09544667685648002j),
    (0.8335040392009245+0.10533110366679004j), (0.8430672373285635+0.1035381254036236j),
    (0.8526426183418975+0.1017795660738126j), (0.8622301143896539+0.10005510848059929j),
    (0.8718296121791558+0.09836441876123427j),
]


def test_memoised_march_keeps_every_float():
    sys_ = build_system(catalog.build_structure("benney", 1))
    res = integrate_reduction(sys_, M=2, steps=4, h=0.02, seed=23)
    assert res.residual == GOLDEN_RESIDUAL
    assert [complex(x) for x in res.grid_v1.ravel()] == GOLDEN_V1
    assert res.residual == pytest.approx(PER_STATE_RESIDUAL, rel=RESIDUAL_ORACLE_REL, abs=0)


def _digest(grid):
    return hashlib.sha256(grid.tobytes()).hexdigest()


# convergence_ratio(M=2, h=0.02, seed=23) on the marches benney(1) above does
# not reach: (ratio, coarse and fine residual, sha256 of the coarse and fine
# grid_v1 bytes), every float pinned as the per-pair mixed rule gave it
GOLDEN_RATIOS = {
    ("genus2", 2, 4): (3.1111798126669803, 0.003631779534517965, 0.0011673319297494135,
                       "bfe20eec7f39e4e53dd9a643a5a6c4b8e2138effcf735301ea8416137d1cdd86",
                       "98306701b2e2c52418485b41b42f3c71588d3a73ae0b35ed46047f5224dda31a"),
    ("genus0", 2, 4): (3.1079658571734274, 0.004556048093670089, 0.0014659260439281773,
                       "32aeb41e1167c7285e2995a797ae6c2ce5f5f237a97e0a145eee9a7c254376c5",
                       "fd7fa1f48b7e54713cab0b3351f6eec974fc033fea7288b138e6946e3fb31355"),
    ("genus1", 1, 2): (3.7506367548210853, 9.598641870905866e-05, 2.5592032762350895e-05,
                       "6c8596043e80fb31563021146aa85d47496dbc9a78f26933273b625bdd2f7b38",
                       "316d04d37be0172433f790820e1f73d2dde6791d2b933e85121b11417fe8d950"),
}


@pytest.mark.parametrize("name,n,steps", list(GOLDEN_RATIOS))
def test_convergence_ratio_keeps_every_float(name, n, steps):
    sys_ = build_system(catalog.build_structure(name, n))
    ratio, coarse, fine = convergence_ratio(sys_, M=2, steps=steps, h=0.02)
    assert (ratio, coarse.residual, fine.residual, _digest(coarse.grid_v1),
            _digest(fine.grid_v1)) == GOLDEN_RATIOS[name, n, steps]
    assert coarse.grid_v1.shape == (steps + 1,) * 2 and fine.grid_v1.shape == (2 * steps + 1,) * 2


def test_three_component_march_keeps_every_float():
    # integrate_reduction(benney(2), M=3, steps=3, h=0.02, seed=23): the residual
    # and the sha256 of the grid_v1 bytes as the per-pair mixed rule gave them
    res = integrate_reduction(_benney_system(2), M=3, steps=3, h=0.02)
    assert res.residual == 0.1600269857458915 and res.grid_v1.shape == (4, 4, 4)
    assert _digest(res.grid_v1) == (
        "bbad74b672281bf25293ca511366834983fe02683a0a8d295c849b70f8886b00")


@pytest.mark.parametrize("M,steps", [(2, 6), (3, 3)])
def test_march_asks_f_at_most_twice_per_point(monkeypatch, M, steps):
    # a state's flows ask f once at each ordered pair of its points, always
    # with rows: no point is asked twice
    s = catalog.build_structure("benney", 2)
    sys_ = build_system(s)
    asked = Counter()
    partials = JetEvaluator.partials

    def counted(self, args, multis):
        if self is s.f:
            for point in _points(args):
                asked[point, any(sum(multi) == 2 for multi in multis)] += 1
        return partials(self, args, multis)

    monkeypatch.setattr(JetEvaluator, "partials", counted)
    integrate_reduction(sys_, M=M, steps=steps, h=0.02)
    assert asked and max(asked.values()) == 1
    points = Counter(args for args, _ in asked)
    assert max(points.values()) == 1
    assert {rows for _, rows in asked} == {True}


def test_convergence_ratio_is_second_order():
    sys_ = build_system(catalog.build_structure("benney", 1))
    ratio, coarse, fine = convergence_ratio(sys_, M=2, steps=10, h=0.02)
    assert 3.5 <= ratio <= 4.5, ratio
    assert fine.residual < coarse.residual


def test_convergence_ratio_refuses_a_zero_fine_grid_residual(monkeypatch):
    # a march that closes exactly on the fine grid leaves no ratio to read
    sys_ = build_system(catalog.build_structure("benney", 1))
    exact = ReductionResult(M=2, steps=8, h=0.02, grid_v1=np.zeros((9, 9), dtype=complex),
                            residual=0.0, blow_up=False, blow_up_at=None)
    monkeypatch.setattr(gtsys, "_march", lambda *args, **kwargs: [exact, exact])
    with pytest.raises(NonConvergence, match=r"^zero fine-grid residual; ratio undefined$"):
        convergence_ratio(sys_)
