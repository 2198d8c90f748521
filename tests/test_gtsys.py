"""Quasilinear systems: coefficients, compatibility, defects, marching."""

from __future__ import annotations

import math
import re
from collections import Counter

import pytest

import numpy as np

from gtlab import catalog, gtsys
from gtlab.core import GTStructure
from gtlab.errors import ConfigError, DomainViolation, NonConvergence
from gtlab.gtsys import (
    G1_FLOOR,
    FreeData,
    ReductionResult,
    _flows,
    _State,
    build_system,
    compatibility_residual,
    convergence_ratio,
    default_free_data,
    inject_defect,
    integrate_reduction,
)
from gtlab.kernel import Domain, FixedPoints, JetEvaluator, cauchy_derivative, on_columns


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

    jets, B, B_rows = sys_.fiber((P1, *V))
    A, Q, _, _ = sys_.pair(jets, sys_.fiber((P2, *V))[0], (P1, P2, *V), False)
    f12 = 1.0 / (P1 - P2)
    assert A == pytest.approx(f12 / g(0, P1), rel=1e-12)
    assert B[0] is None and B_rows[0] is None  # B_1 = 1: the flow uses w itself
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

    def pair(args, rows):
        jets_1, jets_2 = (sys_.fiber((p, *args[2:]))[0] for p in args[:2])
        return sys_.pair(jets_1, jets_2, args, rows)

    cases = [("A", 2 + m, lambda *a: pair(a, False)[0], lambda a: pair(a, True)[2], pair_dom),
             ("Q", 2 + m, lambda *a: pair(a, False)[1], lambda a: pair(a, True)[3], pair_dom)]
    cases += [(f"B[{l}]", 1 + m, lambda *a, l=l: sys_.fiber(a)[1][l],
               lambda a, l=l: sys_.fiber(a)[2][l], s.g[l].domain.merged(g1))
              for l in range(1, m)]
    return [(label, JetEvaluator(arity, fn, domain=dom, label=label), row)
            for label, arity, fn, row, dom in cases]


def test_coefficient_partials_match_quadrature():
    sys_ = _benney_system()
    for label, bare, row in _value_cases(sys_):
        args = (P1, P2, *V) if bare.arity == 2 + len(V) else (P1, *V)
        for slot, analytic in enumerate(row(args)):
            multi = [int(t == slot) for t in range(bare.arity)]
            assert analytic == pytest.approx(bare.partial(args, multi), rel=1e-7), (label, slot)


def _row_cases(name):
    """(label, value-only evaluator, row, args) for A, Q and each B_l
    (l >= 1) at a sampled point of the named structure."""
    s = catalog.build_structure(name, 2)
    (p1, p2), v = s.sample(1, 5, 2)[0]
    return [(label, bare, row, (p1, p2, *v) if bare.arity == 2 + s.m else (p1, *v))
            for label, bare, row in _value_cases(build_system(s), G1_ZEROS.get(name, Domain()))]


def _row_oracle(bare, args):
    """Every first partial of a value-only evaluator by quadrature, and the
    scale the row is compared at: the largest of the value and the partials,
    since some entries vanish exactly (benney's A does not depend on u_2).
    Each circle has the default radius, ``deriv_radius``, so a pole the
    domain misses shows here."""
    want = [cauchy_derivative(bare, slot, args, 1) for slot in range(bare.arity)]
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


def test_rows_without_closed_forms_come_from_circles():
    # an f without partial_fn still gives A and Q chain-rule rows, whose
    # partials of f come from circles on f's own domain
    s = catalog.build_structure("benney", 2)
    bare_f = JetEvaluator(s.f.arity, s.f.fn, domain=s.f.domain)
    bare = build_system(GTStructure(m=s.m, g=s.g, f=bare_f, p_box=s.p_box,
                                    v_boxes=s.v_boxes))
    exact = build_system(s)

    def rows(sys_):
        jets, _, B_rows = sys_.fiber((P1, *V))
        return [*sys_.pair(jets, sys_.fiber((P2, *V))[0], (P1, P2, *V), True)[2:], B_rows[1]]

    for got, want in zip(rows(bare), rows(exact)):
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8 * scale


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2", "benney+defect"])
def test_pair_values_do_not_depend_on_rows(name):
    # the march mixes flows with and without rows at one point, so A and Q
    # must be the same floats either way, and the jet table's g values
    # those ``value`` gives
    if name == "benney+defect":
        sys_ = build_system(inject_defect(catalog.build_structure("benney", 2), seed=1))
        args = (P1, P2, *V)
    else:
        s = catalog.build_structure(name, 2)
        sys_ = build_system(s)
        (p1, p2), v = s.sample(1, 5, 2)[0]
        args = (p1, p2, *v)
    m = sys_.m
    jets_1, B, b_rows = sys_.fiber((args[0], *args[2:]))
    jets_2 = sys_.fiber((args[1], *args[2:]))[0]
    A, Q, no_a_row, no_q_row = sys_.pair(jets_1, jets_2, args, False)
    A_r, Q_r, a_row, q_row = sys_.pair(jets_1, jets_2, args, True)
    assert no_a_row is None and no_q_row is None
    assert A == A_r and Q == Q_r
    assert [jet[0] for jet in jets_1] == [gk.value((args[0], *args[2:]))
                                         for gk in sys_.structure.g]
    assert B[1:] == [jet[0] / jets_1[0][0] for jet in jets_1[1:]]
    assert len(a_row) == len(q_row) == len(args)
    assert b_rows[0] is None and all(len(row) == 1 + m for row in b_rows[1:])


def _system(name):
    """The named system; benney+defect is benney's with a defected f."""
    s = catalog.build_structure(name.split("+")[0], 2)
    return build_system(inject_defect(s, seed=1) if name.endswith("+defect") else s)


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2", "benney+defect"])
def test_fiber_and_pair_on_columns_agree_with_points(name):
    # a batch of pairs through the same expressions as its points, to 1e-13
    # of each answer's scale: every g jet, B and each B row from fiber, and
    # A, Q and their rows from pair at both jet levels.  A jet or row is
    # scaled by its largest entry, as the row oracles above scale theirs
    # (benney's A does not depend on u_2, and genus1's columns sum theta
    # over the batch's window: 1.5e-13 of one entry, 4e-14 of its row)
    sys_ = _system(name)
    pts = sys_.structure.sample(6, 7, 2)
    cols = [np.array(col) for col in zip(*((*ps, *v) for ps, v in pts))]
    fib_1, fib_2 = sys_.fiber((cols[0], *cols[2:])), sys_.fiber((cols[1], *cols[2:]))

    def close(got, want):
        scale = max(abs(x) for x in want)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * scale, (name, got, want)

    for n, (ps, v) in enumerate(pts):
        one, two = sys_.fiber((ps[0], *v)), sys_.fiber((ps[1], *v))
        for jet_col, jet in zip(fib_1[0], one[0]):
            close(jet_col[:, n], jet)
        for b_col, b, rows_col, row in zip(fib_1[1][1:], one[1][1:], fib_1[2][1:], one[2][1:]):
            close([b_col[n]], [b])
            close([x[n] for x in rows_col], row)
        for rows in (False, True):
            batch = sys_.pair(fib_1[0], fib_2[0], tuple(cols), rows)
            point = sys_.pair(one[0], two[0], (*ps, *v), rows)
            close([batch[0][n]], [point[0]])
            close([batch[1][n]], [point[1]])
            for row_col, row in zip(batch[2:], point[2:]):
                assert (row_col is None) == (row is None) == (not rows)
                if rows:
                    close([x[n] for x in row_col], row)


def test_fiber_on_columns_names_the_first_point_below_the_floor():
    # g_1 = (p - 0.3)(p - 0.5i) vanishes at two of five points: the error
    # names the first of them; the three others pass
    s = catalog.build_structure("benney", 1)
    g1 = JetEvaluator(2, lambda p, u: (p - 0.3) * (p - 0.5j))
    sys_ = build_system(GTStructure(m=1, g=(g1,), f=s.f, p_box=s.p_box, v_boxes=s.v_boxes))
    p = np.array([0.1 + 0.2j, -0.4 + 0.1j, 0.3 + 0j, 0.2 - 0.3j, 0.5j])
    u = np.full(5, 1.2 + 0.4j)
    with pytest.raises(DomainViolation, match=re.escape(f"g_1({complex(p[2])}) = ") + ".* below "
                       + re.escape(f"floor {G1_FLOOR} (point 2 of 5)") + "$"):
        sys_.fiber((p, u))
    sys_.fiber((p[[0, 1, 3]], u[:3]))


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
    # so pair asks no g, and f once per ordered pair, with rows only along
    # the directions a state asks them for
    s = catalog.build_structure("genus0", 2)
    sys_ = build_system(s)
    raw = s.sample(4, 5, 3)
    st = _State(np.array([(*ps, *v, 1.0, 1.0, 1.0) for ps, v in raw], dtype=complex).T, 3, 2)
    rows = np.array([[True, False, True, False]] * 3)
    asked = _count_asks(monkeypatch, s)
    _flows(sys_, st, rows)
    g_asks = {(e, args): n for (e, args, _), n in asked.items() if e != id(s.f)}
    assert g_asks == {(id(gk), (p, *v)): 1 for gk in s.g for ps, v in raw for p in ps}
    f_asks = {key: n for key, n in asked.items() if key[0] == id(s.f)}
    assert len(f_asks) == 6 * 4 and set(f_asks.values()) == {1}
    assert sum(second for _, _, second in f_asks) == 6 * 2  # rows at states 0 and 2


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
    # level left (its steps' predictors), and f in at most one call per jet
    # level there; a march asking per state makes a call per state
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
    assert stages <= calls[id(s.f)] <= 2 * stages


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
# (max, mean) residual, pinned exactly; m = 2 and genus2's m = 3 run the B rows
GOLDEN_COMPATIBILITY = {
    ("benney", 2): (5.720310336735898e-14, 1.1498039220205471e-14),
    ("genus2", 0): (1.7866300027947316e-13, 6.909709535250087e-14),
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
    for ps, v in s.sample(4, seed=5, n_p=2):
        args = (*ps, *v)
        got = [x - y for x, y in zip(bad.f.partials(args, multis), s.f.partials(args, multis))]
        want = [cauchy_derivative(defect, slot, args, order, radius=0.1) for slot, order in asked]
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


@pytest.mark.parametrize("M,steps", [(2, 6), (3, 3)])
def test_march_asks_f_at_most_twice_per_point(monkeypatch, M, steps):
    # a state's flows ask f once at each ordered pair of its points, for
    # values or with rows, whichever the steps leaving it need: no point
    # is asked twice, and some with rows and some for values only
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
    assert {rows for _, rows in asked} == {False, True}


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
