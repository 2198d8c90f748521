"""Quasilinear systems: coefficients, compatibility, defects, marching."""

from __future__ import annotations

from collections import Counter

import pytest

from gtlab import catalog
from gtlab.core import CoordinateChange, GTStructure, pushforward
from gtlab.errors import ConfigError
from gtlab.gtsys import (
    FreeData,
    build_system,
    compatibility_residual,
    convergence_ratio,
    default_free_data,
    inject_defect,
    integrate_reduction,
)
from gtlab.kernel import Domain, JetEvaluator, cauchy_derivative


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

    f12 = 1.0 / (P1 - P2)
    assert sys_.A.value((P1, P2, *V)) == pytest.approx(f12 / g(0, P1), rel=1e-12)
    for l in range(2):
        assert sys_.B[l].value((P1, *V)) == pytest.approx(
            g(l, P1) / g(0, P1), rel=1e-12)
    # Q = 2 f_{p2}/g1(p1) + (f g1'(p2) + g(p1)(g1(p2))) / (g1(p1) g1(p2));
    # for this structure f_{p2} = 1/(p1-p2)^2, g1'(p) = -1/(p-u1)^2 and the
    # fiber action g(p1)(g1(p2)) = g1(p1)/(p2-u1)^2
    fp2 = 1.0 / (P1 - P2) ** 2
    g1p = -1.0 / (P2 - V[0]) ** 2
    action = g(0, P1) / (P2 - V[0]) ** 2
    q_oracle = 2.0 * fp2 / g(0, P1) + (f12 * g1p + action) / (g(0, P1) * g(0, P2))
    assert sys_.Q.value((P1, P2, *V)) == pytest.approx(q_oracle, rel=1e-12)


def test_coefficient_partials_match_quadrature():
    sys_ = _benney_system()
    args2 = (P1, P2, *V)
    args1 = (P1, *V)
    for e, args in ((sys_.A, args2), (sys_.Q, args2), (sys_.B[1], args1)):
        bare = JetEvaluator(e.arity, e.fn, domain=e.domain)
        for slot in range(e.arity):
            multi = [0] * e.arity
            multi[slot] = 1
            analytic = e.partial(args, multi)
            numeric = bare.partial(args, multi)
            assert analytic == pytest.approx(numeric, rel=1e-7), (e.label, slot)


def _row_cases(name):
    """(label, evaluator, row, args, value-only evaluator) for A, each B_l
    and Q at a sampled point of the named structure."""
    s = catalog.build_structure(name, 2)
    sys_ = build_system(s, extra_exclusions=catalog.CATALOG[name].gt_exclusions)
    (p1, p2), v = s.sample(1, 5, 2)[0]
    cases = [("A", sys_.A, sys_.A_row, (p1, p2, *v)),
             ("Q", sys_.Q, sys_.Q_row, (p1, p2, *v))]
    cases += [(f"B[{l}]", sys_.B[l], sys_.B_rows[l], (p1, *v)) for l in range(s.m)]
    return [(label, e, row, args, JetEvaluator(e.arity, e.fn, domain=e.domain))
            for label, e, row, args in cases]


def _row_oracle(bare, args):
    """Every first partial of a value-only evaluator by quadrature, and the
    scale the row is compared at: the largest of the value and the partials,
    since some entries vanish exactly (benney's A does not depend on u_2,
    and B_1 = 1).  Each circle has the default radius, ``deriv_radius``, so
    a pole the domain misses shows here."""
    want = [cauchy_derivative(bare, slot, args, 1) for slot in range(bare.arity)]
    return want, max(abs(w) for w in [*want, bare.value(args)])


@pytest.mark.parametrize("name", ["benney", "genus0", "genus2"])
def test_gtsys_rows_match_quadrature_of_values(name):
    for label, e, row, args, bare in _row_cases(name):
        got = row(args)
        want, scale = _row_oracle(bare, args)
        assert len(got) == e.arity
        for slot, value in enumerate(got):
            assert abs(value - want[slot]) <= 1e-8 * scale, (label, slot)
            assert e.partial(args, [int(i == slot) for i in range(e.arity)]) == value


def test_gtsys_row_oracle_catches_a_dropped_q_term():
    # drop F * d_p^2 g_1(p2) from the p2 slot of the Q row: the quadrature
    # oracle above must see the difference
    s = catalog.build_structure("benney", 2)
    _, _, row, args, bare = _row_cases("benney")[1]
    p1, p2, v = args[0], args[1], args[2:]
    G1, G2 = s.g[0].value((p1, *v)), s.g[0].value((p2, *v))
    dropped = s.f.value(args) * s.g[0].partial((p2, *v), (2, 0, 0)) / (G1 * G2)
    want, scale = _row_oracle(bare, args)
    assert abs(row(args)[1] - want[1]) <= 1e-8 * scale
    assert abs(row(args)[1] - dropped - want[1]) > 1e-8 * scale


def test_rows_without_closed_forms_come_from_circles():
    # an f without partial_fn still gives the quotients chain-rule rows,
    # whose partials of f come from circles on f's own domain
    s = catalog.build_structure("benney", 2)
    bare_f = JetEvaluator(s.f.arity, s.f.fn, domain=s.f.domain)
    bare = build_system(GTStructure(m=s.m, g=s.g, f=bare_f, p_box=s.p_box,
                                    v_boxes=s.v_boxes))
    exact = build_system(s)
    args2, args1 = (P1, P2, *V), (P1, *V)
    for got, want in ((bare.A_row(args2), exact.A_row(args2)),
                      (bare.Q_row(args2), exact.Q_row(args2)),
                      (bare.B_rows[1](args1), exact.B_rows[1](args1))):
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8 * scale


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2", "benney+defect"])
def test_pair_values_do_not_depend_on_rows(name):
    # the march mixes flows with and without rows at one point, so A and Q
    # must be the same floats either way, and the public views must agree
    if name == "benney+defect":
        sys_ = build_system(inject_defect(catalog.build_structure("benney", 2), seed=1))
        args = (P1, P2, *V)
    else:
        s = catalog.build_structure(name, 2)
        sys_ = build_system(s, extra_exclusions=catalog.CATALOG[name].gt_exclusions)
        (p1, p2), v = s.sample(1, 5, 2)[0]
        args = (p1, p2, *v)
    A, Q, no_a_row, no_q_row = sys_.pair(args, False)
    A_r, Q_r, a_row, q_row = sys_.pair(args, True)
    assert no_a_row is None and no_q_row is None
    assert A == A_r == sys_.A.value(args)
    assert Q == Q_r == sys_.Q.value(args)
    assert a_row == sys_.A_row(args) and q_row == sys_.Q_row(args)
    assert len(a_row) == len(q_row) == len(args)
    for slot in range(len(args)):
        multi = [int(t == slot) for t in range(len(args))]
        assert sys_.A.partial(args, multi) == a_row[slot]
        assert sys_.Q.partial(args, multi) == q_row[slot]


def test_rows_ask_each_evaluator_at_most_once_per_point(monkeypatch):
    sys_ = _benney_system()
    asked = Counter()
    partials = JetEvaluator.partials

    def counted(self, args, multis):
        asked[id(self), tuple(args)] += 1
        return partials(self, args, multis)

    monkeypatch.setattr(JetEvaluator, "partials", counted)
    rows = [(sys_.A_row, (P1, P2, *V)), (sys_.Q_row, (P1, P2, *V))]
    rows += [(row, (P1, *V)) for row in sys_.B_rows]
    rows += [(lambda args: sys_.pair(args, True), (P1, P2, *V))]  # values and both rows
    for row, args in rows:
        asked.clear()
        row(args)
        assert asked and set(asked.values()) == {1}, row


def test_pushed_system_keeps_the_loci_of_g1():
    # Q reads g_1 at p2 (through g_1'(p2) / g_1(p2)), so each pulled-back
    # locus of the pushed g_1 must survive the remap onto both point slots
    ent = catalog.CATALOG["genus0"]
    s = ent.build(1)
    mu = CoordinateChange(JetEvaluator(2, lambda p, u: p + 0.05 * u * p * p, domain=Domain()))
    pushed = pushforward(s, mu)
    plain_sys = build_system(s, extra_exclusions=ent.gt_exclusions)
    pushed_sys = build_system(pushed, extra_exclusions=ent.gt_exclusions)
    added = len(pushed.f.domain.exclusions) - len(s.f.domain.exclusions)
    for name in ("A", "Q"):
        plain, got = getattr(plain_sys, name), getattr(pushed_sys, name)
        assert len(got.domain.exclusions) == len(plain.domain.exclusions) + added, name


# ---------------------------------------------------------------------------
# compatibility of the mixed second derivatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,n", [("benney", 2), ("genus0", 2)])
def test_compatibility_holds(name, n):
    ent = catalog.CATALOG[name]
    sys_ = build_system(ent.build(n), extra_exclusions=ent.gt_exclusions)
    rep = compatibility_residual(sys_, M=3, states=15, seed=17, tol=1e-9)
    assert rep.passed, rep.max_residual


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


def test_integrate_reduction_needs_two_steps():
    sys_ = build_system(catalog.build_structure("benney", 1))
    with pytest.raises(ConfigError):
        integrate_reduction(sys_, M=2, steps=1, h=0.02)


# integrate_reduction(benney(1), M=2, steps=4, h=0.02, seed=23) before the
# march memoised its flows: every float below must stay as it is
GOLDEN_RESIDUAL = 6.334079935976284e-06
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


@pytest.mark.parametrize("M,steps", [(2, 6), (3, 3)])
def test_march_asks_f_at_most_twice_per_point(monkeypatch, M, steps):
    # once for values and once with rows, whichever flows need it: the
    # flows are memoised per state and direction
    s = catalog.build_structure("benney", 2)
    sys_ = build_system(s)
    asked = Counter()
    partials = JetEvaluator.partials

    def counted(self, args, multis):
        if self is s.f:
            asked[tuple(args), any(sum(multi) == 2 for multi in multis)] += 1
        return partials(self, args, multis)

    monkeypatch.setattr(JetEvaluator, "partials", counted)
    integrate_reduction(sys_, M=M, steps=steps, h=0.02)
    assert asked and max(asked.values()) == 1
    points = Counter(args for args, _ in asked)
    assert max(points.values()) == 2  # some point is asked both ways


def test_convergence_ratio_is_second_order():
    sys_ = build_system(catalog.build_structure("benney", 1))
    ratio, coarse, fine = convergence_ratio(sys_, M=2, steps=10, h=0.02)
    assert 3.5 <= ratio <= 4.5, ratio
    assert fine.residual < coarse.residual
