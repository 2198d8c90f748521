"""Structure axioms, enhancement and transforms."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gtlab import catalog, cli, core, hierarchy, kernel, pool
from gtlab.core import (
    CoordinateChange,
    EnhancedGT,
    GTStructure,
    _diagonal_radius,
    _jet,
    _pairs,
    _make_report,
    add_points,
    collide_enhanced,
    collide_points_closed,
    pushforward,
    pushforward_lambda,
    verify_all,
    verify_bracket,
    verify_cocycle,
    verify_lambda,
    verify_pole,
    verify_potential,
)
from gtlab.errors import ConfigError, DomainViolation, SamplingExhausted
from gtlab.gtsys import build_system, compatibility_residual, inject_defect
from gtlab.kernel import (
    Diagonal,
    Domain,
    FixedPoints,
    HalfPlane,
    JetEvaluator,
    LatticePoints,
    PulledBack,
    ReindexedEvaluator,
    SplitMix64,
    laurent_coeff,
    multi_index,
    on_columns,
)

SAMPLES = 25


# ---------------------------------------------------------------------------
# defining identities on the catalog structures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,n,tol", [
    ("benney", 2, 1e-8),
    ("genus0", 2, 1e-8),
    ("genus1", 2, 1e-8),
    ("genus2", 0, 1e-6),
])
def test_axioms_hold(name, n, tol):
    s = catalog.build_structure(name, n)
    for rep in verify_all(s, SAMPLES, seed=1, tol=tol):
        assert rep.passed, f"{name}/{rep.identity}: {rep.max_residual}"


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1"])
def test_lambda_identity_holds(name):
    e = catalog.build_enhanced(name, 2)
    rep = verify_lambda(e, SAMPLES, seed=4, tol=1e-8)
    assert rep.passed, rep.max_residual


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1"])
def test_potential_identity_holds(name):
    e = catalog.build_enhanced(name, 2)
    for pot in catalog.build_potentials(name, 2):
        rep = verify_potential(e, pot, SAMPLES, seed=5, tol=1e-8)
        assert rep.passed, f"{name}/{pot.label}: {rep.max_residual}"


def test_axiom_violation_is_detected():
    # break the diagonal residue: f = 2/(p1-p2) has residue 2, not 1
    s = catalog.build_structure("benney", 1)
    bad_f = JetEvaluator(3, lambda p1, p2, u: 2.0 / (p1 - p2), domain=s.f.domain, label="bad",
                         partial_fn=lambda args, ms: [2.0 * x for x in s.f.partials(args, ms)])
    bad = type(s)(m=1, g=s.g, f=bad_f, p_box=s.p_box, v_boxes=s.v_boxes,
                  label="bad")
    reps = verify_all(bad, 10, seed=1, tol=1e-8)
    assert not reps[0].passed  # diagonal pole residue


# ---------------------------------------------------------------------------
# frozen point values (independent closed forms, evaluated by hand)
# ---------------------------------------------------------------------------


def test_benney_point_values():
    s = catalog.build_structure("benney", 2)
    v = (0.3 + 0.1j, -0.4 + 0.2j)
    p1, p2 = 1.1 + 0.5j, -0.7 + 0.9j
    assert s.f.value((p1, p2, *v)) == pytest.approx(1.0 / (p1 - p2), rel=1e-14)
    assert s.g[0].value((p1, *v)) == pytest.approx(1.0 / (p1 - v[0]), rel=1e-14)
    assert s.g[1].value((p1, *v)) == pytest.approx(1.0 / (p1 - v[1]), rel=1e-14)


# ---------------------------------------------------------------------------
# adding punctures, collisions, pushforwards
# ---------------------------------------------------------------------------


def test_add_points_extends_fiber_and_keeps_axioms():
    s = catalog.build_structure("genus0", 1)
    bigger = add_points(s, 2)
    assert bigger.m == s.m + 2
    for rep in verify_all(bigger, 15, seed=2, tol=1e-7):
        assert rep.passed, rep.identity


def test_add_points_refuses_fewer_than_one_point():
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        add_points(catalog.build_structure("genus0", 1), 0)


def test_collision_closed_form_keeps_axioms():
    s = catalog.build_structure("benney", 3)
    collided = collide_points_closed(s, [[0, 1]])
    assert collided.m == 3  # group of 2 -> position + multiplicity direction
    for rep in verify_all(collided, 15, seed=3, tol=1e-6):
        assert rep.passed, f"{rep.identity}: {rep.max_residual}"


@pytest.mark.parametrize("name, n, second", [
    ("benney", 3, [0, 2]), ("genus0", 3, [0, 2]), ("genus1", 3, [0, 2]), ("benney", 4, [0, 2, 3]),
])
def test_a_collided_structure_keeps_its_punctures(name, n, second):
    # a group's leader and every puncture outside the groups still have
    # g = f(p, u), so a collided structure can be collided again, and points
    # added to it join its punctures
    once = collide_points_closed(catalog.build_structure(name, n), [[0, 1]])
    assert once.puncture_slots == (0, *range(2, n))
    assert add_points(once, 1).puncture_slots == (*once.puncture_slots, once.m)
    twice = collide_points_closed(once, [second])
    assert twice.puncture_slots == tuple(slot for slot in once.puncture_slots
                                         if slot not in second[1:])
    for rep in verify_all(twice, 20, seed=1, tol=1e-8):
        assert rep.passed, (rep.identity, rep.max_residual)


def test_collision_limit_agrees_with_closed_form():
    # benney's g = 1/(p - u) with u = u0 + u1 t + u2 t^2/2 collided at t = 0
    # has the closed-form components u1/(p - u0)^2 at depth 1 and
    # 2 u1^2/(p - u0)^3 + u2/(p - u0)^2 at depth 2; f stays 1/(p1 - p2)
    s = collide_points_closed(catalog.build_structure("benney", 3), [[0, 1, 2]])
    for p1, p2, u0, u1, u2 in s.sample(10, seed=9, n_p=2).tolist():
        d = p1 - u0
        want = [1 / d, u1 / d ** 2, 2 * u1 ** 2 / d ** 3 + u2 / d ** 2, 1 / (p1 - p2)]
        got = [gi.value((p1, u0, u1, u2)) for gi in s.g] + [s.f.value((p1, p2, u0, u1, u2))]
        assert all(abs(a - b) <= 1e-13 * abs(b) for a, b in zip(got, want)), (got, want)


def test_collide_enhanced_keeps_lambda_identity():
    for name in ("benney", "genus0", "genus1"):
        ce = collide_enhanced(catalog.build_enhanced(name, 2), [[0, 1]])
        for seed in range(1, 5):
            rep = verify_lambda(ce, 20, seed, tol=1e-10)
            assert rep.passed, (name, seed, rep.max_residual)


def test_collided_lambda_reads_each_group_at_its_leader():
    # lambda's loci move onto each group's leader, as the collided g's do, and
    # the collided lambda does not move with a coordinate that is not a leader
    s = catalog.build_structure("benney", 2)
    lam = JetEvaluator(4, lambda p1, p2, u1, u2: 1 / (p1 - p2) + 1 / (p1 - u2),
                       Domain((Diagonal(0, 1), Diagonal(0, 3))), label="lam")
    ce = collide_enhanced(EnhancedGT(s, lam), [[0, 1]])
    assert [ex.slots for ex in ce.lam.domain.exclusions] == [(0, 1), (0, 2)]
    assert [ex.slots for ex in ce.base.g[1].domain.exclusions] == [(0, 1)]
    p1, p2, u1, u2 = ce.base.sample(3, seed=4, n_p=2).T
    assert np.allclose(ce.lam.value((p1, p2, u1, u2)), lam.value((p1, p2, u1, u1)), rtol=1e-15)
    assert not ce.lam.partials((p1, p2, u1, u2), [(0, 0, 0, 1), (0, 0, 0, 2)]).any()


def _by_circles(arity, fn, label):
    """The value-only ``fn`` as an evaluator whose partial_fn reads each
    partial off laurent_coeff circles of radius 0.35 about every point; the
    value goes to fn."""
    def partial_fn(args, multis):
        return [_circle_partial(e, args, multi) if any(multi) else NotImplemented
                for multi in multis]

    e = JetEvaluator(arity, fn, partial_fn=partial_fn, label=label)
    return e


def _circle_partial(e, args, multi):
    """k! times the k-th coefficient in the first slot ``multi`` raises (to
    k) of e's partial in the other slots: circles over circles for a mixed one."""
    slot = next(t for t, o in enumerate(multi) if o)
    rest = tuple(0 if t == slot else o for t, o in enumerate(multi))
    inner = JetEvaluator(e.arity, lambda *a: e.partials(a, [rest])[0]) if any(rest) else e
    [coeff] = laurent_coeff(inner, slot, args, np.full(len(args[0]), 0.35), [multi[slot]])
    return coeff * math.factorial(multi[slot])


def _quadratic_change(m, scale=0.05):
    """mu = p + scale u1 p^2 given by its value, its partials from circles."""
    def fn(*args):
        return args[0] + scale * args[1] * args[0] ** 2

    return CoordinateChange(_by_circles(1 + m, fn, "mu"))


def test_pushforward_keeps_axioms():
    s = catalog.build_structure("genus0", 1)
    pushed = pushforward(s, _quadratic_change(s.m))
    for rep in verify_all(pushed, 15, seed=7, tol=1e-6):
        assert rep.passed, f"{rep.identity}: {rep.max_residual}"


def test_pushforward_lambda_keeps_identity():
    e = catalog.build_enhanced("benney", 1)
    pe = pushforward_lambda(e, _quadratic_change(e.m))
    rep = verify_lambda(pe, 10, seed=8, tol=1e-6)
    assert rep.passed, rep.max_residual


def test_pushforward_identity_map_is_exact():
    s = catalog.build_structure("benney", 1)
    d_p = multi_index(1 + s.m, 0)
    ident = CoordinateChange(JetEvaluator(
        1 + s.m, lambda *a: a[0], domain=Domain(), label="id",
        partial_fn=lambda args, multis: [float(multi == d_p) if any(multi) else NotImplemented
                                         for multi in multis]))
    pushed = pushforward(s, ident)
    for row in s.sample(5, seed=10, n_p=2).tolist():
        assert pushed.f.value(tuple(row)) == pytest.approx(s.f.value(tuple(row)), rel=1e-9)


def _cli_pushforward(tmp_path, structure, seed, **cfg):
    """Exit code and report of the CLI's pushforward (mu = p + 0.05 u1 p^2)."""
    out = tmp_path / f"{structure}-{seed}.json"
    cfg = {"command": "pushforward", "structure": structure, "seed": seed,
           "samples": 10, "scale": 0.05, **cfg}
    code = cli.run(cfg, str(out))
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_genus2_pushforward_continues_the_sheet(tmp_path, seed):
    code, rep = _cli_pushforward(tmp_path, "genus2", seed)
    assert [e["identity"] for e in rep["reports"]] == ["diagonal_pole", "bracket", "cocycle"]
    assert code == 0 and rep["verdict"] == "pass"
    assert max(e["max_residual"] for e in rep["reports"]) < 1e-10


def test_principal_branch_pushed_genus2_f_fails(tmp_path, monkeypatch):
    # the same pushed fn, partials and domain in a plain evaluator: its
    # residue circles take q1 and q2 on the principal branch at every node,
    # so they cross the image of the square-root cut
    code, continued = _cli_pushforward(tmp_path, "genus2", 101)

    def principal(s, c):
        pushed = pushforward(s, c)
        pushed.f = JetEvaluator(pushed.f.arity, pushed.f.fn, domain=pushed.f.domain,
                                partial_fn=pushed.f.partial_fn)
        return pushed

    monkeypatch.setattr(cli, "pushforward", principal)
    _, plain = _cli_pushforward(tmp_path, "genus2", 101)
    assert code == 0
    assert max(e["max_residual"] for e in continued["reports"]) < 1e-10
    assert max(e["max_residual"] for e in plain["reports"]) > 1e-3


def test_pushed_genus2_mixed_partials_near_the_cut_match_differences_of_its_firsts():
    # by the CLI's mu, at a point whose p1 lies near the image of the
    # square-root cut: d_0 d_1 and d_0 d_2 of the pushed f from one
    # second-order jet at the point, against central differences in p1 of
    # its first partials.  With step h, D(h) = d + c h^2 + O(h^4), so
    # |D(2h) - D(h)| / 3 estimates the truncation of D(h); twice that, plus
    # the rounding of two first partials over 2h, bounds the gap
    s = catalog.build_structure("genus2")
    f = pushforward(s, _closed_form_quadratic_change(s.m)).f
    args = (1.3 + 0.01j, -0.6 + 0.8j, 1.7, 2.9, 4.1)
    h, eps = 1e-4, np.finfo(float).eps

    def quotient(step, inner):
        up, down = list(args), list(args)
        up[0] += step
        down[0] -= step
        ends = [f.partial(x, multi_index(5, inner)) for x in (up, down)]
        return (ends[0] - ends[1]) / (2 * step), max(map(abs, ends))

    for inner in (1, 2):
        got = f.partial(args, multi_index(5, 0, inner))
        (d_h, size), (d_2h, _) = quotient(h, inner), quotient(2 * h, inner)
        bound = 2 * abs(d_2h - d_h) / 3 + 64 * eps * size / h
        assert abs(got - d_h) <= bound, (inner, got, d_h, bound)


def test_pushed_f_declares_the_loci_of_its_g_term(tmp_path):
    # f~ holds g_1(mu(p1), v), singular where mu(p1) = u_1: without that
    # locus a cocycle circle here comes within reach of it (6.0e-5)
    code, rep = _cli_pushforward(tmp_path, "benney", 1234936988, n=1)
    assert code == 0, [(e["identity"], e["max_residual"]) for e in rep["reports"]]
    assert max(e["max_residual"] for e in rep["reports"]) < 1e-12
    # a g locus that f already declares is not pulled back twice
    s = catalog.build_structure("genus2")
    assert len(pushforward(s, _quadratic_change(s.m)).f.domain.exclusions) == len(
        s.f.domain.exclusions)


def test_genus1_pushforward_pole_circle_sees_each_locus(tmp_path):
    # each pulled-back locus keeps its own clearance: only the diagonal
    # vanishes at (p2, p2), so the puncture at 0 still bounds the circle
    _, rep = _cli_pushforward(tmp_path, "genus1", 101, n=1)
    pole = rep["reports"][0]
    assert pole["identity"] == "diagonal_pole" and pole["pass"], pole
    pushed = pushforward(catalog.build_structure("genus1", 1), _quadratic_change(2))
    p2, v = 0.2 + 0.1j, (0.5 - 0.3j, 0.3 + 1.1j)
    [radius] = _diagonal_radius(pushed.f, np.array([(p2, p2, *v)]).T)
    assert 0.0 < radius < 0.25


def _worst_first_partial_gap(e, points):
    """Largest gap between e's first partials and the circle oracle, relative
    to the larger of the oracle and e's value: a laurent_coeff circle over e's
    loop values, of radius a quarter of the slot's clearance, at most 0.35."""
    worst = 0.0
    for args in points:
        for slot in range(e.arity):
            multi = [0] * e.arity
            multi[slot] = 1
            cols = np.array([args], dtype=complex).T
            radius = min(0.25 * np.max(e.domain.clearance(cols, slot)), 0.35)
            [[want]] = laurent_coeff(e, slot, cols, [radius], [1])
            scale = max(abs(want), abs(e.value(args)))
            worst = max(worst, abs(e.partial(args, multi) - want) / scale)
    return worst


def _closed_form_quadratic_change(m, scale=0.05):
    """mu = p + scale u1 p^2 with its partials in closed form: the CLI's."""
    return CoordinateChange(cli.quadratic_mu(m, scale))


def _catalog_structure(name):
    return catalog.build_structure(name) if name == "genus2" else catalog.build_structure(name, 2)


@pytest.mark.parametrize("closed_mu", [True, False])
@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2"])
def test_pushed_first_partials_match_the_circle_oracle(name, closed_mu):
    s = _catalog_structure(name)
    change = (_closed_form_quadratic_change if closed_mu else _quadratic_change)(s.m)
    pushed = pushforward(s, change)
    points = pushed.sample(3, seed=11, n_p=2).tolist()
    for g in pushed.g:
        assert _worst_first_partial_gap(g, [(p1, *v) for p1, _, *v in points]) < 1e-10
    assert _worst_first_partial_gap(pushed.f, [tuple(row) for row in points]) < 1e-10


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1"])
def test_pushed_lambda_first_partials_match_the_circle_oracle(name):
    e = catalog.build_enhanced(name, 1)
    pushed = pushforward_lambda(e, _closed_form_quadratic_change(e.m))
    points = pushed.base.sample(3, seed=12, n_p=2).tolist()
    assert _worst_first_partial_gap(pushed.lam, [tuple(row) for row in points]) < 1e-10


_PUSHED_THROUGH = {"the CLI's mu": _closed_form_quadratic_change, "a value-only mu": _quadratic_change}


@pytest.mark.parametrize("mu", list(_PUSHED_THROUGH))
@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2"])
def test_pushed_columns_are_the_per_point_jets(name, mu):
    # a pushed g, f or lambda answers a sample set through its closures on
    # argument columns: the value and every first partial agree with the
    # per-point jet to rounding, each entry within rtol 1e-12 of the larger
    # of it and 1, and a second partial is the per-point row itself (asked
    # through the CLI's mu only: through a value-only one its circles nest).
    # genus2's pushed f wraps the sheet-tracking f
    s = _catalog_structure(name)
    change = _PUSHED_THROUGH[mu](s.m)
    pushed = pushforward(s, change)
    evaluators = [*pushed.g, pushed.f]
    if name != "genus2":
        evaluators.append(pushforward_lambda(catalog.build_enhanced(name, 2), change).lam)
    for e in evaluators:
        points = [tuple(row) for row in pushed.sample(4, seed=21, n_p=e.arity - s.m).tolist()]
        firsts = [multi_index(e.arity)] + [multi_index(e.arity, t) for t in range(e.arity)]
        second = [multi_index(e.arity, 0, 1)] if mu == "the CLI's mu" else []
        got = e.partials(tuple(np.array(points).T), firsts + second)
        want = np.array([e.partials(row, firsts + second) for row in points]).T
        n = len(firsts)
        gap = np.abs(got[:n] - want[:n]) / np.maximum(np.abs(want[:n]), 1.0)
        assert gap.max() <= 1e-12, (e.label, gap.max())
        assert np.array_equal(got[n:], want[n:]), e.label


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2"])
def test_pushed_sample_sets_leave_the_scalar_test_only_the_band(name, monkeypatch):
    # pulled-back loci answer argument columns through their map, and the
    # block mask is the only rule, no draw left to a scalar test: every
    # sample set is the one-draw rule's on columns of one, bit for bit
    s = _catalog_structure(name)
    pushed = pushforward(s, _closed_form_quadratic_change(s.m))
    screened = []

    def admitted(rng, boxes, fixed, count, budget, loci, threshold):
        out, tries = kernel.admitted(rng, boxes, fixed, count, budget, loci, threshold)
        assert any(isinstance(ex, PulledBack) for ex in loci), name
        screened.append(tries)
        return out, tries

    monkeypatch.setattr("gtlab.core.admitted", admitted)
    for n_p in (1, 2, 3):
        for seed in (1, 7, 101):
            assert _tuples(pushed.sample(20, seed, n_p), n_p) == _draw_by_draw_sample(
                pushed, 20, seed, n_p)
    assert sum(screened) > 180


@pytest.mark.parametrize("name,n,groups", [
    ("benney", 3, [[0, 1]]),          # depth 2
    ("benney", 3, [[0, 1, 2]]),       # depth 3
    ("benney", 4, [[0, 1], [2, 3]]),  # two groups
    ("genus1", 3, [[0, 1, 2]]),       # f depends on a fiber slot (tau)
])
def test_closed_collided_first_partials_match_the_circle_oracle(name, n, groups):
    collided = collide_points_closed(catalog.build_structure(name, n), groups)
    points = [tuple(row) for row in collided.sample(3, seed=13, n_p=1).tolist()]
    for g in collided.g:
        assert _worst_first_partial_gap(g, points) < 1e-10


def test_pushed_f_without_the_prefactor_derivative_is_caught():
    # drop d(mu_p(p1)^2 / mu_p(p2)) * B from the chain rule, B = f~ / K:
    # for mu = p + 0.05 u1 p^2 that term is f~ (2 d mu_p(p1) / mu_p(p1)
    # - d mu_p(p2) / mu_p(p2))
    s = catalog.build_structure("benney", 1)
    pushed = pushforward(s, _closed_form_quadratic_change(1))
    chain = pushed.f

    def dropped_one(args, multi):
        if sum(multi) != 1:
            return NotImplemented
        t = multi.index(1)
        p1, p2, u1 = args
        d1 = {0: 0.1 * u1, 2: 0.1 * p1}.get(t, 0.0) / (1.0 + 0.1 * u1 * p1)
        d2 = {1: 0.1 * u1, 2: 0.1 * p2}.get(t, 0.0) / (1.0 + 0.1 * u1 * p2)
        return chain.partial(args, multi) - chain.value(args) * (2.0 * d1 - d2)

    def dropped(args, multis):
        return [dropped_one(args, multi) for multi in multis]

    pushed.f = JetEvaluator(3, chain.fn, domain=chain.domain, partial_fn=dropped)
    points = [tuple(row) for row in pushed.sample(3, seed=11, n_p=2).tolist()]
    assert _worst_first_partial_gap(pushed.f, points) > 1e-3
    reports = {r.identity: r for r in verify_all(pushed, 10, seed=5, tol=1e-6)}
    assert reports["diagonal_pole"].passed  # values are untouched
    assert not reports["bracket"].passed and not reports["cocycle"].passed


def test_a_jet_quotient_without_its_divisor_term_is_caught(monkeypatch):
    # d(a / b) = (da - (a / b) db) / b: without the (a / b) db term the
    # pushed f's first partials, through mu_p(p1)^2 / mu_p(p2), miss the
    # circle oracle, and the bracket that reads them fails
    s = catalog.build_structure("benney", 2)
    pushed = pushforward(s, _closed_form_quadratic_change(s.m))
    points = [tuple(row) for row in pushed.sample(3, seed=11, n_p=2).tolist()]
    assert _worst_first_partial_gap(pushed.f, points) < 1e-10
    assert verify_bracket(pushed, 10, seed=5, tol=1e-6).passed

    def without_the_divisor_term(self, o):
        o = core._lift(o)
        return core._Jet(self.v / o.v, self.d / o.v)

    monkeypatch.setattr(core._Jet, "__truediv__", without_the_divisor_term)
    assert _worst_first_partial_gap(pushed.f, points) > 1e-3
    assert not verify_bracket(pushed, 10, seed=5, tol=1e-6).passed


# each operation of a first-order jet against its closed form, as (the
# operation, its value and partials from (a, da) and (b, db))
_JET_RULES = {
    "+": (lambda x, y: x + y, lambda a, da, b, db: (a + b, da + db)),
    "-": (lambda x, y: x - y, lambda a, da, b, db: (a - b, da - db)),
    "*": (lambda x, y: x * y, lambda a, da, b, db: (a * b, da * b + a * db)),
    "/": (lambda x, y: x / y, lambda a, da, b, db: (a / b, (da * b - a * db) / b**2)),
}


def _jet_operands(n):
    """Two value columns of n points away from 0, and two jets' partial rows in three slots."""
    rng = np.random.default_rng(n)
    cols = 2.0 + rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    rows = rng.normal(size=(2, 3, n)) + 1j * rng.normal(size=(2, 3, n))
    return cols, rows


def _close(got, want):
    return np.allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("sides", ["jet jet", "jet number", "number jet", "jet array",
                                   "array jet"])
@pytest.mark.parametrize("op", list(_JET_RULES))
def test_a_jet_follows_the_closed_form_of_each_operation(op, sides, n):
    # a number or an array is a jet with no partials, on either side (numpy
    # defers to the jet); a column of one is a point
    cols, rows = _jet_operands(n)
    operands = []
    for k, kind in enumerate(sides.split()):
        value = complex(cols[k][0]) if kind == "number" else cols[k]
        operands.append((core._Jet(value, rows[k]) if kind == "jet" else value, value,
                         rows[k] if kind == "jet" else np.zeros((3, n))))
    apply, closed = _JET_RULES[op]
    (x, a, da), (y, b, db) = operands
    got = apply(x, y)
    want_v, want_d = closed(a, da, b, db)
    assert isinstance(got, core._Jet)
    assert _close(got.v, want_v) and _close(got.d, want_d), (op, sides)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_jet_power_follows_its_closed_form(k, n):
    cols, rows = _jet_operands(n)
    got = core._Jet(cols[0], rows[0]) ** k
    assert _close(got.v, cols[0] ** k) and _close(got.d, k * cols[0] ** (k - 1) * rows[0])


# each operation of a second-order jet against its closed form, as (the
# operation, its second partials from (a, da, dda) and (b, db, ddb)); x y
# below is the symmetric product x_s y_t + x_t y_s
def _sym_product(x, y):
    return x[:, None] * y + y[:, None] * x


_SECOND_ORDER_RULES = {
    "+": (lambda x, y: x + y, lambda a, da, dda, b, db, ddb: dda + ddb),
    "-": (lambda x, y: x - y, lambda a, da, dda, b, db, ddb: dda - ddb),
    "*": (lambda x, y: x * y,
          lambda a, da, dda, b, db, ddb: dda * b + a * ddb + _sym_product(da, db)),
    "/": (lambda x, y: x / y,
          lambda a, da, dda, b, db, ddb: dda / b - _sym_product(da, db) / b**2 - a * ddb / b**2
          + a * _sym_product(db, db) / b**3),
}


def _hessians(n):
    """Two jets' symmetric rows of second partials in three slots."""
    rng = np.random.default_rng(n + 7)
    hess = rng.normal(size=(2, 3, 3, n)) + 1j * rng.normal(size=(2, 3, 3, n))
    return hess + hess.swapaxes(1, 2)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("sides", ["jet jet", "jet number", "number jet"])
@pytest.mark.parametrize("op", list(_SECOND_ORDER_RULES))
def test_a_second_order_jet_follows_the_closed_form_of_each_operation(op, sides, n):
    # a number beside a second-order jet is one with no partials, of its order
    cols, rows = _jet_operands(n)
    hess = _hessians(n)
    operands = []
    for k, kind in enumerate(sides.split()):
        jet = kind == "jet"
        value = cols[k] if jet else complex(cols[k][0])
        operands.append((core._Jet(value, rows[k], hess[k]) if jet else value, value,
                         rows[k] if jet else np.zeros((3, n)), hess[k] if jet else 0.0))
    apply, closed = _SECOND_ORDER_RULES[op]
    (x, *left), (y, *right) = operands
    got = apply(x, y)
    assert _close(got.dd, closed(*left, *right)), (op, sides)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_second_order_jet_power_follows_its_closed_form(k, n):
    cols, rows = _jet_operands(n)
    hess = _hessians(n)
    got = core._Jet(cols[0], rows[0], hess[0]) ** k
    want = (k * cols[0] ** (k - 1) * hess[0]
            + k * (k - 1) * cols[0] ** (k - 2) * rows[0][:, None] * rows[0])
    assert _close(got.dd, want)


def _catalog_evaluators():
    out = []
    for name in ("benney", "genus0", "genus1"):
        e = catalog.build_enhanced(name, 2)
        out += [(g.label, g, e.base) for g in e.base.g]
        out += [(e.base.f.label, e.base.f, e.base), (e.lam.label, e.lam, e.base)]
        out += [(f"{name} h {pot.label}", pot.h, e.base)
                for pot in catalog.build_potentials(name, 2)]
    genus2 = catalog.build_structure("genus2")
    return out + [(g.label, g, genus2) for g in genus2.g] + [(genus2.f.label, genus2.f, genus2)]


def _pushed_evaluators(change):
    out = []
    for name in ("benney", "genus0", "genus1", "genus2"):
        s = catalog.build_structure(name, 1)
        pushed = pushforward(s, change(s.m))
        out += [(f"{name} pushed g[{k}]", g, pushed) for k, g in enumerate(pushed.g)]
        out.append((f"{name} pushed f", pushed.f, pushed))
        if name != "genus2":
            e = pushforward_lambda(catalog.build_enhanced(name, 1), change(s.m))
            out.append((f"{name} pushed lambda", e.lam, e.base))
    return out


def _collided_evaluators():
    out = []
    for name, n, groups in (("benney", 3, [[0, 1]]), ("genus1", 3, [[0, 1]])):
        collided = collide_points_closed(catalog.build_structure(name, n), groups)
        out += [(g.label, g, collided) for g in collided.g]
    return out


def _added_point_evaluators():
    out = []
    for s in (catalog.build_structure("genus0", 1), catalog.build_structure("genus2")):
        bigger = add_points(s, 1)
        out += [(f"{bigger.label} g[{k}]", g, bigger) for k, g in enumerate(bigger.g)]
        out.append((f"{bigger.label} f", bigger.f, bigger))
    return out


# every kind of evaluator with a partial_fn, as (label, evaluator, structure
# whose samples feed it)
_WITH_A_PARTIAL_FN = {
    "catalog": _catalog_evaluators,
    "pushed through the CLI's mu": lambda: _pushed_evaluators(_closed_form_quadratic_change),
    "pushed through a value-only mu": lambda: _pushed_evaluators(_quadratic_change),
    "the CLI's mu": lambda: [(s.label, cli.quadratic_mu(s.m, 0.05), s) for s in (
        catalog.build_structure("benney", 1), catalog.build_structure("genus1", 1))],
    "closed-collided": _collided_evaluators,
    "add_points": _added_point_evaluators,
    "inject_defect": lambda: [(bad.f.label, bad.f, bad) for bad in (
        inject_defect(catalog.build_structure("benney", 2), seed=1),
        inject_defect(catalog.build_structure("genus2"), seed=1))],
}


@pytest.mark.parametrize("kind", list(_WITH_A_PARTIAL_FN))
def test_a_jet_request_answers_the_value_bit_for_bit(kind):
    # the zero multi-index reaches every partial_fn: one that answers it
    # must give fn's float, and one without a closed form declines it.  A
    # genus1 catalog evaluator sums its log-theta rectangle over a window
    # widened by the orders asked (kernel.theta_jet), so with its first
    # partials the value rounds apart from the value alone: within 1e-13 of
    # its size, the bound columns meet against points in
    # test_columns_agree_with_points
    wrong = []
    for label, e, s in _WITH_A_PARTIAL_FN[kind]():
        assert e.partial_fn is not None, label
        request = [multi_index(e.arity)] + [multi_index(e.arity, t) for t in range(e.arity)]
        for args in map(tuple, s.sample(2, seed=31, n_p=e.arity - s.m).tolist()):
            got, want = e.partials(args, request)[0], e.value(args)
            if label.startswith(("genus1:", "genus1 h")):
                if not abs(got - want) <= 1e-13 * abs(want):
                    wrong.append((label, args, got, want))
            elif (got.real.hex(), got.imag.hex()) != (want.real.hex(), want.imag.hex()):
                wrong.append((label, args, got, want))
    assert not wrong, wrong


@pytest.mark.parametrize("cfg", [
    {"command": "pushforward", "structure": "benney", "n": 1},
    {"command": "collide", "structure": "benney", "n": 3},
])
def test_transformed_first_partials_open_no_circle(tmp_path, monkeypatch, cfg):
    # verify_pole takes one Laurent circle per sample, all in one call;
    # every first partial of the bracket and the cocycle comes by the chain
    # rule, and a partial that opened a circle would sample one more batch
    # of circles
    circles = []
    eval_circle = kernel.JetEvaluator.eval_circle

    def counted(e, slot, args, *rest):
        circles.append((e.label, len(args[0])))
        return eval_circle(e, slot, args, *rest)

    monkeypatch.setattr(kernel.JetEvaluator, "eval_circle", counted)
    code = cli.run({**cfg, "seed": 101, "samples": 10}, str(tmp_path / "job.json"))
    assert code == 0
    assert len(circles) == 1 and circles[0][1] == 10, circles


def _full_minimum_sample(s, count, seed, n_p):
    """The admission rule GTStructure.sample had before it stopped at the
    first failing locus: the smallest clearance of every evaluator over all
    p-slot assignments, compared once against the separation, which it must
    exceed (the rule is strict)."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(2000 * max(count, 1)):
        if len(out) == count:
            break
        ps = tuple(rng.complex_in_box(s.p_box) for _ in range(n_p))
        v = tuple(rng.complex_in_box(b) for b in s.v_boxes)
        if any(abs(pa - pb) <= s.min_separation
               for i, pa in enumerate(ps) for pb in ps[i + 1:]):
            continue
        best = math.inf
        for p in ps:
            for gi in s.g:
                for slot in range(gi.arity):
                    best = min(best, gi.domain.clearance((p, *v), slot))
        for pa in ps:
            for pb in ps:
                if pa is not pb:
                    for slot in range(s.f.arity):
                        best = min(best, s.f.domain.clearance((pa, pb, *v), slot))
        if best <= s.min_separation:
            continue
        out.append((ps, v))
    return out


def _tuples(pts, n_p):
    """``sample``'s rows as the (p-points, fiber point) pairs the oracles build."""
    return [(tuple(row[:n_p]), tuple(row[n_p:])) for row in pts.tolist()]


def _sampled_structures():
    for entry in catalog.CATALOG.values():
        yield entry.build(2)
    yield pushforward(catalog.build_structure("genus0", 1), _quadratic_change(1))
    yield collide_points_closed(catalog.build_structure("benney", 3), [[0, 1]])


@pytest.mark.parametrize("n_p", [1, 2, 3])
def test_sample_admits_exactly_what_the_full_minimum_admitted(n_p):
    for s in _sampled_structures():
        for seed in (1, 7, 101):
            for count in (1, 20, 100):
                got = _tuples(s.sample(count, seed, n_p), n_p)
                assert got == _full_minimum_sample(s, count, seed, n_p), (s.label, count)


def test_a_sample_continues_a_stream_where_the_last_call_left_it():
    # calls on one SplitMix64 stream, in turn, draw the samples one call
    # from its seed draws, the same rows in the same order
    for s in _sampled_structures():
        for n_p in (1, 2, 3):
            stream = SplitMix64(7)
            parts = [s.sample(count, stream, n_p) for count in (3, 1, 0, 6)]
            assert np.array_equal(np.concatenate(parts), s.sample(10, 7, n_p)), s.label
            assert all(part.shape == (count, n_p + s.m) for part, count in zip(parts, (3, 1, 0, 6)))


def test_sampler_loci_are_memoized_per_structure():
    # the memo lives on the structure, keyed by n_p and its f and g objects:
    # a second call returns the same tuple (and with it the kernel's grouping
    # of the loci), while a fresh build, a different point count, a
    # reassigned f or g and a pushforward through another map each read
    # their evaluators afresh, to the loci a structure with an empty memo reads
    def fresh(s, n_p):
        return [ex.key() for ex in GTStructure(s.m, s.g, s.f)._sample_loci(n_p)]

    a, b = catalog.build_structure("genus0", 2), catalog.build_structure("genus0", 2)
    loci = a._sample_loci(2)
    assert a._sample_loci(2) is loci and b._sample_loci(2) is not loci
    a.sample(5, 1, 2)
    groups = kernel._locus_groups.cache_info()
    a.sample(5, 1, 2)
    assert kernel._locus_groups.cache_info().hits == groups.hits + 1
    c, d = catalog.build_structure("genus0", 2), catalog.build_structure("genus0", 2)
    before = c._sample_loci(2), d._sample_loci(2)
    extra = Domain((FixedPoints(0, [0.5j]),))  # a locus no other evaluator declares
    c.f = JetEvaluator(c.f.arity, c.f.fn, c.f.domain.merged(extra), c.f.partial_fn)
    d.g = (JetEvaluator(d.g[0].arity, d.g[0].fn, extra, d.g[0].partial_fn), *d.g[1:])
    pushed = [pushforward(a, change(a.m)) for change in (_quadratic_change,
                                                         _closed_form_quadratic_change)]
    for s, n_p, old in [(a, 3, loci), (c, 2, before[0]), (d, 2, before[1]),
                        (pushed[0], 2, loci), (pushed[1], 2, pushed[0]._sample_loci(2))]:
        assert s._sample_loci(n_p) is not old and s._sample_loci(n_p) is s._sample_loci(n_p)
    for s, n_p in [(a, 2), (b, 2), (a, 3), (c, 2), (d, 2), (pushed[0], 2), (pushed[1], 2)]:
        assert [ex.key() for ex in s._sample_loci(n_p)] == fresh(s, n_p), (s.label, n_p)
    assert fresh(c, 2) != fresh(b, 2) != fresh(d, 2)  # the extra locus is read


def _draw_by_draw_sample(s, count, seed, n_p):
    """The sampler's rule one draw at a time: a draw, read as a column of
    one, is kept when each pair of its points and each locus in
    ``_sample_loci`` order is more than the separation away (a NaN distance
    is not); after 2000 draws per sample it gives up."""
    rng = SplitMix64(seed)
    loci = _pairs(n_p) + s._sample_loci(n_p)
    out = []
    budget = 2000 * max(count, 1)
    for _ in range(budget):
        if len(out) == count:
            return out
        ps = tuple(rng.complex_in_box(s.p_box) for _ in range(n_p))
        v = tuple(rng.complex_in_box(b) for b in s.v_boxes)
        cols = tuple(np.array([x]) for x in ps + v)
        with np.errstate(invalid="ignore"):
            if all((ex.distance(cols) > s.min_separation).all() for ex in loci):
                out.append((ps, v))
    if len(out) == count:
        return out
    raise SamplingExhausted(f"{s.label}: {len(out)}/{count} samples after {budget} draws")


@pytest.mark.parametrize("name, kind", [("benney", Diagonal), ("genus0", FixedPoints),
                                        ("genus1", LatticePoints)])
def test_sample_decides_at_the_threshold_as_the_numbers_do(name, kind):
    # a first draw whose nearest locus is of ``kind``, with min_separation
    # set to its least distance as the sampler's block reads it: the rule is
    # strict, so the draw is rejected at exactly that threshold and admitted
    # when the threshold is one ulp lower
    s = catalog.build_structure(name, 2)
    n_p, count = 2, 1
    loci = _pairs(n_p) + s._sample_loci(n_p)
    boxes = (s.p_box,) * n_p + s.v_boxes
    found = []
    for seed in range(300):
        block = SplitMix64(seed).complex_in_boxes(boxes, 16 + 2 * count)
        read = min(np.concatenate([rep.distance(block.T[slots])
                                   for rep, slots in kernel._locus_groups(loci)])[:, 0])
        each = [float(ex.distance(block.T)[0]) for ex in loci]
        if isinstance(loci[each.index(min(each))], kind):
            found.append((seed, float(read), block[0].tolist()))
    assert len(found) >= 6, name
    for seed, threshold, first in found[:6]:
        s.min_separation = threshold
        assert s.sample(count, seed, n_p)[0].tolist() != first, seed
        s.min_separation = math.nextafter(threshold, 0.0)
        assert s.sample(count, seed, n_p)[0].tolist() == first, seed


def _last_draw_structure(seed: int, count: int) -> GTStructure:
    """m = 1, one point per sample: g's locus is fixed points at the p of every
    draw of ``seed``'s budget but the last, so only the last draw clears it."""
    rng = SplitMix64(seed)
    box, v_box = (-1.5, 1.5, -1.5, 1.5), (2.0, 3.0, 2.0, 3.0)
    draws = []
    for _ in range(2000 * count):
        draws.append(rng.complex_in_box(box))
        rng.complex_in_box(v_box)
    *earlier, last = draws
    g = JetEvaluator(2, lambda p, v: p - v, Domain((FixedPoints(0, earlier),)), label="g")
    f = JetEvaluator(3, lambda p1, p2, v: 1 / (p1 - p2), Domain((Diagonal(0, 1),)), label="f")
    sep = 0.5 * min(abs(last - p) for p in earlier)
    return GTStructure(1, [g], f, label="last", p_box=box, v_boxes=[v_box], min_separation=sep)


def test_sample_keeps_an_accept_on_the_last_draw_of_its_budget():
    s = _last_draw_structure(5, 1)
    (ps, v), = _tuples(s.sample(1, 5, 1), 1)
    assert _tuples(s.sample(1, 5, 1), 1) == _draw_by_draw_sample(s, 1, 5, 1)
    assert ps[0] not in s.g[0].domain.exclusions[0].points
    s = _last_draw_structure(6, 2)
    with pytest.raises(SamplingExhausted, match=r"^last: 1/2 samples after 4000 draws$"):
        s.sample(2, 6, 1)


@pytest.mark.parametrize("count", [1, 3])
def test_sample_exhausts_at_the_same_draw(count):
    s = catalog.build_structure("benney", 2)
    s.min_separation = 100.0
    message = f"{s.label}: 0/{count} samples after {2000 * count} draws"
    with pytest.raises(SamplingExhausted) as exc:
        s.sample(count, 9, 2)
    assert str(exc.value) == message
    assert s.sample(0, 9, 2).shape == (0, 2 + s.m)


def test_sample_fails_closed_off_the_half_plane_at_the_scalar_draw():
    # a tau box reaching Im tau <= 0: a draw there reads NaN from its
    # lattice loci, which clears nothing, even with the half-plane locus
    # left out; the samples are the one-draw rule's, and a tau box wholly off
    # the half plane exhausts the budget, with no error of the modulus
    s = catalog.build_structure("genus1", 2)
    s.v_boxes = s.v_boxes[:-1] + ((-0.4, 0.4, -1.0, 1.7),)
    loci = _pairs(2) + s._sample_loci(2)
    lattice = tuple(ex for ex in loci if not isinstance(ex, HalfPlane))
    boxes = (s.p_box,) * 2 + s.v_boxes
    for seed in (1, 2, 3):
        pts = s.sample(20, seed, 2)
        assert (pts[:, -1].imag > 0).all()
        assert _tuples(pts, 2) == _draw_by_draw_sample(s, 20, seed, 2)
        out, _ = kernel.admitted(SplitMix64(seed), boxes, (), 20, 40000, lattice,
                                 s.min_separation)
        assert len(out) == 20 and (out[:, -1].imag > 0).all()
    s.v_boxes = s.v_boxes[:-1] + ((-0.4, 0.4, -1.0, -0.2),)
    with pytest.raises(SamplingExhausted, match=r"^genus1\[2\]: 0/20 samples after 40000 draws$"):
        s.sample(20, 1, 2)
    boxes = (s.p_box,) * 2 + s.v_boxes
    out, tries = kernel.admitted(SplitMix64(1), boxes, (), 20, 400, lattice, s.min_separation)
    assert out.shape == (0, 5) and tries == 400


def test_sample_reads_a_reassigned_box_afresh():
    s = catalog.build_structure("benney", 2)
    first = _tuples(s.sample(5, 1, 2), 2)
    s.p_box = (0.0, 3.0, 2.0, 4.0)
    again = _tuples(s.sample(5, 1, 2), 2)
    assert again != first and again == _full_minimum_sample(s, 5, 1, 2)
    assert all(0.0 <= p.real <= 3.0 and 2.0 <= p.imag <= 4.0 for ps, _ in again for p in ps)


def test_sampler_asks_each_distinct_locus_once():
    # benney[2] over (p1, p2, u1, u2): each g_i's puncture diagonal at each
    # point; f's diagonal (0, 1) is the pairwise separation test's
    loci = catalog.build_structure("benney", 2)._sample_loci(2)
    assert [(type(ex).__name__, ex.slots) for ex in loci] == [
        ("Diagonal", (0, 2)), ("Diagonal", (0, 3)), ("Diagonal", (1, 2)),
        ("Diagonal", (1, 3))]
    # genus1[2]: every g_j and f declare Im tau > 0; it is asked once
    loci = catalog.build_structure("genus1", 2)._sample_loci(3)
    assert sum(type(ex).__name__ == "HalfPlane" for ex in loci) == 1


def test_sampler_asks_a_lattice_difference_in_one_slot_order():
    # genus1[2] over (p1, p2, u1, u2, tau): f declares p1 - p2 off the
    # lattice at (p1, p2) and at (p2, p1), which read the same distance
    s = catalog.build_structure("genus1", 2)
    loci = s._sample_loci(2)
    assert [(type(ex).__name__, ex.slots) for ex in loci] == [
        ("LatticePoints", (0, 2, 4)), ("LatticePoints", (0, 4)), ("HalfPlane", (4,)),
        ("LatticePoints", (0, 3, 4)), ("LatticePoints", (1, 2, 4)),
        ("LatticePoints", (1, 4)), ("LatticePoints", (1, 3, 4)),
        ("LatticePoints", (0, 1, 4))]
    args = tuple(s.sample(1, 3, 2)[0].tolist())
    assert LatticePoints(0, 4, 1).distance(args) == LatticePoints(1, 4, 0).distance(args)
    # a pair of sample points is never asked as a locus, in any catalog entry
    for entry in catalog.CATALOG.values():
        assert not any(isinstance(ex, Diagonal) and max(ex.slots) < 3
                       for ex in entry.build(2)._sample_loci(3))


# ---------------------------------------------------------------------------
# non-finite residuals fail closed
# ---------------------------------------------------------------------------


def test_report_with_a_nan_residual_fails_wherever_it_stands():
    for residuals in ([1e-12, math.nan, 1e-12], [math.nan, 1e-12], [1e-12, math.nan]):
        rep = _make_report("x", residuals, 1e-8, 1)
        assert math.isnan(rep.max_residual) and not rep.passed
    rep = _make_report("x", [1e-12, math.inf], 1e-8, 1)
    assert rep.max_residual == math.inf and not rep.passed


def _nan_f_structure(at: complex | None = None) -> GTStructure:
    """benney(2) whose f reads NaN wherever its first argument is ``at``
    (everywhere for None): in values and in partials, at a point and on
    argument columns."""
    s = catalog.build_structure("benney", 2)

    def spoiled(args, x):
        return np.where(at is None or args[0] == at, complex(math.nan, 0.0), x)

    f = JetEvaluator(s.f.arity, lambda *args: spoiled(args, s.f.fn(*args)),
                     domain=s.f.domain, label="nan f",
                     partial_fn=lambda args, multis: [spoiled(args, x)
                                                      for x in s.f.partial_fn(args, multis)])
    return GTStructure(m=s.m, g=s.g, f=f, label="benney+nan f", p_box=s.p_box,
                       v_boxes=s.v_boxes, min_separation=s.min_separation)


def test_nan_two_point_function_fails_bracket_and_compatibility():
    s = _nan_f_structure()
    rep = verify_bracket(s, samples=5, seed=2)
    assert math.isnan(rep.max_residual) and not rep.passed
    comp = compatibility_residual(build_system(s), M=3, states=3, seed=17)
    assert math.isnan(comp.max_residual) and not comp.passed


# (points per sample, seed, check) of every identity checked on a batch
BATCHED_CHECKS = {
    "bracket": (2, 2, lambda e, pot: verify_bracket(e.base, samples=7, seed=2)),
    "cocycle": (3, 3, lambda e, pot: verify_cocycle(e.base, samples=7, seed=3)),
    "lambda": (3, 4, lambda e, pot: verify_lambda(e, samples=7, seed=4)),
    "potential": (2, 5, lambda e, pot: verify_potential(e, pot, samples=7, seed=5)),
}


@pytest.mark.parametrize("where", [0, 3, 6])
@pytest.mark.parametrize("check", list(BATCHED_CHECKS))
def test_a_nan_at_one_sample_of_a_batch_fails_the_identity(check, where):
    # f reads NaN at the first, a middle or the last of 7 samples only;
    # the identity must report NaN, never the worst of the other six
    n_p, seed, run = BATCHED_CHECKS[check]
    enh = catalog.build_enhanced("benney", 2)
    pot = catalog.build_potentials("benney", 2)[0]
    assert run(enh, pot).passed
    p1 = enh.base.sample(7, seed, n_p)[where, 0]
    rep = run(EnhancedGT(_nan_f_structure(at=p1), enh.lam), pot)
    assert math.isnan(rep.max_residual) and not rep.passed


@pytest.mark.parametrize("where", [0, 3, 6])
@pytest.mark.parametrize("batched", [True, False])
def test_a_non_finite_circle_in_a_batch_fails_closed(batched, where):
    # the pole check's circles run in slot 0 with slot 1 at the centre, so
    # an f that reads NaN at one centre spoils exactly one circle of seven:
    # all seven as one batch of loops fail on it, and so does that circle
    # alone, while the others pass
    s = catalog.build_structure("benney", 2)
    points = s.sample(7, 1, 2)[:, [0, 0, 2, 3]]
    bad = points[where, 1]
    f = JetEvaluator(s.f.arity, lambda *args: np.where(args[1] == bad, math.nan, s.f.fn(*args)),
                     domain=s.f.domain, label="spoiled f")
    radii = _diagonal_radius(f, points.T)
    if batched:
        with pytest.raises(DomainViolation, match=f"non-finite samples on circle {where} of 7,"):
            f.eval_circle(0, tuple(points.T), radii, 16)
    else:  # each circle alone, a column of one
        for i in range(7):
            if i != where:
                assert np.isfinite(f.eval_circle(0, tuple(points[i:i + 1].T), radii[i:i + 1],
                                                 16)).all()
        with pytest.raises(DomainViolation, match="non-finite samples on circle 0 of 1, radius"):
            f.eval_circle(0, tuple(points[where:where + 1].T), radii[where:where + 1], 16)
    spoiled = GTStructure(m=s.m, g=s.g, f=f, p_box=s.p_box, v_boxes=s.v_boxes)
    with pytest.raises(DomainViolation, match="non-finite samples on"):
        verify_pole(spoiled, samples=7, seed=1)


@pytest.mark.parametrize("name", ["benney", "genus0"])
def test_an_injected_defect_fails_the_batched_bracket_and_cocycle(name):
    s = catalog.build_structure(name, 2)
    bad = inject_defect(s, scale=1e-2, seed=1)
    for check in (verify_bracket, verify_cocycle):
        assert check(s, samples=20).passed
        rep = check(bad, samples=20)
        assert not rep.passed and rep.max_residual > 1e-4, (check.__name__, rep.max_residual)


# ---------------------------------------------------------------------------
# construction-time arity checks survive python -O
# ---------------------------------------------------------------------------


def _const(arity: int) -> JetEvaluator:
    return JetEvaluator(arity, lambda *args: 1.0)


@pytest.mark.parametrize("build", [
    lambda s: GTStructure(m=2, g=s.g[:1], f=s.f),
    lambda s: GTStructure(m=2, g=s.g, f=_const(3)),
    lambda s: GTStructure(m=2, g=(s.g[0], _const(2)), f=s.f),
    lambda s: EnhancedGT(base=s, lam=_const(3)),
    lambda s: ReindexedEvaluator(s.f, 5, (0, 1, 2)),
    lambda s: ReindexedEvaluator(s.f, 5, (0, 1, 1, 2)),
])
def test_bad_construction_raises_value_error(build):
    with pytest.raises(ValueError):
        build(catalog.build_structure("benney", 2))


@pytest.mark.parametrize("groups", [[[0, 1], [1]], [[0, 3]], [[], [0]], [[0, 1], [1, 2]],
                                    [[0, 0]]],
                         ids=["overlapping", "not-a-puncture", "empty", "chained", "repeated"])
def test_bad_collision_groups_raise_config_error(groups):
    # a group must be non-empty, of punctures, and share no slot with itself
    # or another group
    with pytest.raises(ConfigError, match=r"^(collision groups must be non-empty and disjoint"
                                          r"|coordinate 3 of benney\[3\] is not a puncture)"):
        collide_points_closed(catalog.build_structure("benney", 3), groups)


def test_arity_check_holds_under_optimize_flag():
    code = (
        "from gtlab import catalog\n"
        "from gtlab.core import GTStructure\n"
        "s = catalog.build_structure('benney', 2)\n"
        "try:\n"
        "    GTStructure(m=2, g=s.g[:1], f=s.f)\n"
        "except ValueError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    out = _stdout_under_optimize_flag(code)
    assert out.startswith("rejected: need 2 g components")


def _stdout_under_optimize_flag(code: str) -> str:
    src = str(Path(catalog.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_per_call_arity_check_holds_under_optimize_flag():
    # benney f has arity 4: p1, p2, u1, u2
    code = (
        "from gtlab import catalog\n"
        "f = catalog.build_structure('benney', 2).f\n"
        "for call in (lambda: f.value([0.5 + 0.5j, 1.5 + 0.5j, 0.2]),\n"
        "             lambda: f.partial([0.5 + 0.5j, 1.5 + 0.5j, 0.2, 0.3], (1, 0, 0))):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    out = _stdout_under_optimize_flag(code)
    assert out.splitlines() == ["rejected: benney:f takes 4 arguments, got 3",
                                "rejected: benney:f takes 4 derivative orders, got 3"]


def test_partial_argument_count_check_holds_under_optimize_flag():
    code = (
        "from gtlab import catalog\n"
        "f = catalog.build_structure('benney', 2).f\n"
        "try:\n"
        "    f.partial([0.5 + 0.5j, 1.5 + 0.5j, 0.2, 0.3, 0.4], (1, 0, 0, 0))\n"
        "except ValueError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    out = _stdout_under_optimize_flag(code)
    assert out.splitlines() == ["rejected: benney:f takes 4 arguments, got 5"]


def _asked_per_point(monkeypatch):
    """Count, through ``partials`` on argument columns, how often each
    evaluator is asked at each point and how many calls it takes; asking
    ``partials``, ``partial`` or ``value`` at one point fails."""
    asked, calls = Counter(), Counter()
    partials = JetEvaluator.partials

    def counted(self, args, multis):
        calls[self.label] += 1
        for row in zip(*(col.tolist() for col in args)):
            asked[self.label, row] += 1
        return partials(self, args, multis)

    def columns_only(method):
        def checked(self, args, *rest):
            if not on_columns(args):
                raise AssertionError("a consumer asked for one point at a time")
            return method(self, args, *rest)

        return checked

    for name, method in (("partials", counted), ("partial", JetEvaluator.partial),
                         ("value", JetEvaluator.value)):
        monkeypatch.setattr(JetEvaluator, name, columns_only(method))
    return asked, calls


def test_bracket_asks_each_evaluator_once_per_point(monkeypatch):
    s = catalog.build_structure("benney", 2)
    asked, calls = _asked_per_point(monkeypatch)
    assert verify_bracket(s, samples=3, seed=2).passed
    # g_1 and g_2 at p1 and p2, f at (p1, p2) and at (p2, p1), per sample;
    # each evaluator in one call for the whole sample set
    assert len(asked) == 3 * (2 * 2 + 2)
    assert set(asked.values()) == {1}
    assert calls == {"benney:g[0]": 1, "benney:g[1]": 1, "benney:f": 1}
    # the count sees every ask: one at a single point fails it
    point = (0.1 + 0.2j, -0.3j, 0.5, 0.7j)
    for ask in (lambda: s.f.partials(point, [(0, 0, 0, 0)]), lambda: s.f.value(point),
                lambda: s.f.partial(point, (1, 0, 0, 0))):
        with pytest.raises(AssertionError, match="one point at a time"):
            ask()


# calls per evaluator: one per jet it is asked for (f's full jet and its
# p2 jet in the cocycle; lambda's full jet, its p2 partial, its value and
# its residue circles, and f's p2 jet and value; h's first partials at p2
# and its p partial at p1)
CALLS_PER_CHECK = {
    "cocycle": {"benney:f": 2},
    "lambda": {"benney:lambda": 4, "benney:f": 2},
    "potential": {"benney:h[0]": 2, "benney:lambda": 1, "benney:f": 1},
}


@pytest.mark.parametrize("check", ["cocycle", "lambda", "potential"])
def test_identities_ask_each_evaluator_at_most_once_per_point(monkeypatch, check):
    enh = catalog.build_enhanced("benney", 2)
    pot = catalog.build_potentials("benney", 2)[0]
    run = {"cocycle": lambda: verify_cocycle(enh.base, samples=3, seed=3),
           "lambda": lambda: verify_lambda(enh, samples=3, seed=4),
           "potential": lambda: verify_potential(enh, pot, samples=3, seed=5)}[check]
    asked, calls = _asked_per_point(monkeypatch)
    assert run().passed
    assert asked and set(asked.values()) == {1}
    assert calls == {"benney:g[0]": 1, "benney:g[1]": 1, **CALLS_PER_CHECK[check]}


def test_a_transformed_first_partial_request_asks_each_ingredient_once_per_point(monkeypatch):
    # every first partial of a pushed f comes from one pass of its formula
    # on jets: mu once at the p1 column and once at the p2 column, the
    # wrapped f once and each g_j once; a closed-collided g asks f once
    s = catalog.build_structure("benney", 2)
    pushed = pushforward(s, _closed_form_quadratic_change(s.m))
    points = pushed.sample(3, seed=11, n_p=2)
    collided = collide_points_closed(catalog.build_structure("benney", 3), [[0, 1, 2]])
    at = collided.sample(3, seed=13, n_p=1)
    asked, calls = _asked_per_point(monkeypatch)
    pushed.f.partials(tuple(points.T), _jet(pushed.f.arity, *range(pushed.f.arity))[1:])
    assert set(asked.values()) == {1}
    assert calls == {pushed.f.label: 1, "mu": 2, "benney:f": 1,
                     "benney:g[0]": 1, "benney:g[1]": 1}
    for g in collided.g[1:]:
        asked.clear()
        calls.clear()
        g.partials(tuple(at.T), _jet(g.arity, *range(g.arity))[1:])
        assert set(asked.values()) == {1}
        assert calls == {g.label: 1, "benney:f": 1}, g.label


# ---------------------------------------------------------------------------
# the loci a sample clears, deduplicated in one pass
# ---------------------------------------------------------------------------


def _declared_scan(locus, loci) -> bool:
    """The quadratic scan ``core._undeclared`` replaced, kept as its oracle:
    whether one of ``loci`` already bounds what ``locus`` would."""
    if isinstance(locus, Diagonal):
        return any(isinstance(e, Diagonal) and sorted(e.slots) == sorted(locus.slots)
                   for e in loci)
    if isinstance(locus, LatticePoints):
        return any(isinstance(e, LatticePoints) and e.tau_slot == locus.tau_slot
                   and {e.i, e.j} == {locus.i, locus.j} for e in loci)
    if isinstance(locus, FixedPoints):
        return any(isinstance(e, FixedPoints) and e.slots == locus.slots
                   and set(locus.points) <= set(e.points) for e in loci)
    return any(type(e) is type(locus) and vars(e) == vars(locus) for e in loci)


def _scanned(loci, declared=()) -> list:
    out = []
    for ex in loci:
        if not _declared_scan(ex, (*declared, *out)):
            out.append(ex)
    return out


def _transformed_structures():
    """Every catalog structure, and its pushed, collided and added-point transforms
    (two added points collided too)."""
    for name, entry in catalog.CATALOG.items():
        s = entry.build(2)
        yield s
        yield pushforward(s, _quadratic_change(s.m))
        if s.puncture_slots:
            yield collide_points_closed(s, [[0, 1]])
        yield add_points(s, 1)
        # two added punctures collide on every structure, genus2's included
        yield collide_points_closed(add_points(s, 2), [[s.m, s.m + 1]])


def test_one_pass_keeps_the_loci_the_scan_kept(monkeypatch):
    # every list the program dedupes (each structure's sample loci at 1 to 3
    # points, and each pushed f's g loci against f's own): the same loci,
    # the very objects, in the same order
    real, lists = core._undeclared, []

    def recorded(loci, declared=()):
        loci = list(loci)
        lists.append((loci, tuple(declared)))
        return real(loci, declared)

    monkeypatch.setattr(core, "_undeclared", recorded)
    for s in _transformed_structures():
        for n_p in (1, 2, 3):
            s._sample_loci(n_p)
    assert sum(bool(declared) for _, declared in lists) == 4  # one per pushforward
    assert sum(len(loci) for loci, _ in lists) > 2 * sum(len(real(*args)) for args in lists)
    for loci, declared in lists:
        got = real(loci, declared)
        assert [id(ex) for ex in got] == [id(ex) for ex in _scanned(loci, declared)]


def test_one_pass_keeps_the_superset_rule_and_pulled_back_identity():
    small, large = FixedPoints(0, [0.0]), FixedPoints(0, [1.0, 0.0])
    assert core._undeclared([small, large, FixedPoints(0, [1.0])]) == [small, large]
    assert core._undeclared([large, small, FixedPoints(1, [0.0])])[::2] == [large]
    assert core._undeclared([small], [large]) == []
    lattice = [LatticePoints(0, 2, 1), LatticePoints(1, 2, 0), LatticePoints(0, 2)]
    assert core._undeclared(lattice) == lattice[::2]
    image = lambda args: args  # noqa: E731
    twins = [kernel.PulledBack(image, Diagonal(0, 1), (0, 1)) for _ in range(2)]
    same = kernel.PulledBack(image, twins[0].locus, (0, 1))
    assert core._undeclared([*twins, same]) == twins == _scanned([*twins, same])


# ---------------------------------------------------------------------------
# one jets call per check
# ---------------------------------------------------------------------------


def _genus1_checks(n):
    """(name, call) of every genus-1 check at n punctures that asks ``jets``:
    bracket, cocycle, lambda, each potential and, from n = 3 on, the
    compatibility tensor of potentials 0, 1 and 2."""
    e = catalog.build_enhanced("genus1", n)
    s, pots = e.base, catalog.build_potentials("genus1", n)
    checks = [("bracket", lambda: verify_bracket(s, 6)), ("cocycle", lambda: verify_cocycle(s, 6)),
              ("lambda", lambda: verify_lambda(e, 6))]
    checks += [(f"potential {pot.label}", lambda pot=pot: verify_potential(e, pot, 6))
               for pot in pots]
    if len(pots) >= 3:
        fam = hierarchy.PotentialFamily(s, pots, enhanced=e)
        v = tuple(s.sample(1, 1, 1)[0, 1:].tolist())
        zs = fam.sample_z(12, 7, v)
        checks.append(("compatibility tensor",
                       lambda: hierarchy.compatibility_tensor(fam, 0, 1, 2, v, zs)))
    return checks


def _recorded_jets(monkeypatch) -> list:
    """Every ``jets`` call the checks make: its requests and its tables."""
    calls, real = [], kernel.jets

    def recorded(requests):
        requests = list(requests)
        tables = real(requests)
        calls.append((requests, tables))
        return tables

    monkeypatch.setattr(core, "jets", recorded)
    monkeypatch.setattr(hierarchy, "jets", recorded)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pooled_tables_equal_each_requests_own(monkeypatch, n):
    # one call per check; a pooled series has the widest window and orders
    # of its columns, so an entry rounds apart from its own request's within
    # the 1e-13 of its size that test_each_half_of_a_stacked_series_matches_its_own_column
    # allows
    calls = _recorded_jets(monkeypatch)
    for name, check in _genus1_checks(n):
        calls.clear()
        check()
        [(requests, tables)] = calls
        assert any(e.pool for e, _, _ in requests), name
        for (e, args, multis), table in zip(requests, tables):
            own = e.partials(args, multis)
            assert table.shape == own.shape
            assert np.all(np.abs(table - own) <= 1e-13 * np.abs(own)), (name, e.label)


# theta series per check, at every n: one per kernel (rho, and log theta for
# an h difference) and the lambda residue circles' own
SERIES_PER_CHECK = {"bracket": 1, "cocycle": 1, "lambda": 2, "potential p-tau": 1,
                    "compatibility tensor": 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_check_sums_one_theta_series_per_kernel(monkeypatch, n):
    calls, original = [], kernel.theta_jet

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, "theta_jet", counted)
    monkeypatch.setattr(catalog, "theta_jet", counted)
    for name, check in _genus1_checks(n):
        calls.clear()
        check()
        assert len(calls) == SERIES_PER_CHECK.get(name, 2), name


def _pooled_requests(fault=None):
    """A g jet at p1, g[tau]'s value, and an f jet at (p1, p2) of genus1[2] at four
    samples, with ``fault`` put in p2 of sample 2 of the f request."""
    s = catalog.build_structure("genus1", 2)
    pts = s.sample(4, 3, 2)
    f_at = [col.copy() for col in core._rows(s, pts, (0, 1))]
    if fault is not None:
        f_at[1][2] = fault
    g_at = core._rows(s, pts, (0,))
    return [(s.g[0], g_at, [multi_index(4), multi_index(4, 0)]), (s.g[2], g_at, [multi_index(4)]),
            (s.f, tuple(f_at), [multi_index(5), multi_index(5, 1)])]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault, error", [(complex(math.nan, 0.2), DomainViolation),
                                          (0.6 - 300j, OverflowError)])
def test_a_fault_in_a_later_pooled_request_raises_as_that_request_alone(fault, error):
    # the pooled series names the point by its place in the columns of all
    # the requests; the requests asked again one by one name it in its own
    requests = _pooled_requests(fault)
    with pytest.raises(error) as alone:
        for e, args, multis in requests:
            e.partials(args, multis)
    with pytest.raises(error) as pooled:
        pool._pooled([requests[0], requests[2]])
    with pytest.raises(error) as jets:
        kernel.jets(requests)
    assert str(alone.value).endswith("(point 2 of 4)")
    assert str(pooled.value) != str(alone.value)
    assert type(jets.value) is error and str(jets.value) == str(alone.value)


def test_the_pool_and_not_the_partial_fn_decides(monkeypatch):
    # a span tracer swaps each evaluator's partial_fn: the pooled call is the
    # same one, its tables bit for bit, and the swapped function is not asked
    requests = _pooled_requests()
    want = kernel.jets(requests)
    asked = []
    for e, _, _ in requests:
        if e.pool:
            monkeypatch.setattr(e, "partial_fn", lambda args, multis, _fn=e.partial_fn:
                                asked.append(multis) or _fn(args, multis))
    got = kernel.jets(requests)
    assert not asked
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_request_without_a_pool_goes_to_its_partials_as_asked(monkeypatch):
    s = catalog.build_structure("benney", 2)
    at = core._rows(s, s.sample(3, 1, 2), (0, 1))
    requests = [(s.f, at, [multi_index(4)]), (s.f, at, [multi_index(4, 1)])]
    seen, partials = [], JetEvaluator.partials

    def recorded(self, args, multis):
        seen.append((self, args, multis))
        return partials(self, args, multis)

    monkeypatch.setattr(JetEvaluator, "partials", recorded)
    tables = kernel.jets(requests)
    assert [tuple(map(id, ask)) for ask in seen] == [tuple(map(id, ask)) for ask in requests]
    assert all(np.array_equal(t, partials(*ask)) for t, ask in zip(tables, requests))
