"""Structure axioms, enhancement, transforms, and the algebroid table."""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gtlab import catalog, cli
from gtlab.core import (
    CoordinateChange,
    EnhancedGT,
    GTStructure,
    _diagonal_radius,
    _make_report,
    add_points,
    algebroid_constants,
    collide_enhanced,
    collide_points_closed,
    collide_points_limit,
    contour_endpoint_defect,
    potential_from_contour,
    pushforward,
    pushforward_lambda,
    verify_all,
    verify_bracket,
    verify_cocycle,
    verify_lambda,
    verify_potential,
)
from gtlab.errors import DomainViolation
from gtlab.gtsys import build_system, compatibility_residual
from gtlab.kernel import (
    Diagonal,
    Domain,
    JetEvaluator,
    LatticePoints,
    ReindexedEvaluator,
    SplitMix64,
    cauchy_derivative,
    circle_path,
    polyline_path,
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
    bad_f = JetEvaluator(3, lambda p1, p2, u: 2.0 / (p1 - p2),
                         domain=s.f.domain, label="bad")
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


def test_collision_closed_form_keeps_axioms():
    s = catalog.build_structure("benney", 3)
    collided = collide_points_closed(s, [[0, 1]])
    assert collided.m == 3  # group of 2 -> position + multiplicity direction
    for rep in verify_all(collided, 15, seed=3, tol=1e-6):
        assert rep.passed, f"{rep.identity}: {rep.max_residual}"


def test_collision_limit_agrees_with_closed_form():
    s = catalog.build_structure("benney", 2)
    lim = collide_points_limit(s, [[0, 1]])
    closed = collide_points_closed(s, [[0, 1]])
    for ps, v in closed.sample(10, seed=9, n_p=2):
        a = lim.f.value((*ps, *v))
        b = closed.f.value((*ps, *v))
        assert a == pytest.approx(b, rel=1e-5)
        for gl, gc in zip(lim.g, closed.g):
            assert gl.value((ps[0], *v)) == pytest.approx(
                gc.value((ps[0], *v)), rel=1e-5)


def test_collide_enhanced_keeps_lambda_identity():
    e = catalog.build_enhanced("benney", 2)
    ce = collide_enhanced(e, [[0, 1]])
    rep = verify_lambda(ce, 10, seed=6, tol=1e-5)
    assert rep.passed, rep.max_residual


def _quadratic_change(m, scale=0.05):
    def fn(*args):
        return args[0] + scale * args[1] * args[0] ** 2

    return CoordinateChange(JetEvaluator(1 + m, fn, domain=Domain(),
                                         label="mu"))


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
    ident = CoordinateChange(
        JetEvaluator(1 + s.m, lambda *a: a[0], domain=Domain(), label="id"))
    pushed = pushforward(s, ident)
    for ps, v in s.sample(5, seed=10, n_p=2):
        assert pushed.f.value((*ps, *v)) == pytest.approx(
            s.f.value((*ps, *v)), rel=1e-9)


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
    # the same pushed fn and domain in a plain evaluator: its circles take
    # q1 and q2 on the principal branch at every node, so they cross the
    # image of the square-root cut
    code, continued = _cli_pushforward(tmp_path, "genus2", 101)

    def principal(s, c):
        pushed = pushforward(s, c)
        pushed.f = JetEvaluator(pushed.f.arity, pushed.f.fn, domain=pushed.f.domain)
        return pushed

    monkeypatch.setattr(cli, "pushforward", principal)
    _, plain = _cli_pushforward(tmp_path, "genus2", 101)
    assert code == 0
    assert max(e["max_residual"] for e in continued["reports"]) < 1e-10
    assert max(e["max_residual"] for e in plain["reports"]) > 1e-3


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
    assert 0.0 < _diagonal_radius(pushed.f, p2, v) < 0.25


class _ValueOnly(JetEvaluator):
    """The same fn, domain and loop values as ``e``, without its
    partial_fn: every partial is a Cauchy circle over e's value rows."""

    def __init__(self, e):
        self.e = e
        super().__init__(e.arity, e.fn, domain=e.domain, label=f"value-only {e.label}")

    def eval_rows(self, rows, anchor, rests):
        return self.e.eval_rows(rows, anchor, rests)


def _worst_first_partial_gap(e, points):
    """Largest gap between e's first partials and the circle oracle, relative
    to the larger of the oracle and e's value."""
    oracle = _ValueOnly(e)
    worst = 0.0
    for args in points:
        for slot in range(e.arity):
            multi = [0] * e.arity
            multi[slot] = 1
            want = cauchy_derivative(oracle, slot, args, 1)
            scale = max(abs(want), abs(e.value(args)))
            worst = max(worst, abs(e.partial(args, multi) - want) / scale)
    return worst


def _closed_form_quadratic_change(m, scale=0.05):
    """mu = p + scale u1 p^2 with its partials in closed form."""
    def pf(args, multi):
        pt, u1 = args[0], args[1]
        if any(multi[2:]) or multi[1] > 1 or multi[0] > 2:
            return 0.0 + 0.0j
        if multi[1]:
            return (scale * pt**2, 2.0 * scale * pt, 2.0 * scale)[multi[0]]
        return 1.0 + 2.0 * scale * u1 * pt if multi[0] == 1 else 2.0 * scale * u1

    mu = _quadratic_change(m, scale).mu
    return CoordinateChange(JetEvaluator(1 + m, mu.fn, domain=Domain(), partial_fn=pf,
                                         label="mu"))


def _catalog_structure(name):
    return catalog.build_structure(name) if name == "genus2" else catalog.build_structure(name, 2)


@pytest.mark.parametrize("closed_mu", [True, False])
@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2"])
def test_pushed_first_partials_match_the_circle_oracle(name, closed_mu):
    s = _catalog_structure(name)
    change = (_closed_form_quadratic_change if closed_mu else _quadratic_change)(s.m)
    pushed = pushforward(s, change)
    points = pushed.sample(3, seed=11, n_p=2)
    for g in pushed.g:
        assert _worst_first_partial_gap(g, [(ps[0], *v) for ps, v in points]) < 1e-10
    assert _worst_first_partial_gap(pushed.f, [(*ps, *v) for ps, v in points]) < 1e-10


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1"])
def test_pushed_lambda_first_partials_match_the_circle_oracle(name):
    e = catalog.build_enhanced(name, 1)
    pushed = pushforward_lambda(e, _closed_form_quadratic_change(e.m))
    points = pushed.base.sample(3, seed=12, n_p=2)
    assert _worst_first_partial_gap(pushed.lam, [(*ps, *v) for ps, v in points]) < 1e-10


@pytest.mark.parametrize("name,n,groups", [
    ("benney", 3, [[0, 1]]),          # depth 2
    ("benney", 3, [[0, 1, 2]]),       # depth 3
    ("benney", 4, [[0, 1], [2, 3]]),  # two groups
    ("genus1", 3, [[0, 1, 2]]),       # f depends on a fiber slot (tau)
])
def test_closed_collided_first_partials_match_the_circle_oracle(name, n, groups):
    collided = collide_points_closed(catalog.build_structure(name, n), groups)
    points = [(ps[0], *v) for ps, v in collided.sample(3, seed=13, n_p=1)]
    for g in collided.g:
        assert _worst_first_partial_gap(g, points) < 1e-10


def test_pushed_f_without_the_prefactor_derivative_is_caught():
    # drop d(mu_p(p1)^2 / mu_p(p2)) * B from the chain rule, B = f~ / K:
    # for mu = p + 0.05 u1 p^2 that term is f~ (2 d mu_p(p1) / mu_p(p1)
    # - d mu_p(p2) / mu_p(p2))
    s = catalog.build_structure("benney", 1)
    pushed = pushforward(s, _closed_form_quadratic_change(1))
    chain = pushed.f

    def dropped(args, multi):
        if sum(multi) != 1:
            return NotImplemented
        t = multi.index(1)
        p1, p2, u1 = args
        d1 = {0: 0.1 * u1, 2: 0.1 * p1}.get(t, 0.0) / (1.0 + 0.1 * u1 * p1)
        d2 = {1: 0.1 * u1, 2: 0.1 * p2}.get(t, 0.0) / (1.0 + 0.1 * u1 * p2)
        return chain.partial(args, multi) - chain.value(args) * (2.0 * d1 - d2)

    pushed.f = JetEvaluator(3, chain.fn, domain=chain.domain, partial_fn=dropped)
    points = [(*ps, *v) for ps, v in pushed.sample(3, seed=11, n_p=2)]
    assert _worst_first_partial_gap(pushed.f, points) > 1e-3
    reports = {r.identity: r for r in verify_all(pushed, 10, seed=5, tol=1e-6)}
    assert reports["diagonal_pole"].passed  # values are untouched
    assert not reports["bracket"].passed and not reports["cocycle"].passed


@pytest.mark.parametrize("cfg", [
    {"command": "pushforward", "structure": "benney", "n": 1},
    {"command": "collide", "structure": "benney", "n": 3},
])
def test_transformed_first_partials_open_no_circle(tmp_path, monkeypatch, cfg):
    # verify_pole takes one Laurent circle per sample; every first partial
    # of the bracket and the cocycle comes by the chain rule
    calls = []
    circle = JetEvaluator.eval_circle

    def counted(self, *args, **kwargs):
        calls.append(self.label)
        return circle(self, *args, **kwargs)

    monkeypatch.setattr(JetEvaluator, "eval_circle", counted)
    code = cli.run({**cfg, "seed": 101, "samples": 10}, str(tmp_path / "job.json"))
    assert code == 0
    assert len(calls) == 10 and len(set(calls)) == 1, calls


def _full_minimum_sample(s, count, seed, n_p):
    """The admission rule GTStructure.sample had before it stopped at the
    first failing locus: the smallest clearance of every evaluator over all
    p-slot assignments, compared once against the separation."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(2000 * max(count, 1)):
        if len(out) == count:
            break
        ps = tuple(rng.complex_in_box(s.p_box) for _ in range(n_p))
        v = tuple(rng.complex_in_box(b) for b in s.v_boxes)
        if any(abs(pa - pb) < s.min_separation
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
        if best < s.min_separation:
            continue
        out.append((ps, v))
    return out


def _sampled_structures():
    for entry in catalog.CATALOG.values():
        yield entry.build(2)
    yield pushforward(catalog.build_structure("genus0", 1), _quadratic_change(1))
    yield collide_points_closed(catalog.build_structure("benney", 3), [[0, 1]])


@pytest.mark.parametrize("n_p", [2, 3])
def test_sample_admits_exactly_what_the_full_minimum_admitted(n_p):
    for s in _sampled_structures():
        for seed in (1, 7, 101):
            assert s.sample(20, seed, n_p) == _full_minimum_sample(s, 20, seed, n_p), s.label


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
    (ps, v), = s.sample(1, 3, 2)
    args = ps + v
    assert LatticePoints(0, 4, 1).distance(args) == LatticePoints(1, 4, 0).distance(args)
    # a pair of sample points is never asked as a locus, in any catalog entry
    for entry in catalog.CATALOG.values():
        assert not any(isinstance(ex, Diagonal) and max(ex.slots) < 3
                       for ex in entry.build(2)._sample_loci(3))


# ---------------------------------------------------------------------------
# algebroid structure constants
# ---------------------------------------------------------------------------


def test_algebroid_coeffs_vanish_when_f_is_bare_pole():
    # benney has f = 1/(p1-p2) exactly, so every Taylor coefficient of the
    # regular part is zero
    s = catalog.build_structure("benney", 1)
    table = algebroid_constants(s, z=0.3 + 0.4j, v=(1.5 + 0.2j,), order=3)
    for coeff in table.f_coeffs.values():
        assert abs(coeff) < 1e-10


def test_algebroid_table_sees_a_diagonal_declared_as_lattice_points():
    # genus1 declares its diagonal as LatticePoints(0, tau, 1): the radii
    # skip it by vanishing at (z, z), as the pole check's do, and stay
    # bounded by the lattice point at 0
    s = catalog.build_structure("genus1", 1)
    _, v = s.sample(1, 3, 1)[0]
    z = 0.1 + 0.05j
    table = algebroid_constants(s, z=z, v=v, order=3)
    assert all(cmath.isfinite(c) for c in table.f_coeffs.values())

    def regular(p1):
        return s.f.value((p1, z, *v)) - 1.0 / (p1 - z)

    # the symmetric mean about z cancels the first-order term
    d = 1e-5
    assert abs(0.5 * (regular(z + d) + regular(z - d)) - table.f_coeffs[(0, 0)]) < 1e-6


def test_algebroid_bracket_antisymmetry_and_lowest_rung():
    s = catalog.build_structure("genus0", 1)
    table = algebroid_constants(s, z=0.4 + 0.6j, v=(0.5 + 1.1j,), order=4)
    for i in range(1, 4):
        for j in range(1, 4):
            bij = table.bracket(i, j)
            bji = table.bracket(j, i)
            keys = set(bij) | set(bji)
            for k in keys:
                assert bij.get(k, 0j) == pytest.approx(-bji.get(k, 0j),
                                                       abs=1e-10)
    # [e_1, e_j] = (j-1) e_{j+1}: e_1 only translates the expansion point
    for j in range(2, 5):
        b = table.bracket(1, j)
        assert set(b) == {j + 1}
        assert b[j + 1] == pytest.approx(complex(j - 1), abs=1e-10)


def test_contour_endpoint_defect_zero_for_closed_path():
    e = catalog.build_enhanced("benney", 1)
    path = circle_path(5.0 + 5.0j, 0.5, nodes=16)
    assert contour_endpoint_defect(e, path, 0.1, 0.2, (0.4,)) == 0.0


def test_contour_potential_matches_log_closed_form():
    # lambda = 1/(p1 - p2) on the sphere, so h(p) = int_0^1 dt / (t - p)
    # = Log((p - 1)/p) off [0, 1]; the endpoint condition holds because
    # f(p1, 0) = f(p1, 1) = 0
    e = catalog.genus0_enhanced(2)
    probe = e.base.sample(1, 3, 2)[0]
    pot = potential_from_contour(e, polyline_path([0, 1]), endpoint_tol=1e-12,
                                 endpoint_probe=probe)
    v = (0.3 + 0.2j, -0.7 + 1.1j)
    for p in (0.5 + 1j, -1 + 0.5j, 2 - 1j, 0.3 - 0.8j, 1.6 + 0.2j):
        assert abs(pot.h.value((p, *v)) - cmath.log((p - 1) / p)) <= 1e-12
    # the box keeps samples and their derivative circles clear of the cut
    # [0, 1]: potential_from_contour cannot declare the cut in its domain, so
    # on the default genus0 box the Cauchy circles cross it (a known defect)
    e.base.p_box = (-2.0, 2.0, 0.6, 2.0)
    rep = verify_potential(e, pot, samples=20, seed=5)
    assert rep.passed, rep.max_residual


def test_contour_endpoint_condition_is_enforced():
    e = catalog.genus0_enhanced(2)
    probe = e.base.sample(1, 3, 2)[0]
    with pytest.raises(DomainViolation):
        potential_from_contour(e, polyline_path([0, 0.5]), endpoint_tol=1e-12,
                               endpoint_probe=probe)


# ---------------------------------------------------------------------------
# non-finite residuals fail closed
# ---------------------------------------------------------------------------


def test_report_with_a_nan_residual_fails_wherever_it_stands():
    for residuals in ([1e-12, math.nan, 1e-12], [math.nan, 1e-12], [1e-12, math.nan]):
        rep = _make_report("x", residuals, 1e-8, 1)
        assert math.isnan(rep.max_residual) and not rep.passed
    rep = _make_report("x", [1e-12, math.inf], 1e-8, 1)
    assert rep.max_residual == math.inf and not rep.passed


def _nan_f_structure() -> GTStructure:
    s = catalog.build_structure("benney", 2)
    nan = complex(math.nan, 0.0)
    f = JetEvaluator(s.f.arity, lambda *args: nan, domain=s.f.domain,
                     partial_fn=lambda args, multi: nan, label="nan f")
    return GTStructure(m=s.m, g=s.g, f=f, label="benney+nan f", p_box=s.p_box,
                       v_boxes=s.v_boxes, min_separation=s.min_separation)


def test_nan_two_point_function_fails_bracket_and_compatibility():
    s = _nan_f_structure()
    rep = verify_bracket(s, samples=5, seed=2)
    assert math.isnan(rep.max_residual) and not rep.passed
    comp = compatibility_residual(build_system(s), M=3, states=3, seed=17)
    assert math.isnan(comp.max_residual) and not comp.passed


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
    lambda s: collide_points_limit(s, [[0, 1], [1]]),
    lambda s: collide_points_limit(s, [[0, 2]]),
    lambda s: collide_points_limit(s, [[], [0]]),
])
def test_bad_construction_raises_value_error(build):
    with pytest.raises(ValueError):
        build(catalog.build_structure("benney", 2))


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
    """Count ``partials`` calls per (evaluator, point); ``partial`` fails."""
    asked = Counter()
    partials = JetEvaluator.partials

    def counted(self, args, multis):
        asked[id(self), tuple(args)] += 1
        return partials(self, args, multis)

    def single(self, args, multi):
        raise AssertionError("a consumer asked for one partial at a time")

    monkeypatch.setattr(JetEvaluator, "partials", counted)
    monkeypatch.setattr(JetEvaluator, "partial", single)
    return asked


def test_bracket_asks_each_evaluator_once_per_point(monkeypatch):
    s = catalog.build_structure("benney", 2)
    asked = _asked_per_point(monkeypatch)
    assert verify_bracket(s, samples=1, seed=2).passed
    # g_1 and g_2 at p1 and p2, f at (p1, p2) and at (p2, p1)
    assert len(asked) == 2 * 2 + 2
    assert set(asked.values()) == {1}


@pytest.mark.parametrize("check", ["cocycle", "lambda", "potential"])
def test_identities_ask_each_evaluator_at_most_once_per_point(monkeypatch, check):
    enh = catalog.build_enhanced("benney", 2)
    pot = catalog.build_potentials("benney", 2)[0]
    run = {"cocycle": lambda: verify_cocycle(enh.base, samples=3, seed=3),
           "lambda": lambda: verify_lambda(enh, samples=3, seed=4),
           "potential": lambda: verify_potential(enh, pot, samples=3, seed=5)}[check]
    asked = _asked_per_point(monkeypatch)
    assert run().passed
    assert asked and set(asked.values()) == {1}
