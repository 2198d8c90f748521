"""Catalog instances against independently coded closed forms."""

from __future__ import annotations

import cmath
import math
import re
from itertools import combinations_with_replacement

import mpmath as mp
import numpy as np
import pytest

from gtlab import catalog, cli, kernel
from gtlab.core import (
    CoordinateChange,
    _diagonal_radius,
    add_points,
    collide_points_closed,
    pushforward,
)
from gtlab.errors import ConfigError, DomainViolation, NoClosedForm
from gtlab.kernel import JetEvaluator, laurent_coeff, multi_index, theta


def test_registry_contents():
    assert set(catalog.CATALOG) == {"benney", "genus0", "genus1", "genus2"}
    for name in ("benney", "genus0", "genus1"):
        assert catalog.CATALOG[name].build_enhanced is not None
        assert catalog.CATALOG[name].potentials is not None


def test_unknown_structure_raises():
    with pytest.raises(ConfigError):
        catalog.build_structure("genus7")
    with pytest.raises(ConfigError):
        catalog.build_enhanced("genus2")


def test_genus2_has_no_catalog_potentials():
    # the one entry without potentials; the CLI's potential commands refuse
    # it earlier, as it has no enhancement either
    assert catalog.CATALOG["genus2"].potentials is None
    with pytest.raises(ConfigError, match=r"^no potentials catalogued for 'genus2'$"):
        catalog.build_potentials("genus2")


def test_minimum_puncture_counts():
    with pytest.raises(ConfigError):
        catalog.build_structure("benney", 0)
    with pytest.raises(ConfigError):
        catalog.build_structure("genus0", 0)
    with pytest.raises(ConfigError, match="^genus1 needs at least one movable puncture$"):
        catalog.genus1(0)


# ---------------------------------------------------------------------------
# every closed-form partial against circle quadrature of the values alone
# ---------------------------------------------------------------------------


def _quadrature(e, args, multi):
    """A partial of a value-only evaluator: k! times its k-th laurent_coeff,
    on a circle of ``_radius``, in the first differentiated slot
    (of order k) of the partial in the remaining slots (the inner quadrature
    asked at each node of the outer circle in turn)."""
    slot = next(s for s, o in enumerate(multi) if o)
    rest = tuple(0 if s == slot else o for s, o in enumerate(multi))
    if any(rest):
        e = JetEvaluator(e.arity, np.vectorize(lambda *a, _e=e: _quadrature(_e, a, rest),
                                               otypes=[complex]), domain=e.domain)
    cols = np.array([args], dtype=complex).T
    [[coeff]] = laurent_coeff(e, slot, cols, [_radius(e, cols, slot)], [multi[slot]])
    return coeff * math.factorial(multi[slot])


def _radius(e, cols, slot):
    """A quarter of the slot's clearance at the point, at most 0.35."""
    return min(0.25 * np.max(e.domain.clearance(cols, slot)), 0.35)


def _partial_error(e, args, log=False):
    """Largest distance between a partial_fn partial of order 1 or 2 and
    the quadrature of the values, over the jet's scale.  A log is read
    through exp(h), which no branch cut crosses: d_s E / E = h_s and
    d_s d_t E / E = h_st + h_s h_t."""
    firsts = [multi_index(e.arity, s) for s in range(e.arity)]
    seconds = [(s, t) for s in range(e.arity) for t in range(s, e.arity)]
    jet = dict(zip(firsts, e.partial_fn(args, firsts)))
    want = dict(jet)
    second = e.partial_fn(args, [multi_index(e.arity, s, t) for s, t in seconds])
    for (s, t), d2 in zip(seconds, second):
        want[multi_index(e.arity, s, t)] = d2 + (jet[firsts[s]] * jet[firsts[t]] if log else 0)
    if log:
        bare = JetEvaluator(e.arity, lambda *a: np.exp(e.fn(*a)), domain=e.domain)
        unit, value = bare.value(args), 1.0
    else:
        bare = JetEvaluator(e.arity, e.fn, domain=e.domain)
        unit, value = 1.0, e.value(args)
    scale = max(abs(x) for x in (value, *want.values()))
    return max(abs(want[multi] - _quadrature(bare, args, multi) / unit)
               for multi in want) / scale


def _catalog_evaluators(name, n):
    """(evaluator, points it takes, whether it is a log) for every
    evaluator the catalog builds for (name, n); genus2's f has its own
    tests, since a value-only copy of it samples the principal branch of
    q, whose cut its derivative circles may cross."""
    s = catalog.build_structure(name, n)
    out = [(g, 1, False) for g in s.g]
    if name != "genus2":
        out += [(s.f, 2, False), (catalog.build_enhanced(name, n).lam, 2, False)]
        out += [(pot.h, 1, True) for pot in catalog.build_potentials(name, n)]
    return s, out


# points ((p1, p2), v) checked besides the sampled ones
ORACLE_POINTS = {
    ("benney", 1): [((0.9 + 0.3j, 0.1 - 0.2j), (0.4 + 0.6j,))],
    ("genus0", 1): [((1.3 + 0.4j, -0.5 - 0.6j), (0.5 + 1.2j,))],
    ("benney", 2): [],
    ("genus0", 2): [],
    ("genus1", 2): [],
    ("genus2", None): [],
}


@pytest.mark.parametrize("name,n", list(ORACLE_POINTS), ids=str)
def test_closed_form_partials_match_quadrature(name, n):
    s, evaluators = _catalog_evaluators(name, n)
    sampled = [(tuple(row[:2]), tuple(row[2:])) for row in s.sample(2, seed=11, n_p=2).tolist()]
    for ps, v in ORACLE_POINTS[name, n] + sampled:
        for e, points, log in evaluators:
            err = _partial_error(e, (*ps[:points], *v), log)
            assert err < 1e-8, (e.label, ps, v, err)


def test_quadrature_oracle_catches_a_dropped_sign():
    # 1/(x - y) whose y-slot partials lose their (-1)^r
    wrong = catalog.Kernel(catalog.POLE.value,
                           lambda xs, o: (-1) ** sum(o) * math.factorial(sum(o))
                           / (xs[0] - xs[1]) ** (sum(o) + 1),
                           catalog.POLE.loci)
    args = (0.9 + 0.3j, 0.1 - 0.2j, 0.4 + 0.6j)
    assert _partial_error(catalog.place(catalog.POLE, 3, (0, 2)), args) < 1e-8
    assert _partial_error(catalog.place(wrong, 3, (0, 2)), args) > 0.1


# ---------------------------------------------------------------------------
# genus 0: independent partial-fraction evaluation
# ---------------------------------------------------------------------------


def _sphere_kernel(p, u):
    # u(u-1) / ((p-u) p (p-1)) recomputed from its partial fractions
    return (u - 1.0) / p - u / (p - 1.0) + 1.0 / (p - u)


def test_genus0_components_match_partial_fractions():
    s = catalog.build_structure("genus0", 2)
    v = (0.5 + 1.2j, -0.8 + 0.7j)
    p1, p2 = 1.3 + 0.4j, -0.5 - 0.6j
    assert s.f.value((p1, p2, *v)) == pytest.approx(
        _sphere_kernel(p1, p2), rel=1e-13)
    for i in range(2):
        assert s.g[i].value((p1, *v)) == pytest.approx(
            _sphere_kernel(p1, v[i]), rel=1e-13)


def test_genus0_f_residue_on_diagonal():
    # f ~ 1/(p1 - p2): the last partial-fraction term carries residue +1
    s = catalog.build_structure("genus0", 1)
    v = (0.6 + 0.9j,)
    p2 = 0.5 + 0.5j
    for eps in (1e-4, 1e-5):
        val = s.f.value((p2 + eps, p2, *v))
        assert val * eps == pytest.approx(1.0, abs=100 * eps)


# ---------------------------------------------------------------------------
# genus 1: independent theta-function evaluation (mpmath)
# ---------------------------------------------------------------------------


def _rho_oracle(z, tau):
    # log-derivative of theta_1 plus the i pi normalization shift
    q = mp.exp(1j * mp.pi * tau)
    return complex(
        mp.pi * mp.jtheta(1, mp.pi * z, q, 1) / mp.jtheta(1, mp.pi * z, q)
    ) + 1j * cmath.pi


def test_genus1_f_matches_theta_oracle():
    s = catalog.build_structure("genus1", 1)
    tau = 0.2 + 1.3j
    u = 0.4 + 0.25j
    p1, p2 = 0.12 + 0.08j, -0.21 + 0.17j
    expected = _rho_oracle(p1 - p2, tau) - _rho_oracle(p1, tau)
    assert s.f.value((p1, p2, u, tau)) == pytest.approx(expected, rel=1e-10)


def test_genus1_g_matches_theta_oracle():
    s = catalog.build_structure("genus1", 1)
    tau = 0.2 + 1.3j
    u = 0.4 + 0.25j
    p = 0.12 + 0.08j
    expected = _rho_oracle(p - u, tau) - _rho_oracle(p, tau)
    assert s.g[0].value((p, u, tau)) == pytest.approx(expected, rel=1e-10)
    # the modulus direction moves with constant speed 2 pi i
    assert s.g[1].value((p, u, tau)) == pytest.approx(2j * math.pi, rel=1e-14)


def test_genus1_potential_values_match_log_theta():
    # h[2]-h[1] = log theta(p - u_2) - log theta(u_2) - (same with u_1),
    # from the theta series directly
    pot = catalog.build_potentials("genus1", 2)[1]
    p, u1, u2, tau = 0.12 + 0.08j, 0.4 + 0.25j, 0.7 + 0.3j, 0.2 + 1.3j
    lt = lambda z: cmath.log(theta(z, tau))  # noqa: E731
    want = lt(p - u2) - lt(u2) - (lt(p - u1) - lt(u1))
    assert pot.h.value((p, u1, u2, tau)) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_genus1_f_double_periodicity_in_p2():
    s = catalog.build_structure("genus1", 1)
    tau = 0.1 + 1.1j
    u = 0.35 + 0.2j
    p1, p2 = 0.1 + 0.05j, -0.15 + 0.12j
    base = s.f.value((p1, p2, u, tau))
    assert s.f.value((p1, p2 + 1.0, u, tau)) == pytest.approx(base, rel=1e-9)
    # the lambda enhancement differs from f by the constant 2 pi i, which is
    # exactly the p2 -> p2 + tau monodromy of rho
    shifted = s.f.value((p1, p2 + tau, u, tau))
    assert shifted - base == pytest.approx(2j * math.pi, rel=1e-9)


# ---------------------------------------------------------------------------
# genus 2: independent square-root evaluation
# ---------------------------------------------------------------------------


def _genus2_f_oracle(p1, p2, a, b, c, sqrt=cmath.sqrt):
    def quintic(p):
        return p * (p - 1.0) * (p - a) * (p - b) * (p - c)

    q1, q2 = sqrt(quintic(p1)), sqrt(quintic(p2))
    A1 = (p1 - a) * (p1 - b) * (p1 - c)
    return (A1 * p2 * (p2 - 1.0) + q1 * q2) / (
        2.0 * (p1 - p2) * p1 * (p1 - 1.0) * A1
    )


def test_genus2_f_matches_direct_formula():
    s = catalog.build_structure("genus2")
    a, b, c = 1.7 + 0.1j, 2.9 - 0.05j, 4.1 + 0.2j
    p1, p2 = 0.4 + 0.9j, -1.1 - 0.5j
    assert s.f.value((p1, p2, a, b, c)) == pytest.approx(
        _genus2_f_oracle(p1, p2, a, b, c), rel=1e-13)


def test_genus2_g_is_half_sphere_kernel():
    s = catalog.build_structure("genus2")
    a, b, c = 1.7, 2.9, 4.1
    p = 0.4 + 0.9j
    for i, e in enumerate((a, b, c)):
        expected = e * (e - 1.0) / ((p - e) * 2.0 * p * (p - 1.0))
        assert s.g[i].value((p, a, b, c)) == pytest.approx(expected, rel=1e-13)


def test_genus2_f_diagonal_residue():
    s = catalog.build_structure("genus2")
    a, b, c = 1.7, 2.9, 4.1
    p2 = 0.4 + 0.9j
    for eps in (1e-4, 1e-5):
        val = s.f.value((p2 + eps, p2, a, b, c))
        assert val * eps == pytest.approx(1.0, abs=1e3 * eps)


def test_genus2_sheet_tracked_second_partials():
    # the derivative circles about p1 cross the cut of the principal square
    # root of the quintic, so circles over principal values are far off;
    # the closed form reads q1 and q2 on one sheet at the point
    s = catalog.build_structure("genus2")
    args = (1.3 + 0.01j, -0.6 + 0.8j, 1.7, 2.9, 4.1)
    h = 1e-5

    def first(x, slot):
        return s.f.partial(x, [int(i == slot) for i in range(5)])

    def central(outer, inner):
        up = list(args)
        down = list(args)
        up[outer] += h
        down[outer] -= h
        return (first(up, inner) - first(down, inner)) / (2 * h)

    for multi, outer, inner in [
        ((2, 0, 0, 0, 0), 0, 0),
        ((1, 1, 0, 0, 0), 0, 1),
        ((0, 2, 0, 0, 0), 1, 1),
        ((1, 0, 1, 0, 0), 0, 2),
        ((0, 1, 0, 1, 0), 1, 3),
    ]:
        assert s.f.partial(args, multi) == pytest.approx(central(outer, inner), rel=1e-6)
    # counter-check: d_p1^2 by a circle over principal values is far off
    principal = JetEvaluator(5, s.f.fn, domain=s.f.domain)
    want = central(0, 0)
    assert abs(_quadrature(principal, args, (2, 0, 0, 0, 0)) - want) > abs(want)


# a point per structure; genus2's is the one above, where the p1 circle
# crosses the principal square-root cut
PARTIALS_AT = {
    ("benney", 2): (0.9 + 0.4j, -0.7 + 0.2j, 0.3 - 0.6j, -0.2 + 0.9j),
    ("genus0", 2): (0.6 + 0.7j, -0.9 + 0.3j, 1.4 - 0.5j, -0.4 - 1.1j),
    ("genus1", 1): (0.1 + 0.05j, -0.2 + 0.1j, 0.4 + 0.25j, 0.2 + 1.3j),
    ("genus2", None): (1.3 + 0.01j, -0.6 + 0.8j, 1.7, 2.9, 4.1),
}


@pytest.mark.parametrize("name,n", sorted(PARTIALS_AT, key=str))
def test_batched_partials_equal_single_partials_bit_for_bit(name, n):
    # every d_1 d_s f in one batch, then each multi-index on its own; and a
    # batch that mixes orders 0, 1 and 2 (the value in the middle).  genus1's
    # f sums each log-theta rectangle over a window widened by the orders a
    # call asks (kernel.theta_jet), so a batch and a single entry round apart:
    # within 1e-13 of the entry's size, the bound columns meet against points
    # in test_columns_agree_with_points
    f = catalog.build_structure(name, n).f
    args = PARTIALS_AT[name, n]
    multis = [multi_index(f.arity, 1, s) for s in range(f.arity)]
    mixed = [multi for s in range(f.arity)
             for multi in (multi_index(f.arity, s), multi_index(f.arity, 1, s))]
    mixed.insert(f.arity, multi_index(f.arity))
    for batch_multis in (multis, mixed):
        batch = f.partials(args, batch_multis)
        single = [f.partial(args, multi) for multi in batch_multis]
        if name == "genus1":
            assert all(abs(b - x) <= 1e-13 * abs(x) for b, x in zip(batch, single))
        else:
            assert batch == single
        assert all(cmath.isfinite(x) for x in batch)


def test_genus2_batch_of_second_partials_opens_no_circle(monkeypatch):
    f = catalog.build_structure("genus2").f
    args = PARTIALS_AT["genus2", None]
    calls = []
    original = kernel.JetEvaluator.eval_circle

    def counted(e, slot, *rest):
        calls.append(slot)
        return original(e, slot, *rest)

    monkeypatch.setattr(kernel.JetEvaluator, "eval_circle", counted)
    f.partials(args, [multi_index(5, 1, s) for s in range(5)])
    # d_1 d_s f for every s, from one closed-form jet at the point
    assert calls == []


def _genus2_partial_error(args, order=2):
    """Largest distance between a partial of genus2's f of total ``order``
    and mpmath's differentiation of the independent oracle (principal roots,
    30 digits), over the largest of them."""
    f = catalog.build_structure("genus2").f
    multis = [multi_index(5, *slots) for slots in combinations_with_replacement(range(5), order)]
    got = f.partials(args, multis)
    with mp.workdps(30):
        point = [mp.mpc(x) for x in args]
        want = [complex(mp.diff(lambda *z: _genus2_f_oracle(*z, sqrt=mp.sqrt), point, multi))
                for multi in multis]
    return max(abs(x - y) for x, y in zip(got, want)) / max(map(abs, want))


def _genus2_oracle_points():
    """The near-cut point and sampled points of the genus2 box."""
    s = catalog.build_structure("genus2")
    return [PARTIALS_AT["genus2", None], *map(tuple, s.sample(6, seed=7, n_p=2).tolist())]


def test_genus2_second_partials_match_mpmath():
    # and the first partials, which the same jet gives
    for args in _genus2_oracle_points():
        for order in (1, 2):
            err = _genus2_partial_error(args, order)
            assert err < 1e-11, (args, order, err)


def test_genus2_mpmath_oracle_catches_a_dropped_denominator_term(monkeypatch):
    # f_kl = (N_kl - f_k D_l - f_l D_k - f D_kl) / D without its f D_kl
    original = catalog._ratio_hessian

    def dropped(f, f_grad, den, den_grad, num_hess, den_hess):
        return original(f, f_grad, den, den_grad, num_hess, 0.0 * den_hess)

    monkeypatch.setattr(catalog, "_ratio_hessian", dropped)
    for args in _genus2_oracle_points():
        assert _genus2_partial_error(args) > 1e-3


def test_genus2_mpmath_oracle_catches_q1_q2_taken_to_the_power_one(monkeypatch):
    # the jet with the q1 q2 factors' power 1 in place of 1/2: d_k log(q1 q2)
    # doubled misses the first partials
    powers = catalog._POWERS.copy()
    powers[powers == 0.5] = 1.0
    monkeypatch.setattr(catalog, "_POWERS", powers)
    for args in _genus2_oracle_points():
        assert _genus2_partial_error(args, 1) > 1e-3


def test_genus2_third_partials_in_one_slot_take_value_circles():
    # beyond order 2 genus2's f has no closed form: a partial there raises,
    # and a laurent_coeff circle over its values, which continue the sheet
    # from the centre, reads the third partials in one slot
    f = catalog.build_structure("genus2").f
    args = PARTIALS_AT["genus2", None]
    point = [mp.mpc(x) for x in args]
    for multi in [(3, 0, 0, 0, 0), (0, 3, 0, 0, 0)]:
        with mp.workdps(30):
            want = complex(mp.diff(lambda *z: _genus2_f_oracle(*z, sqrt=mp.sqrt), point, multi))
        assert _quadrature(f, args, multi) == pytest.approx(want, rel=1e-8)
        with pytest.raises(NoClosedForm, match=rf"^genus2:f has no closed form for the partial "
                                               rf"{re.escape(str(multi))}$"):
            f.partial(args, multi)


def test_partials_reject_wrong_argument_count():
    # benney n=2 f has arity 4: p1, p2, u1, u2; a fifth argument used to be
    # dropped silently by the analytic partial_fn
    f = catalog.build_structure("benney", 2).f
    five = (0.5 + 0.5j, 1.5 + 0.5j, 0.2, 0.3, 0.4)
    with pytest.raises(ValueError, match="takes 4 arguments, got 5"):
        f.partial(five, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="takes 4 arguments, got 5"):
        f.partials(five, [(1, 0, 0, 0), (0, 1, 0, 0)])


# ---------------------------------------------------------------------------
# potentials: values against independent formulas
# ---------------------------------------------------------------------------


def test_benney_potentials_are_logs_and_identity():
    pots = catalog.build_potentials("benney", 2)
    v = (0.3 + 0.2j, -0.6 + 0.4j)
    p = 1.2 + 0.8j
    assert pots[0].h.value((p, *v)) == pytest.approx(
        cmath.log(p - v[0]), rel=1e-13)
    assert pots[1].h.value((p, *v)) == pytest.approx(
        cmath.log(p - v[1]), rel=1e-13)
    assert pots[2].h.value((p, *v)) == pytest.approx(p, rel=1e-13)


def test_genus1_linear_potential_slope():
    # the p - tau potential has dh/dp = 1 and dh/dtau = -1
    pots = catalog.build_potentials("genus1", 1)
    fam_args = (0.1 + 0.05j, 0.4 + 0.25j, 0.2 + 1.3j)
    lin = pots[0]
    assert lin.h.partial(fam_args, (1, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert lin.h.partial(fam_args, (0, 0, 1)) == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# argument columns: N points in one call against the same points one at a time
# ---------------------------------------------------------------------------


def _to_order(arity, top):
    """The value and every multi-index of total order 1 to ``top``."""
    multis = [multi_index(arity)] + [multi_index(arity, s) for s in range(arity)]
    if top == 2:
        multis += [multi_index(arity, s, t) for s in range(arity) for t in range(s, arity)]
    return multis


def _column_evaluators(name):
    """(evaluator, structure, points per sample) for every evaluator the
    catalog builds for the name: each g, f, lambda and potential (genus0's
    and genus1's are differences), genus2's g and f; or for a transform of
    the catalog's: a closed-collided g and the reindexed evaluators of an
    added point."""
    if name == "genus2":
        s = catalog.build_structure(name)
        return [(g, s, 1) for g in s.g] + [(s.f, s, 2)]
    if name == "closed-collided":
        s = collide_points_closed(catalog.build_structure("benney", 3), [[0, 1]])
        return [(s.g[1], s, 1)]
    if name == "add_points":
        s = add_points(catalog.build_structure("genus0", 1), 1)
        return [(g, s, 1) for g in s.g] + [(s.f, s, 2)]
    s = catalog.build_structure(name, 2)
    return ([(g, s, 1) for g in s.g] + [(s.f, s, 2), (catalog.build_enhanced(name, 2).lam, s, 2)]
            + [(pot.h, s, 1) for pot in catalog.build_potentials(name, 2)])


def _points(s, n_p):
    """32 seeded sample points as a tuple of argument columns."""
    return tuple(s.sample(32, 29, n_p).T)


def _one_at_a_time(e, points, multis):
    return np.array([e.partials(row, multis) for row in zip(*(c.tolist() for c in points))]).T


def _genus2_cancelling_size(points, firsts):
    """S, per second partial and point, the size of the terms genus2 f's
    f_kl = (N_kl - f_k D_l - f_l D_k - f D_kl) / D sums, from ``firsts``
    (the first partials f_k) and each product P of powers of linear factors
    bounded term by term as the catalog builds its jet from log P:
    |d_k log P| <= power sum |u_k| / |u . x| and |P_kl / P| <= |d_k log P|
    |d_l log P| + power sum |u_k u_l| / |u . x|^2.  Each of N_kl / D,
    f_k D_l / D and f D_kl / D is built from sums of at most ten rounded
    products (the factor rows of q1 q2), a few operations deep, so one way
    of rounding lands within 16 eps S of the exact second partial, and two
    (points and columns) within 32 eps S of each other."""
    p1, p2, a, b, c = points
    x = np.array(np.broadcast_arrays(*points, 0.0, 1.0))

    def log_jet(u, power):
        inv, u = 1.0 / np.abs(np.tensordot(u, x, 1)), np.abs(u[:, :5])
        grad = power * np.tensordot(u.T, inv, 1)
        return grad[:, None] * grad + power * np.einsum("fk,fl,fn->kln", u, u, inv * inv), grad

    quintic = [np.abs(catalog._quintic(p, a, b, c)) for p in (p1, p2)]
    A1B2 = np.abs((p1 - a) * (p1 - b) * (p1 - c) * p2 * (p2 - 1.0))
    den = np.abs(2.0 * (p1 - p2) * p1 * (p1 - 1.0) * (p1 - a) * (p1 - b) * (p1 - c))
    Q1Q2 = np.sqrt(quintic[0] * quintic[1])
    hess_den, grad_den = log_jet(catalog._DEN, 1.0)
    num = A1B2 * log_jet(catalog._A1_B2, 1.0)[0] + Q1Q2 * log_jet(catalog._Q1_Q2, 0.5)[0]
    cross = np.abs(firsts)[:, None] * grad_den
    # |f D_kl| / |D| with |f| bounded by its numerator's terms over |D|
    return num / den + cross + cross.swapaxes(0, 1) + (A1B2 + Q1Q2) / den * hess_den


@pytest.mark.parametrize("name", ["benney", "genus0", "genus1", "genus2", "closed-collided",
                                  "add_points"])
def test_columns_agree_with_points(name):
    # the value and every partial of order <= 2 within 1e-13 of the point's;
    # genus2 f's second partials, whose closed form cancels terms far larger
    # than itself, within 32 eps of the size of those terms
    for e, s, n_p in _column_evaluators(name):
        points = _points(s, n_p)
        multis = _to_order(e.arity, 2)
        batch, single = e.partials(points, multis), _one_at_a_time(e, points, multis)
        assert batch.shape == (len(multis), len(points[0]))
        bound = 1e-13 * np.abs(single)
        if e.label == "genus2:f":
            firsts = single[1:1 + e.arity]
            size = _genus2_cancelling_size(points, firsts)
            seconds = [(i, multi) for i, multi in enumerate(multis) if sum(multi) == 2]
            for i, multi in seconds:
                k, l = (slot for slot, o in enumerate(multi) for _ in range(o))
                bound[i] = 32 * np.finfo(float).eps * size[k, l]
        assert np.all(np.abs(batch - single) <= bound), e.label


def _count_theta_series(monkeypatch):
    """Every theta series from here on, at one point or over a batch."""
    calls = []
    original = kernel.theta_jet

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, "theta_jet", counted)
    monkeypatch.setattr(catalog, "theta_jet", counted)
    return calls


def test_a_point_reads_its_value_and_first_partials_from_one_series(monkeypatch):
    # g = rho(p - u, tau) - rho(p, tau): one rectangle over p - u stacked on p
    s = catalog.build_structure("genus1", 2)
    p, *v = s.sample(1, 7, 1)[0].tolist()
    calls = _count_theta_series(monkeypatch)
    s.g[0].partials((p, *v), _to_order(s.g[0].arity, 1))
    assert len(calls) == 1


def test_a_column_call_reads_every_order_two_jet_from_one_series(monkeypatch):
    s = catalog.build_structure("genus1", 2)
    points = _points(s, 1)
    calls = _count_theta_series(monkeypatch)
    s.g[0].partials(points, _to_order(s.g[0].arity, 2))
    assert len(calls) == 1


def test_each_half_of_a_stacked_series_matches_its_own_column():
    # the rectangle every order-2 request of g reads, over p - u stacked on p,
    # against each column's own: one window, the wider of the two, serves
    # both, so each half rounds apart from its own, within the 1e-13 of each
    # entry's size that test_batched_partials_equal_single_partials_bit_for_bit
    # allows genus1
    p, u, tau = _points(catalog.build_structure("genus1", 1), 1)
    stacked = catalog._log_theta_rect(np.stack([p - u, p]), tau, [(3, 2)])
    for half, x in enumerate((p - u, p)):
        own = catalog._log_theta_rect(x, tau, [(3, 2)])
        for i, j in np.ndindex(4, 3):
            assert np.all(np.abs(stacked(i, j)[half] - own(i, j)) <= 1e-13 * np.abs(own(i, j)))


# a fault at point 1, 2 or 3 of four, made in the p - u half or in the p half
# of g = rho(p - u, tau) - rho(p, tau): the slots it sets
_FAULTS = {
    ("non-finite", "p - u"): {"u": complex(math.nan, 0.2)},
    ("non-finite", "p"): {"p": complex(math.inf, 0.1)},  # p - u is not finite either
    ("overflow", "p - u"): {"u": 0.6 - 300j},
    ("overflow", "p"): {"p": 0.3 + 300j, "u": 0.3 + 299.8j},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("faults, error, message", [
    pytest.param(
        [(2, "non-finite", "p - u")], DomainViolation,
        "non-finite theta argument at p = (nan-0.30000000000000004j), tau = (0.2+1.3j) "
        "(point 2 of 4)", id="non-finite-in-p-u"),
    pytest.param(
        [(2, "non-finite", "p")], DomainViolation,
        "non-finite theta argument at p = (inf-0.1j), tau = (0.2+1.3j) (point 2 of 4)",
        id="non-finite-in-p"),
    pytest.param(
        [(2, "overflow", "p - u")], OverflowError,
        "theta series overflows at p = (-0.3+299.9j), tau = (0.2+1.3j) (point 2 of 4)",
        id="overflow-in-p-u"),
    pytest.param(
        [(2, "overflow", "p")], OverflowError,
        "theta series overflows at p = (0.3+300j), tau = (0.2+1.3j) (point 2 of 4)",
        id="overflow-in-p"),
    pytest.param(
        [(1, "non-finite", "p - u"), (3, "overflow", "p - u")], DomainViolation,
        "non-finite theta argument at p = (nan-0.1j), tau = (0.2+1.3j) (point 1 of 4)",
        id="non-finite-then-overflow-in-p-u"),
    pytest.param(
        [(1, "overflow", "p - u"), (3, "non-finite", "p - u")], OverflowError,
        "theta series overflows at p = (-0.8+300.1j), tau = (0.2+1.3j) (point 1 of 4)",
        id="overflow-then-non-finite-in-p-u"),
    pytest.param(
        [(1, "non-finite", "p"), (3, "overflow", "p")], DomainViolation,
        "non-finite theta argument at p = (inf-0.19999999999999998j), tau = (0.2+1.3j) "
        "(point 1 of 4)", id="non-finite-then-overflow-in-p"),
    pytest.param(
        [(1, "overflow", "p"), (3, "non-finite", "p")], DomainViolation,
        "non-finite theta argument at p = (inf-0.19999999999999998j), tau = (0.2+1.3j) "
        "(point 3 of 4)", id="overflow-then-non-finite-in-p"),
    pytest.param(
        [(1, "overflow", "p"), (3, "non-finite", "p - u")], DomainViolation,
        "non-finite theta argument at p = (nan+0j), tau = (0.2+1.3j) (point 3 of 4)",
        id="overflow-in-p-then-non-finite-in-p-u"),
])
def test_a_stacked_series_fails_closed_as_its_two_columns_would(faults, error, message):
    # the error class and message that the two columns' own series give, one
    # after the other: the first fault of the p - u column, else of the p
    # column, named by its place in the caller's column of four
    p = np.array([0.1 + 0.05j, -0.2 + 0.1j, 0.3 - 0.1j, 0.05 + 0.2j])
    u = np.array([0.4 + 0.25j, 0.5 + 0.3j, 0.6 + 0.2j, 0.45 + 0.3j])
    cols = {"p": p, "u": u}
    for index, kind, half in faults:
        for slot, value in _FAULTS[kind, half].items():
            cols[slot][index] = value
    g = catalog.build_structure("genus1", 1).g[0]
    with pytest.raises(error) as info:
        g.partials((p, u, np.full(4, 0.2 + 1.3j)), [multi_index(3), multi_index(3, 0)])
    assert str(info.value) == message


def _looped():
    """(evaluator, structure) for evaluators whose loops are not plain
    values: genus2's sheet-tracking f, its pushed f (which maps its loops
    into it) and an added point's reindexed f over it."""
    g2 = catalog.build_structure("genus2")
    pushed = pushforward(g2, CoordinateChange(cli.quadratic_mu(3, 0.05)))
    added = add_points(g2, 1)
    return [(g2.f, g2), (pushed.f, pushed), (added.f, added)]


@pytest.mark.parametrize("index", range(3))
def test_n_loops_on_columns_match_one_loop_at_a_time(index):
    # circles in slot 0 about p_1, as the pole check draws them: all N in
    # one eval_rows call against each circle alone, a column of one, to rounding
    e, s = _looped()[index]
    points = _points(s, 2)
    points = (points[0], points[0], *points[2:])
    radii = _diagonal_radius(e, points)
    want = np.array([e.eval_circle(0, [col[i:i + 1] for col in points], radii[i:i + 1], 16)[0]
                     for i in range(len(radii))])
    got = e.eval_circle(0, points, radii, 16)
    assert got.shape == want.shape == (32, 16)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
