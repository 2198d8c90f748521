"""Numeric kernel: RNG, domains, jet evaluation, quadrature, theta/rho."""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtlab import kernel
from gtlab.errors import DomainViolation, InvalidModulus, NonConvergence, PoleHit
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
    cauchy_derivative,
    circle_path,
    lattice_distance,
    laurent_coeff,
    log_jet,
    log_theta_partial,
    path_integrate,
    rho,
    rho_partial,
    theta,
    theta_jet,
    theta_partial,
)

# ---------------------------------------------------------------------------
# SplitMix64
# ---------------------------------------------------------------------------


def test_splitmix64_reference_vectors():
    # first three outputs for seed 0, from the reference C implementation
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_is_deterministic_per_seed():
    a = [SplitMix64(42).uniform() for _ in range(5)]
    b = [SplitMix64(42).uniform() for _ in range(5)]
    assert a == b
    assert a != [SplitMix64(43).uniform() for _ in range(5)]


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_splitmix64_uniform_in_range(seed):
    rng = SplitMix64(seed)
    for _ in range(10):
        x = rng.uniform(-2.0, 3.0)
        assert -2.0 <= x <= 3.0


def test_complex_in_box_stays_inside():
    rng = SplitMix64(7)
    for _ in range(100):
        z = rng.complex_in_box((-1.0, 2.0, 0.5, 1.5))
        assert -1.0 <= z.real <= 2.0 and 0.5 <= z.imag <= 1.5


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("offset", [0, 1, 7])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_block_equals_scalar_draws(seed, offset, n):
    # the counter wraps mod 2**64 (seed 2**64 - 1 wraps on the first draw);
    # a float64 promotion anywhere would lose the low bits of these 64-bit
    # values, and a wrapping uint64 *scalar* product would warn
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    for _ in range(offset):
        scalar.next_u64()
        block.next_u64()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        draws = block.block(n)
    assert draws.dtype == np.uint64 and draws.shape == (n,)
    assert draws.tolist() == [scalar.next_u64() for _ in range(n)]
    assert block.state == scalar.state
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_complex_in_boxes_equals_scalar_draws(seed):
    boxes = [(-1.5, 1.5, -1.5, 1.5), (0.1, 0.9, 0.15, 0.45), (-2, 3, 1, 1)]
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    rows = block.complex_in_boxes(boxes, 300)
    assert rows.shape == (300, 3)
    assert rows.tolist() == [[scalar.complex_in_box(b) for b in boxes] for _ in range(300)]
    assert block.state == scalar.state


# ---------------------------------------------------------------------------
# domains and exclusions
# ---------------------------------------------------------------------------


def test_fixed_points_clearance():
    ex = FixedPoints(0, [1.0, -1.0])
    assert Domain((ex,)).clearance((1.0 + 0.5j, 9.0), 0) == pytest.approx(0.5)
    # other slots are unconstrained
    assert Domain((ex,)).clearance((1.0, 1.0), 1) == math.inf


def test_diagonal_clearance_both_slots():
    ex = Diagonal(0, 1)
    args = (0.2 + 0.1j, 0.5 + 0.1j)
    assert Domain((ex,)).clearance(args, 0) == pytest.approx(0.3)
    assert Domain((ex,)).clearance(args, 1) == pytest.approx(0.3)
    assert Domain((ex,)).clearance(args, 2) == math.inf


def test_half_plane_clearance():
    ex = HalfPlane(0)
    assert Domain((ex,)).clearance((0.3 + 0.7j,), 0) == pytest.approx(0.7)


def test_domain_remap_relabels_slots():
    dom = Domain((FixedPoints(0, [2.0]),))
    moved = dom.remap([3, 0])  # old slot 0 -> new slot 3
    assert moved.clearance((0.0, 0.0, 0.0, 2.0 + 0.25j), 3) == pytest.approx(0.25)
    assert moved.clearance((2.0, 0.0, 0.0, 9.0), 0) == math.inf


def test_domain_merged_takes_min_clearance():
    dom = Domain((FixedPoints(0, [0.0]),)).merged(
        Domain((FixedPoints(0, [1.0]),))
    )
    assert dom.clearance((0.1,), 0) == pytest.approx(0.1)
    assert dom.clearance((0.9,), 0) == pytest.approx(0.1)


def test_lattice_points_clearance_uses_tau():
    tau = 0.2 + 1.3j
    ex = LatticePoints(0, tau_slot=1)
    z = 0.4 + 0.3j
    assert Domain((ex,)).clearance((z, tau), 0) == pytest.approx(lattice_distance(z, tau))


# one locus of each type over (p1, p2, u, w, tau); the pulled-back one sees
# a lattice locus through a map that mixes slots
_LOCI = (
    FixedPoints(1, [0.0, 1.0]),
    Diagonal(0, 3),
    HalfPlane(4),
    LatticePoints(0, 4, 2),
    LatticePoints(1, 4),
    PulledBack(lambda a: (a[0] * a[1], a[2] - a[3], a[4]), LatticePoints(0, 2, 1), range(5)),
)


@given(st.permutations(range(5)), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_remap_moves_slots_and_keeps_distance(sigma, seed):
    # slot s renamed sigma[s]: the same locus, read at the permuted arguments
    rng = SplitMix64(seed)
    args = [rng.complex_in_box((-1.5, 1.5, -1.5, 1.5)) for _ in range(4)]
    args.append(rng.complex_in_box((-0.5, 0.5, 0.8, 1.5)))  # tau
    moved = [None] * 5
    for s, t in enumerate(sigma):
        moved[t] = args[s]
    for ex in _LOCI:
        back = ex.remap(sigma)
        assert back.slots == tuple(sigma[s] for s in ex.slots), type(ex).__name__
        assert back.distance(moved) == ex.distance(args), type(ex).__name__


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_distance_on_columns_is_the_number_to_rounding(seed):
    # every locus answers argument columns, the pulled-back one through its
    # map; an entry may differ from the number in its last bits only, and
    # the pulled-back one by the last bits of its map's product as well
    rng = SplitMix64(seed)
    rows = rng.complex_in_boxes([(-1.5, 1.5, -1.5, 1.5)] * 4 + [(-0.5, 0.5, 0.8, 1.5)], 200)
    for ex in _LOCI:
        got = ex.distance(rows.T)
        want = [ex.distance(tuple(row)) for row in rows.tolist()]
        assert got.shape == (200,)
        np.testing.assert_allclose(got, want, rtol=4e-16,
                                   atol=4e-15 if isinstance(ex, PulledBack) else 0,
                                   err_msg=type(ex).__name__)
    # stacked columns: one locus read over a (k, N) block of slot columns
    stacked = LatticePoints(0, 2, 1).distance(rows.T[[[0, 1], [2, 3], [4, 4]]])
    assert stacked.shape == (2, 200)


def test_lattice_distance_on_columns_is_nan_off_the_half_plane():
    z = np.array([0.3 + 0.2j, 0.3 + 0.2j, 0.3 + 0.2j, 0.0j])
    tau = np.array([0.1 + 1.1j, 0.1 + 0.0j, 0.1 - 0.4j, 0.0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = lattice_distance(z, tau)
    assert d[0] == pytest.approx(lattice_distance(0.3 + 0.2j, 0.1 + 1.1j), rel=1e-15)
    assert np.isnan(d[1:]).all()
    with pytest.raises(InvalidModulus):
        lattice_distance(0.3 + 0.2j, 0.1 + 0.0j)


def test_lattice_distance_zero_on_lattice():
    tau = 0.1 + 0.9j
    assert lattice_distance(2.0 + 3.0 * tau, tau) < 1e-12
    assert lattice_distance(0.5, tau) > 0.2


# ---------------------------------------------------------------------------
# jets and quadrature
# ---------------------------------------------------------------------------


def _rational():
    return JetEvaluator(
        1,
        lambda p: 1.0 / (p - 2.0),
        domain=Domain((FixedPoints(0, [2.0]),)),
        label="1/(p-2)",
    )


def test_first_derivative_of_simple_pole():
    # d/dp [1/(p-2)] at p=0 equals -1/(0-2)^2 = -1/4
    val = _rational().partial((0.0,), (1,))
    assert val == pytest.approx(-0.25, abs=1e-10)


def test_higher_derivatives_match_factorial_formula():
    e = _rational()
    for k in range(2, 6):
        expected = math.factorial(k) * (-1) ** k / (0.0 - 2.0) ** (k + 1)
        assert e.partial((0.0,), (k,)) == pytest.approx(expected, rel=1e-9)


def test_mixed_partials_of_exponential():
    e = JetEvaluator(2, lambda p, v: cmath.exp(p * v), domain=Domain())
    args = (0.3 + 0.1j, 0.7 - 0.2j)
    p, v = args
    # d^2/dp dv e^{pv} = (1 + pv) e^{pv}
    expected = (1 + p * v) * cmath.exp(p * v)
    assert e.partial(args, (1, 1)) == pytest.approx(expected, rel=1e-9)


def test_reindexed_circle_samples_map_rest_through_source():
    # e^{pv} with p fed from slot 2 and v from slot 0; slot 1 is inert
    base = JetEvaluator(2, lambda p, v: cmath.exp(p * v), domain=Domain())
    r = ReindexedEvaluator(base, 3, (2, 0))
    args = (0.7 - 0.2j, 5.0, 0.3 + 0.1j)
    nodes = [args[2] + 0.1 * cmath.exp(2j * math.pi * k / 8) for k in range(8)]
    # d/dv on the p circle is p e^{pv}
    got = r.eval_circle(2, args, args[2], 0.1, 8, [(1, 0, 0)])[0]
    for g, p in zip(got, nodes):
        assert g == pytest.approx(p * cmath.exp(p * args[0]), rel=1e-9)
    assert not r.eval_circle(2, args, args[2], 0.1, 8, [(0, 1, 0)])[0].any()
    const = r.eval_circle(1, args, args[1], 0.1, 8, [None])[0]
    assert (const == cmath.exp(args[2] * args[0])).all()


def test_reindexed_batches_equal_single_rests_bit_for_bit():
    # a base without partial_fn, so the base answers by circles; slot 1 of
    # the reindexed evaluator is inert
    base = JetEvaluator(2, lambda p, v: cmath.exp(p * v) / (p - 2.0),
                        domain=Domain((FixedPoints(0, [2.0]),)))
    r = ReindexedEvaluator(base, 3, (2, 0))
    args = (0.7 - 0.2j, 5.0, 0.3 + 0.1j)
    rests = [None, (1, 0, 0), (0, 1, 0), (2, 0, 0)]
    batch = r.eval_circle(2, args, args[2], 0.1, 16, rests)
    for row, rest in zip(batch, rests):
        assert (row == r.eval_circle(2, args, args[2], 0.1, 16, [rest])[0]).all()
    multis = [(1, 0, 1), (0, 0, 2), (2, 0, 0), (0, 1, 1), (0, 0, 0)]
    assert r.partials(args, multis) == [r.partial(args, multi) for multi in multis]


def test_orders_read_from_one_slot_share_one_value_row():
    # a value-only evaluator asked for d_p, d_p^2 and d_p^3 in one call runs
    # fn once per circle node, and each order equals the one-at-a-time answer
    calls = []

    def fn(p, v):
        calls.append(p)
        return cmath.exp(p * v)

    e = JetEvaluator(2, fn, domain=Domain())
    args = (0.3 + 0.1j, 0.7 - 0.2j)
    got = e.partials(args, [(1, 0), (2, 0), (3, 0)])
    assert len(calls) == kernel.DEFAULT_NODES == 32
    assert got == [e.partial(args, (k, 0)) for k in (1, 2, 3)]


def test_partial_fn_hook_takes_precedence():
    calls = []

    def pf(args, multis):
        calls.extend(multis)
        return [123.0 + 0.0j if tuple(multi) == (1,) else NotImplemented for multi in multis]

    e = JetEvaluator(1, lambda p: p * p, domain=Domain(), partial_fn=pf)
    assert e.partial((0.5,), (1,)) == 123.0
    # NotImplemented falls back to quadrature
    assert e.partial((0.5,), (2,)) == pytest.approx(2.0, rel=1e-9)
    assert (1,) in calls and (2,) in calls


def test_partial_fn_gets_the_request_as_asked_the_value_included():
    seen = []

    def recording(value):
        def pf(args, multis):
            seen.append(list(multis))
            return [value if multi == (0,) else 2.0 * args[0] for multi in multis]

        return pf

    request = [(1,), (0,), (1,), (0,)]
    declines = JetEvaluator(1, lambda p: p * p, domain=Domain(),
                            partial_fn=recording(NotImplemented))
    answers = JetEvaluator(1, lambda p: p * p, domain=Domain(), partial_fn=recording(7.0))
    # a declined value comes from fn wherever it is asked; an answered one is taken
    assert declines.partials((0.5,), request) == [1.0, 0.25, 1.0, 0.25]
    assert answers.partials((0.5,), request) == [1.0, 7.0, 1.0, 7.0]
    assert seen == [request, request]


def test_cauchy_derivative_rejects_disc_through_pole():
    with pytest.raises(DomainViolation):
        cauchy_derivative(_rational(), 0, (2.0 + 1e-12,), 1, radius=0.5)


def test_cauchy_derivative_node_doubling_flags_noise():
    # an integrand that is rough along the circle cannot converge under
    # node doubling
    e = JetEvaluator(
        1, lambda p: complex(hash(round(p.real * 1e6)) % 997) / 997.0,
        domain=Domain(),
    )
    with pytest.raises(NonConvergence):
        cauchy_derivative(e, 0, (0.7 + 0.2j,), 1, radius=0.3, tol=1e-10)


@pytest.mark.parametrize("p1", [math.nan, math.inf])
def test_circle_at_a_non_finite_point_fails_closed(p1):
    # the clearance there is NaN or inf; neither is a circle to sample on
    e = JetEvaluator(2, lambda a, b: 1.0 / (a - b), domain=Domain((Diagonal(0, 1),)))
    with pytest.raises(DomainViolation):
        e.partial((p1, 1.0), (1, 0))


def test_a_non_finite_circle_sample_fails_closed():
    # NaN at one of the 32 nodes of the p circle: no coefficient is read
    # from it, and the error names the evaluator, the slot and the circle
    node = 0.7 + 0.25 * 0.4  # the first node of the circle about 0.7

    def fn(p, q):
        return math.nan if p == node else 1.0 / (p - q)

    e = JetEvaluator(2, fn, domain=Domain((Diagonal(0, 1),)), label="one nan")
    with pytest.raises(DomainViolation, match=r"one nan: non-finite samples on the circle "
                                              r"of radius 0\.0999\d* about 0\.7 in slot 0"):
        e.partial((0.7, 0.3), (1, 0))
    assert e.partial((0.7, 0.3), (0, 1)) == pytest.approx(1.0 / 0.4**2, rel=1e-10)


def test_jet_requests_of_the_wrong_shape_are_refused():
    e = JetEvaluator(2, lambda p, u: p * u, label="pu")
    with pytest.raises(ValueError, match=r"^pu takes 2 arguments, got 3$"):
        e.partials((1.0, 2.0, 3.0), [(0, 0)])
    with pytest.raises(ValueError, match=r"^pu takes 2 derivative orders, got 1$"):
        e.partials((1.0, 2.0), [(1,)])
    assert e.partials((1.0, 2.0), [(0, 0)]) == [2.0]


@pytest.mark.parametrize("columns", [False, True])
def test_column_requests_of_the_wrong_shape_are_refused(columns):
    # a tuple of argument columns: one column per argument, each of one
    # length, every multi-index of the evaluator's arity
    e = JetEvaluator(2, lambda p, u: p * u, label="pu", columns=columns)
    with pytest.raises(ValueError, match=r"^pu takes 2 arguments, got 3$"):
        e.partials((np.ones(3),) * 3, [(0, 0)])
    with pytest.raises(ValueError, match=r"^pu takes 2 arguments, got 1$"):
        e.value((np.ones(3),))
    with pytest.raises(ValueError, match=r"^pu takes argument columns of one length, "
                                         r"got shapes \[\(3,\), \(2,\)\]$"):
        e.partials((np.ones(3), np.ones(2)), [(0, 0)])
    with pytest.raises(ValueError, match=r"^pu takes argument columns of one length, "
                                         r"got shapes \[\(3, 2\), \(3,\)\]$"):
        e.value((np.ones((3, 2)), np.ones(3)))
    with pytest.raises(ValueError, match=r"^pu takes argument columns of one length, "
                                         r"got shapes \[\(\), \(\)\]$"):
        e.partials((np.array(1.0), np.array(2.0)), [(0, 0)])
    with pytest.raises(ValueError, match=r"^pu takes 2 derivative orders, got 3$"):
        e.partials((np.ones(3), np.ones(3)), [(0, 0), (1, 0, 0)])
    got = e.partials((np.arange(3.0), np.full(3, 2.0)), [(0, 0)])
    assert got.shape == (1, 3) and got.tolist() == [[0.0, 2.0, 4.0]]


def test_a_radius_on_a_declared_locus_is_refused():
    # clearance 0 at the pole: no circle to sample on, named by slot and evaluator
    with pytest.raises(DomainViolation, match=r"^argument 0 of 1/\(p-2\) sits on a declared "
                                              r"singular locus \(clearance 0\.0\)$"):
        _rational().deriv_radius((2.0,), 0)
    with pytest.raises(DomainViolation, match="sits on a declared singular locus"):
        _rational().partial((2.0,), (1,))


def test_an_order_zero_cauchy_derivative_is_the_value():
    # without a node-doubling check the value opens no circle; with one it
    # is the circle's mean, the same number to quadrature accuracy
    e = _rational()
    assert cauchy_derivative(e, 0, (0.5,), 0) == e.value((0.5,)) == 1.0 / (0.5 - 2.0)
    assert cauchy_derivative(e, 0, (0.5,), 0, tol=1e-12) == pytest.approx(1.0 / (0.5 - 2.0),
                                                                         rel=1e-13)


def test_laurent_coeff_recovers_residue():
    res = laurent_coeff(_rational(), 0, (0.0,), 2.0, -1, radius=0.3)
    assert res == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules against 40-digit mpmath roots and weights
# ---------------------------------------------------------------------------


def _mp_legendre(x, n):
    """P_n(x) and P'_n(x) in mpmath at the working precision."""
    p0, p1 = mp.mpf(1), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (p0 - x * p1) / (1 - x * x)


def _mp_root_and_weight(seed: float, n: int):
    """The root of P_n next to seed (within about 1e-16) and its weight,
    to about 26 digits after one 40-digit Newton step."""
    x = mp.mpf(seed)
    pn, dpn = _mp_legendre(x, n)
    step = pn / dpn
    assert abs(step) < 1e-14, (n, seed)
    x -= step
    _, dpn = _mp_legendre(x, n)
    return x, 2 / ((1 - x * x) * dpn * dpn)


def _check_rule_against_mpmath(n: int):
    """gauss_legendre(n) against mpmath: nodes within 2e-16, ascending and
    symmetric, weights summing to 2, and no weight further from mpmath's
    (relative) than numpy's eigenvalue-based leggauss at the same nodes.

    The oracle's roots are refined from leggauss's nodes, an independent
    method.  Above 60 nodes it checks the eight outermost nodes (the
    largest weight errors sit there, where 1 - x^2 is smallest), the three
    middle ones and about six in between, on the negative half.
    """
    x, w = kernel.gauss_legendre(n)
    xl, wl = np.polynomial.legendre.leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-14
    half = (n + 1) // 2
    if n <= 60:
        idx = range(half)
    else:
        idx = sorted({*range(8), *range(half - 3, half), *range(0, half, half // 6)})
    node_err = ours = theirs = 0.0
    with mp.workdps(40):
        for i in idx:
            root, weight = _mp_root_and_weight(xl[i], n)
            node_err = max(node_err, abs(float(x[i] - root)))
            ours = max(ours, abs(float((w[i] - weight) / weight)))
            theirs = max(theirs, abs(float((wl[i] - weight) / weight)))
    assert node_err <= 2e-16, node_err
    # leggauss normalises its weights to sum 2, which at n = 2 lands on 1.0
    # exactly; the recurrence rounds that weight one unit off, hence the eps
    assert ours <= max(theirs, np.finfo(float).eps), (ours, theirs)


@pytest.mark.parametrize("n", [1, 2, 3, 24, 60, 401, 800, 2000])
def test_gauss_legendre_matches_mpmath_roots_and_weights(n):
    _check_rule_against_mpmath(n)


def test_gauss_legendre_oracle_catches_a_mutated_recurrence(monkeypatch):
    # one of Bonnet's coefficients off by one part in 1e12: Newton converges
    # to the roots of the wrong polynomial, about 7e-14 from Legendre's
    recurrence = kernel._recurrence

    def mutated(n):
        a, b = recurrence(n)
        a[5] *= 1 + 1e-12
        return a, b

    monkeypatch.setattr(kernel, "_recurrence", mutated)
    with pytest.raises(AssertionError):
        _check_rule_against_mpmath(24)


def test_gauss_legendre_refuses_a_rule_whose_newton_passes_run_out(monkeypatch):
    # Tricomi's guess is about 1e-6 off at 100 nodes: one pass cannot reach 1e-15
    monkeypatch.setattr(kernel, "_NEWTON_PASSES", 1)
    with pytest.raises(NonConvergence, match="after 1 Newton passes"):
        kernel.gauss_legendre(100)


def test_gauss_legendre_refuses_an_empty_rule():
    with pytest.raises(ValueError, match="n >= 1"):
        kernel.gauss_legendre(0)


def test_path_integrate_winding_number():
    e = JetEvaluator(1, lambda p: 1.0 / p, domain=Domain((FixedPoints(0, [0.0]),)))
    val = path_integrate(e, 0, (0.0,), circle_path(0.0, 1.0, nodes=32))
    assert val == pytest.approx(2j * math.pi, rel=1e-10)


@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_path_integrate_winding_number_off_the_unit_radius(radius):
    # dz = i r e^{it} dt: a circle of radius r != 1 tells r from 1 / r
    c = 0.3 - 0.2j
    e = JetEvaluator(1, lambda z: 1.0 / (z - c), domain=Domain((FixedPoints(0, [c]),)))
    val = path_integrate(e, 0, (0.0,), circle_path(c + 0.1 * radius, radius, nodes=32))
    assert val == pytest.approx(2j * math.pi, rel=1e-10)


# ---------------------------------------------------------------------------
# theta / rho against an independent special-function library
# ---------------------------------------------------------------------------

TAU = 0.3 + 1.1j
ZS = [0.17 + 0.24j, -0.31 + 0.08j, 0.45 - 0.12j]


def _jtheta1(z, tau, order=0):
    q = mp.exp(1j * mp.pi * tau)
    return complex(mp.jtheta(1, mp.pi * z, q, order))


def test_theta_matches_jtheta1_up_to_normalization():
    # theta(p, tau) = C(tau) e^{i pi p} theta_1(pi p | tau): the ratio, with
    # the exponential stripped, must be p-independent
    ratios = [
        complex(theta(z, TAU)) / _jtheta1(z, TAU) * cmath.exp(-1j * cmath.pi * z)
        for z in ZS
    ]
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-10)


def test_rho_matches_log_derivative_of_jtheta1():
    # rho(p, tau) = pi theta_1'(pi p)/theta_1(pi p) + i pi exactly
    for z in ZS:
        oracle = cmath.pi * _jtheta1(z, TAU, 1) / _jtheta1(z, TAU) + 1j * cmath.pi
        assert complex(rho(z, TAU)) == pytest.approx(oracle, rel=1e-10)


def test_rho_quasi_periodicity():
    z = 0.21 + 0.13j
    assert complex(rho(z + 1.0, TAU)) == pytest.approx(complex(rho(z, TAU)), rel=1e-10)
    jump = complex(rho(z + TAU, TAU)) - complex(rho(z, TAU))
    assert jump == pytest.approx(-2j * math.pi, rel=1e-10)


@pytest.mark.parametrize("z", [1e-8, -5e-8j, 1.0 + TAU + 9e-8])
def test_rho_refuses_a_point_within_1e_7_of_a_theta_zero(z):
    with pytest.raises(PoleHit, match=r"^rho evaluated within 1e-7 of a theta zero$"):
        rho(z, TAU)
    assert cmath.isfinite(rho(z + 2e-7, TAU))


def test_rho_simple_pole_at_origin():
    # residue-1 pole: z * rho(z) -> 1 as z -> 0
    for eps in (1e-3, 1e-4):
        z = eps * cmath.exp(0.37j)
        assert z * complex(rho(z, TAU)) == pytest.approx(1.0, abs=50 * eps)


def _mp_log_theta(p, tau, K=15):
    """log of the theta series truncated at |k| <= K, in mpmath."""
    terms = ((-1) ** k * mp.exp(2j * mp.pi * (k * p + k * (k - 1) * tau / 2))
             for k in range(-K, K + 1))
    return mp.log(mp.fsum(terms))


def _mp_log_theta_partial(z, dp, dtau):
    with mp.workdps(30):
        return complex(mp.diff(_mp_log_theta, (mp.mpc(z), mp.mpc(TAU)), (dp, dtau)))


@pytest.mark.parametrize("dp", [0, 1, 2])
@pytest.mark.parametrize("dtau", [0, 1, 2])
def test_rho_partial_matches_mpmath_jet(dp, dtau):
    # rho = d/dp log theta, so its (dp, dtau) partial is the (dp + 1, dtau)
    # partial of log theta
    for z in ZS:
        oracle = _mp_log_theta_partial(z, dp + 1, dtau)
        assert complex(rho_partial(z, TAU, dp, dtau)) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("dtau", [0, 1, 2, 3])
def test_log_theta_tau_partials_match_mpmath_jet(dtau):
    for z in ZS:
        oracle = _mp_log_theta_partial(z, 0, dtau)
        assert complex(log_theta_partial(z, TAU, 0, dtau)) == pytest.approx(oracle, rel=1e-10)


def _scalar_theta_partial(p, tau, dp, dtau, tol=1e-12):
    """The term-by-term loop theta_jet replaced, kept as its reference."""
    K = kernel._theta_trunc_index(p.imag, tau.imag, tol) + 4 * (dp + dtau)
    total = 0j
    for k in range(-K, K + 1):
        term = (-1) ** (k & 1) * cmath.exp(2j * math.pi * (k * p + 0.5 * k * (k - 1) * tau))
        total += term * (2j * math.pi * k) ** dp * (1j * math.pi * k * (k - 1)) ** dtau
    return total


@pytest.mark.parametrize("dp, dtau", [(0, 0), (3, 0), (0, 3), (4, 2)])
def test_theta_jet_matches_the_scalar_series(dp, dtau):
    # the array sum reorders float64 additions over ~30 terms: each entry
    # agrees with the loop to 1e-12 of its size
    for z in ZS + [0.02 - 0.6j]:
        a = theta_jet(z, TAU, dp, dtau)
        assert [len(row) for row in a] == [dtau + 1] * (dp + 1)
        for i in range(dp + 1):
            for j in range(dtau + 1):
                ref = _scalar_theta_partial(z, TAU, i, j) / (math.factorial(i) * math.factorial(j))
                assert abs(a[i][j] - ref) <= 1e-12 * abs(ref)
        assert theta_partial(z, TAU, dp, dtau) == pytest.approx(
            _scalar_theta_partial(z, TAU, dp, dtau), rel=1e-12)


def test_theta_weights_are_cached_read_only():
    kernel._theta_weights.cache_clear()
    weights = kernel._theta_weights(12, 3, 2)
    assert kernel._theta_weights(12, 3, 2) is weights
    for arr in weights:
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.filterwarnings("error")
def test_theta_overflow_fails_closed_and_is_not_memoised():
    # far off the real axis the terms overflow float64: the series raises
    # an OverflowError naming (p, tau), and no RuntimeWarning escapes
    p = 0.1 + 300j
    for call in (lambda: theta_jet(p, TAU), lambda: theta(p, TAU),
                 lambda: log_theta_partial(p, TAU, 1, 1)):
        with pytest.raises(OverflowError, match=r"p = \(0\.1\+300j\), tau = \(0\.3\+1\.1j\)"):
            call()
    assert kernel.log_theta_jet.cache_info().currsize == 0


@pytest.mark.parametrize("p, tau", [(complex("nan"), TAU), (0.1, complex(0.3, math.inf)),
                                    (complex(math.inf, 0.2), TAU)])
def test_theta_jet_rejects_non_finite_arguments(p, tau):
    with pytest.raises(DomainViolation, match="non-finite"):
        theta_jet(p, tau, 1, 1)
    with pytest.raises(DomainViolation, match="non-finite"):
        rho(p, tau)


def test_theta_jet_rejects_a_lower_half_plane_modulus():
    with pytest.raises(InvalidModulus):
        theta_jet(0.1, 0.3 - 1.1j, 1, 0)


def test_a_real_modulus_is_invalid_at_a_point_and_in_a_batch():
    # Im tau = 0 exactly is outside the half plane, as Im tau < 0 is
    tau = 0.3 + 0j
    with pytest.raises(InvalidModulus):
        theta_jet(0.1 + 0.2j, tau, 1, 0)
    with pytest.raises(InvalidModulus):
        kernel._theta_trunc_index(0.2, tau.imag, 1e-12)
    ps, taus = _with_bad_point(3, tau=tau)
    with pytest.raises(InvalidModulus, match=r"\(point 3 of 8\)"):
        theta_jet(ps, taus, 1, 0)
    with pytest.raises(InvalidModulus):
        kernel._theta_trunc_index(ps.imag, taus.imag, 1e-12)


# a batch: eight points with their own moduli; the point far off the real
# axis needs a window far wider than the rest, so the batch's must be its
BATCH_P = np.array(ZS + [0.02 - 0.6j, 0.3 + 0.55j, -0.1 - 0.2j, 0.05j, 0.2 + 5j])
BATCH_TAU = np.array([TAU, 0.1 + 0.8j, TAU, -0.2 + 1.6j, TAU, 0.4 + 0.9j, TAU, 0.1 + 0.8j])


@pytest.mark.parametrize("dp, dtau", [(0, 0), (1, 0), (3, 2)])
def test_a_batched_jet_matches_its_points(dp, dtau):
    # one grid over the batch's widest window against each point's own
    # window: every entry agrees to 1e-12 of its size
    a = theta_jet(BATCH_P, BATCH_TAU, dp, dtau)
    assert a.shape == (dp + 1, dtau + 1, len(BATCH_P))
    L = log_jet(a, BATCH_P, BATCH_TAU)
    for n, (p, tau) in enumerate(zip(BATCH_P.tolist(), BATCH_TAU.tolist())):
        one, log_one = theta_jet(p, tau, dp, dtau), kernel.log_theta_jet(p, tau, dp, dtau)
        for i in range(dp + 1):
            for j in range(dtau + 1):
                assert abs(a[i][j][n] - one[i][j]) <= 1e-12 * abs(one[i][j])
                # far off the axis the jet rule cancels: 5e-12 of the size at (3, 2)
                if abs(p.imag) < 1:
                    assert abs(L[i][j][n] - log_one[i][j]) <= 1e-12 * abs(log_one[i][j])


def _with_bad_point(index, p=None, tau=None):
    ps, taus = BATCH_P.copy(), BATCH_TAU.copy()
    if p is not None:
        ps[index] = p
    if tau is not None:
        taus[index] = tau
    return ps, taus


BAD_INDICES = [0, 3, len(BATCH_P) - 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", BAD_INDICES)
@pytest.mark.parametrize("bad, error, match", [
    ({"p": 0.1 + 300j}, OverflowError, r"theta series overflows at p = \(0\.1\+300j\)"),
    ({"p": complex("nan")}, DomainViolation, "non-finite"),
    ({"tau": complex(0.3, math.inf)}, DomainViolation, "non-finite"),
    ({"tau": 0.3 - 1.1j}, InvalidModulus, r"Im tau must be positive at p = .*tau = \(0\.3-1\.1j\)"),
])
def test_a_batch_fails_closed_at_any_point(index, bad, error, match):
    # the batch raises the named error of its one bad point, wherever it
    # sits, names that point, lets no RuntimeWarning out and memoises nothing
    ps, taus = _with_bad_point(index, **bad)
    with pytest.raises(error, match=match) as info:
        theta_jet(ps, taus, 1, 1)
    assert f"(point {index} of {len(ps)})" in str(info.value)
    assert kernel.log_theta_jet.cache_info().currsize == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("first, later, error", [
    ({"p": 0.1 + 300j}, {"tau": 0.3 - 1.1j}, OverflowError),
    ({"tau": 0.3 - 1.1j}, {"p": 0.1 + 300j}, InvalidModulus),
    ({"p": complex("nan")}, {"tau": 0.3 - 1.1j}, DomainViolation),
    ({"tau": 0.3 - 1.1j}, {"p": complex("nan")}, InvalidModulus),
])
def test_a_batch_raises_the_error_of_its_first_point_at_fault(first, later, error):
    # two bad points of different kinds: the batch fails as its points would
    # one after another, with the first one's error, naming it
    ps, taus = _with_bad_point(1, **first)
    ps, taus = [col.copy() for col in (ps, taus)]
    for key, value in later.items():
        {"p": ps, "tau": taus}[key][5] = value
    with pytest.raises(error, match=r"\(point 1 of 8\)"):
        theta_jet(ps, taus, 1, 1)


@pytest.mark.parametrize("index", BAD_INDICES)
def test_a_batched_log_jet_fails_closed_on_a_vanishing_point(index):
    a = theta_jet(BATCH_P, BATCH_TAU, 1, 1)
    a[0][0][index] = 0
    with pytest.raises(PoleHit, match=rf"\(point {index} of {len(BATCH_P)}\)"):
        log_jet(a, BATCH_P, BATCH_TAU)
    assert kernel.log_theta_jet.cache_info().currsize == 0


def _vanishing_jet(p, tau, dp=0, dtau=0, tol=1e-12):
    return [[0j] * (dtau + 1) for _ in range(dp + 1)]


def test_log_theta_partial_rejects_a_vanishing_jet(monkeypatch):
    monkeypatch.setattr(kernel, "theta_jet", _vanishing_jet)
    with pytest.raises(PoleHit):
        log_theta_partial(0.1 + 0.1j, TAU, 1, 1)


# ---------------------------------------------------------------------------
# memoised log-theta jets
# ---------------------------------------------------------------------------

def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _fresh_log_theta_partial(p, tau, dp, dtau):
    """The partial from a rectangle computed now, past the memo."""
    L = kernel.log_theta_jet.__wrapped__(p, tau, dp, dtau)
    return L[dp][dtau] * math.factorial(dp) * math.factorial(dtau)


# jet orders the torus workload asks for
@pytest.mark.parametrize("dp, dtau", [(1, 0), (2, 0), (1, 1), (0, 1), (3, 0),
                                      (2, 1), (1, 2)])
def test_memoised_jet_equals_a_recomputation_bit_for_bit(dp, dtau):
    for z in ZS:
        fresh = _fresh_log_theta_partial(z, TAU, dp, dtau)
        miss = log_theta_partial(z, TAU, dp, dtau)
        hit = log_theta_partial(z, TAU, dp, dtau)
        assert _bits(miss) == _bits(fresh)
        assert _bits(hit) == _bits(fresh)


def test_repeated_jet_sums_no_theta_series(monkeypatch):
    calls = []
    original = kernel.theta_jet

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, "theta_jet", counted)
    first = log_theta_partial(ZS[0], TAU, 2, 1)
    assert len(calls) == 1  # one series fills the 3 x 2 rectangle
    assert log_theta_partial(ZS[0], TAU, 2, 1) == first
    assert rho_partial(ZS[0], TAU, 1, 1) == first
    assert len(calls) == 1


def test_a_raised_pole_hit_is_not_memoised(monkeypatch):
    z = 0.1 + 0.1j
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "theta_jet", _vanishing_jet)
        with pytest.raises(PoleHit):
            log_theta_partial(z, TAU, 1, 1)
    value = log_theta_partial(z, TAU, 1, 1)
    assert cmath.isfinite(value)
    assert _bits(value) == _bits(_fresh_log_theta_partial(z, TAU, 1, 1))
