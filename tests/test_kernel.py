"""Numeric kernel: RNG, domains, jet evaluation, quadrature, theta/rho."""

from __future__ import annotations

import cmath
import importlib.util
import inspect
import math
import re
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtlab import hyperell, kernel
from gtlab.errors import (DomainViolation, GTLabError, InvalidModulus, NoClosedForm,
                          NonConvergence, PoleHit)
from gtlab.kernel import (
    Diagonal,
    Domain,
    Exclusion,
    FixedPoints,
    HalfPlane,
    JetEvaluator,
    LatticePoints,
    PulledBack,
    ReindexedEvaluator,
    SplitMix64,
    lattice_distance,
    laurent_coeff,
    log_jet,
    log_theta_partial,
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


def test_box_bounds_are_built_once_per_boxes_and_read_only():
    # boxes given as lists or tuples share one entry: a later call with the
    # same boxes draws the same rows from the cached bounds
    boxes = [[-1.0, 1.0, 0.0, 2.0], [0.5, 0.75, -1.0, -0.5]]
    first = SplitMix64(5).complex_in_boxes(boxes, 7)
    before = kernel._box_bounds.cache_info()
    again = SplitMix64(5).complex_in_boxes(tuple(map(tuple, boxes)), 7)
    assert kernel._box_bounds.cache_info().hits == before.hits + 1
    assert again.tolist() == first.tolist()
    bounds = kernel._box_bounds(tuple(map(tuple, boxes)))
    assert not bounds.flags.writeable
    assert bounds.tolist() == [[-1.0, 0.0, 0.5, -1.0], [2.0, 2.0, 0.25, 0.5]]


@pytest.mark.parametrize("n", [-5, 0, 3])
def test_skip_moves_the_stream_as_its_draws_would(n):
    drawn, skipped = SplitMix64(11), SplitMix64(11)
    for _ in range(max(n, 0)):
        drawn.next_u64()
    skipped.skip(n)
    if n < 0:  # back: n draws from there lead to the seed's state
        skipped.block(-n)
    assert skipped.state == drawn.state and skipped.next_u64() == drawn.next_u64()


class _Planted(Exclusion):
    """A locus whose distance at a draw is planted by the draw's real part in
    [0, 1): exactly ``t``, 4e-10 of it above or below ``t``, NaN, inf, or
    clear of ``t`` on either side; over argument columns."""

    def __init__(self, slot, t):
        self.slots, self.t = (slot,), t

    def distance(self, args):
        kind = (np.floor(np.real(args[self.slots[0]]) * 7) % 7).astype(int)
        t = self.t
        return np.array([t, t * (1 + 4e-10), t * (1 - 4e-10), np.nan, np.inf, 2 * t, t / 2])[kind]

    def remap(self, mapping):
        return _Planted(mapping[self.slots[0]], self.t)


def _row_loop_admitted(rng, boxes, fixed, count, budget, loci, threshold):
    """The accept rule one row at a time: each block scored as arrays, each
    locus on its own, then walked in draw order, a row kept when each of its
    distances is greater than the threshold (a NaN one is not)."""
    out, tries = [], 0
    while len(out) < count and tries < budget:
        block = rng.complex_in_boxes(boxes, min(16 + 2 * (count - len(out)), budget - tries))
        if len(fixed):
            block = np.hstack([block, np.tile(np.array(fixed, dtype=complex), (len(block), 1))])
        with np.errstate(all="ignore"):
            d = [ex.distance(block.T).tolist() for ex in loci]
        for i, row in enumerate(block.tolist()):
            tries += 1
            if all(col[i] > threshold for col in d):
                out.append(tuple(row))
                if len(out) == count:
                    break
    return out, tries


@pytest.mark.parametrize("count, budget", [(1, 100), (5, 100), (40, 1000), (30, 25)])
@pytest.mark.parametrize("case", ["planted", "planted and a diagonal", "fixed", "no loci"])
def test_the_block_mask_admits_what_the_row_loop_admitted(case, count, budget):
    # a draw is admitted iff its least distance is greater than the
    # threshold: one at the threshold, 4e-10 of it below, or at NaN is not,
    # one 4e-10 of it above, at inf or clear of it is, and without loci every
    # draw is; the rows, their order and the draws made are the row loop's,
    # and the stream is left just past the last draw made
    t = 0.25
    boxes, fixed = [(0.0, 1.0, -1.0, 1.0), (-1.0, 1.0, -1.0, 1.0)], ()
    loci = {"planted": [_Planted(0, t)], "no loci": [],
            "planted and a diagonal": [_Planted(0, t), Diagonal(0, 1)]}.get(case)
    if case == "fixed":  # as sample_z: one box, the fiber point fixed
        boxes, fixed, loci = boxes[:1], (0.5 + 0.5j,), [_Planted(0, t), Diagonal(0, 1)]
    kept, drawn = set(), set()
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        out, tries = kernel.admitted(rng, boxes, fixed, count, budget, loci, t)
        want, want_tries = _row_loop_admitted(SplitMix64(seed), boxes, fixed, count, budget,
                                              loci, t)
        assert out.shape == (len(want), len(boxes) + len(fixed))
        assert out.tolist() == [list(row) for row in want] and tries == want_tries
        if case == "no loci":
            assert len(out) == min(count, budget) == tries
        kept |= {int(k) for k in np.floor(out[:, 0].real * 7) % 7}
        drawn |= {int(k) for k in np.floor(SplitMix64(seed).complex_in_boxes(boxes, tries)[:, 0]
                                           .real * 7) % 7}
        resumed = SplitMix64(seed)
        resumed.skip(2 * len(boxes) * tries)
        assert rng.state == resumed.state
    if loci:  # of the planted distances, only those above t are admitted
        assert kept and kept <= {1, 4, 5}, kept
        assert count == 1 or {0, 2, 3} <= drawn, drawn


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


def _python_lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to Z + tau Z over the 3 x 3 lattice points about the
    nearest, one Python number at a time: the oracle of the column form."""
    n = round(z.imag / tau.imag)
    best = math.inf
    for dn in (-1, 0, 1):
        w = z - (n + dn) * tau
        m = round(w.real)
        for dm in (-1, 0, 1):
            best = min(best, abs(w - (m + dm)))
    return best


def test_lattice_distance_on_columns_is_nan_off_the_half_plane():
    # columns and numbers alike: NaN where Im tau <= 0, with no warning and
    # no error, and the 3 x 3 Python loop's distance to rounding elsewhere
    z = np.array([0.3 + 0.2j, 0.3 + 0.2j, 0.3 + 0.2j, 0.0j])
    tau = np.array([0.1 + 1.1j, 0.1 + 0.0j, 0.1 - 0.4j, 0.0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = lattice_distance(z, tau)
        assert np.isnan(lattice_distance(0.3 + 0.2j, 0.1 + 0.0j))
    assert d[0] == pytest.approx(_python_lattice_distance(0.3 + 0.2j, 0.1 + 1.1j), rel=1e-15)
    assert np.isnan(d[1:]).all()
    for seed in (1, 2, 3):
        rows = SplitMix64(seed).complex_in_boxes([(-3.0, 3.0, -3.0, 3.0), (-0.5, 0.5, 0.3, 2.0)],
                                                 300)
        want = [_python_lattice_distance(z, tau) for z, tau in rows.tolist()]
        np.testing.assert_allclose(lattice_distance(*rows.T), want, rtol=4e-16)


def _scan_3x3(z, tau) -> np.ndarray:
    """Distance from z to Z + tau Z over the 3 x 3 lattice points about the nearest, on
    argument columns: the real offsets -1, 0, 1 about rint(Re w) at each of the three tau
    offsets, the reference the three-point scan must equal bit for bit."""
    z, tau = np.asarray(z)[..., None, None], np.asarray(tau)[..., None, None]
    near = np.arange(-1.0, 2.0)
    w = z - (np.rint(z.imag / np.where(tau.imag > 0, tau.imag, np.nan)) + near[:, None]) * tau
    return np.abs(w - (np.rint(w.real) + near)).min(axis=(-2, -1))


def test_lattice_distance_equals_the_3x3_scan():
    rows = SplitMix64(4).complex_in_boxes([(-3.0, 3.0, -3.0, 3.0), (-0.5, 0.5, -0.5, 2.0)],
                                          2000)
    # half-integer ties: quarter-grid z against taus whose Re w lands on .5 exactly
    grid = (np.arange(-8, 9)[:, None] + 1j * np.arange(-8, 9)).ravel() / 4
    taus = np.array([1j, 0.5 + 1j, 0.25 + 0.5j, -0.5 + 2j])
    ties = np.stack(np.broadcast_arrays(grid[:, None], taus), axis=-1).reshape(-1, 2)
    # non-finite z or tau, and Im tau <= 0: NaN (at tau = 1 + inf i one tau offset reads
    # NaN and the other two inf)
    bad = [complex(math.inf, 0), complex(-math.inf, 1), complex(0.5, math.inf),
           complex(math.nan, 0), complex(0.5, math.nan), complex(math.inf, math.inf)]
    odd = np.array([(z, 0.1 + 0.9j) for z in bad] + [
        (0.3 + 0.2j, 0.3 + 0j), (0.5, 0.1 - 1j), (0.3, complex(1, math.inf)),
        (0.3, complex(math.inf, 1))])
    with np.errstate(all="ignore"):
        for z, tau in (rows.T, ties.T, odd.T, (rows[:, 0].reshape(40, 50), 0.2 + 1.3j),
                       (0.5 + 0.5j, 1j)):
            np.testing.assert_array_equal(lattice_distance(z, tau), _scan_3x3(z, tau))
        assert np.isnan(lattice_distance(*odd.T)).all()
    assert (rows[:, 1].imag <= 0).any() and (rows[:, 1].imag > 0).any()
    # Re w = Re z - n Re tau does land on .5 at some tau offset n of the grid
    n = np.rint(ties[:, :1].imag / ties[:, 1:].imag) + np.arange(-1.0, 2.0)
    assert ((ties[:, :1].real - n * ties[:, 1:].real) % 1 == 0.5).any()


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
    # d/dp [1/(p-2)] at p=0 equals -1/(0-2)^2 = -1/4, read off one circle
    [[coeff]] = laurent_coeff(_rational(), 0, [np.array([0.0 + 0j])], [0.35], [1])
    assert coeff == pytest.approx(-0.25, abs=1e-10)


def test_higher_derivatives_match_factorial_formula():
    coeffs = laurent_coeff(_rational(), 0, [np.array([0.0 + 0j])], [0.35], range(2, 6))
    for k, [coeff] in zip(range(2, 6), coeffs):
        expected = math.factorial(k) * (-1) ** k / (0.0 - 2.0) ** (k + 1)
        assert coeff * math.factorial(k) == pytest.approx(expected, rel=1e-9)


def test_mixed_partials_of_exponential():
    # d^2/dp dv e^{pv} = (1 + pv) e^{pv}: a circle in p over the v-circles of
    # e at each of its nodes
    e = JetEvaluator(2, lambda p, v: np.exp(p * v), domain=Domain())
    d_v = JetEvaluator(2, np.vectorize(
        lambda p, v: laurent_coeff(e, 1, _column_of_one((p, v)), [0.35], [1])[0, 0],
        otypes=[complex]))
    args = (0.3 + 0.1j, 0.7 - 0.2j)
    p, v = args
    expected = (1 + p * v) * cmath.exp(p * v)
    [[coeff]] = laurent_coeff(d_v, 0, _column_of_one(args), [0.35], [1])
    assert coeff == pytest.approx(expected, rel=1e-9)


def test_a_reindexed_fn_reads_its_base_fn():
    # fn, the value a wrapper composes (as catalog._difference does with its
    # kernels'), takes the base's fn at the reindexed arguments; slot 1 is inert
    base = JetEvaluator(2, lambda p, v: np.exp(p * v) / (p - 2.0))
    r = ReindexedEvaluator(base, 3, (2, 0))
    args = (0.7 - 0.2j, 5.0, 0.3 + 0.1j)
    assert r.fn(*args) == base.fn(args[2], args[0]) == r.value(args)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_a_non_finite_argument_is_refused_before_any_circle(bad):
    e = JetEvaluator(2, lambda p, q: 1.0 / (p - q), domain=Domain((Diagonal(0, 1),)))
    message = rf"^non-finite complex value {re.escape(repr(bad))}$"
    with pytest.raises(DomainViolation, match=message):
        laurent_coeff(e, 0, _column_of_one((bad, 1.0)), [0.1], [1])
    with pytest.raises(DomainViolation, match=message):
        laurent_coeff(e, 0, (COLUMN_P, np.where(COLUMN_P == 0.7, bad, COLUMN_Q)), [0.1] * 4, [-1])


def _column_of_one(args):
    """A point's argument columns: one array of one entry per slot."""
    return [np.array([x], dtype=complex) for x in args]


def test_reindexed_circle_samples_map_rest_through_source():
    # e^{pv} with p fed from slot 2 and v from slot 0; slot 1 is inert
    base = JetEvaluator(2, lambda p, v: np.exp(p * v), domain=Domain())
    r = ReindexedEvaluator(base, 3, (2, 0))
    args = (0.7 - 0.2j, 5.0, 0.3 + 0.1j)
    cols = _column_of_one(args)
    nodes = [args[2] + 0.1 * cmath.exp(2j * math.pi * k / 8) for k in range(8)]
    # the p circle samples e^{pv} at each node p, v read from slot 0
    got = r.eval_circle(2, cols, [0.1], 8)[0]
    for g, p in zip(got, nodes):
        assert g == pytest.approx(cmath.exp(p * args[0]), rel=1e-9)
    const = r.eval_circle(1, cols, [0.1], 8)[0]
    assert (const == const[0]).all()
    assert const[0] == pytest.approx(cmath.exp(args[2] * args[0]), rel=1e-15)


def test_orders_read_from_one_slot_share_one_value_row():
    # laurent_coeff asked for orders 1, 2 and 3 in one call runs fn once,
    # over the circle's nodes, and each order equals the one-at-a-time answer
    calls = []

    def fn(p, v):
        calls.append(np.size(p))
        return np.exp(p * v)

    e = JetEvaluator(2, fn, domain=Domain())
    cols = _column_of_one((0.3 + 0.1j, 0.7 - 0.2j))
    got = laurent_coeff(e, 0, cols, [0.35], [1, 2, 3])
    assert calls == [kernel.DEFAULT_NODES] == [32]
    assert got.tolist() == [laurent_coeff(e, 0, cols, [0.35], [k])[0].tolist() for k in (1, 2, 3)]


def test_partial_fn_hook_takes_precedence():
    calls = []

    def pf(args, multis):
        calls.extend(multis)
        return [123.0 + 0.0j if tuple(multi) == (1,) else NotImplemented for multi in multis]

    e = JetEvaluator(1, lambda p: p * p, domain=Domain(), partial_fn=pf, label="p^2")
    assert e.partial((0.5,), (1,)) == 123.0
    # a declined partial has no second way: it raises, naming the evaluator
    # and the multi-index
    with pytest.raises(NoClosedForm, match=r"^p\^2 has no closed form for the partial \(2,\)$"):
        e.partial((0.5,), (2,))
    assert (1,) in calls and (2,) in calls


def test_a_value_only_evaluator_has_no_partial():
    # without a partial_fn every value comes from fn and every partial
    # raises NoClosedForm, a GTLabError, before fn is run
    calls = []

    def fn(p, v):
        calls.append(np.size(p))
        return np.exp(p * v)

    e = JetEvaluator(2, fn, domain=Domain(), label="exp(pv)")
    args = (0.3 + 0.1j, 0.7 - 0.2j)
    for multi in [(1, 0), (0, 2), (1, 1)]:
        with pytest.raises(NoClosedForm, match=rf"^exp\(pv\) has no closed form for the "
                                               rf"partial {re.escape(str(multi))}$"):
            e.partials(args, [(0, 0), multi])
    assert calls == []
    assert issubclass(NoClosedForm, GTLabError)
    assert e.value(args) == pytest.approx(cmath.exp(args[0] * args[1]), rel=1e-15)
    unlabelled = JetEvaluator(2, fn)
    with pytest.raises(NoClosedForm, match=r"^evaluator has no closed form for the partial "):
        unlabelled.partials((COLUMN_P, COLUMN_Q), [(1, 0)])


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


@pytest.mark.parametrize("p1", [math.nan, math.inf])
def test_circle_at_a_non_finite_point_fails_closed(p1):
    # neither NaN nor inf is a centre to sample about
    e = JetEvaluator(2, lambda a, b: 1.0 / (a - b), domain=Domain((Diagonal(0, 1),)))
    with pytest.raises(DomainViolation, match=r"^non-finite complex value "):
        laurent_coeff(e, 0, _column_of_one((p1, 1.0)), [0.1], [1])


def test_a_non_finite_circle_sample_fails_closed():
    # NaN at one of the 32 nodes of the p circle: no coefficient is read
    # from it, and the error names the evaluator, the slot and the circle
    node = 0.7 + 0.25 * 0.4  # the first node of the circle about 0.7

    def fn(p, q):
        return np.where(p == node, math.nan, 1.0 / (p - q))

    e = JetEvaluator(2, fn, domain=Domain((Diagonal(0, 1),)), label="one nan")
    cols, radius = _column_of_one((0.7, 0.3)), 0.25 * abs(0.7 - 0.3)
    with pytest.raises(DomainViolation, match=r"one nan: non-finite samples on circle 0 of 1, "
                                              r"radius 0\.0999\d* about \(0\.7\+0j\) in slot 0"):
        laurent_coeff(e, 0, cols, [radius], [1])
    [[coeff]] = laurent_coeff(e, 1, cols, [radius], [1])
    assert coeff == pytest.approx(1.0 / 0.4**2, rel=1e-10)


# a value-only evaluator on columns: one circle per point, all of a slot's
# in one laurent_coeff call
COLUMN_P = np.array([0.1 + 0.2j, 0.7, -0.4 + 0.5j, 0.3 - 0.6j])
COLUMN_Q = np.array([0.9 - 0.1j, 0.3, 0.6 + 0.2j, -0.5 - 0.2j])


def _value_only_pole(label="value only", spoil=None):
    """1/(p - q) with its diagonal declared; NaN where p equals ``spoil``."""
    def fn(p, q):
        return np.where(p == spoil, math.nan, 1.0 / (p - q))

    return JetEvaluator(2, fn, domain=Domain((Diagonal(0, 1),)), label=label)


def _quarter_clearance(q):
    """The radius of each point's p circle: a quarter of its distance to the diagonal."""
    return 0.25 * abs(COLUMN_P - q)


@pytest.mark.parametrize("where", range(len(COLUMN_P)))
def test_a_column_point_on_a_declared_locus_is_named(where):
    # one point of four on the diagonal: its circle has radius 0 and samples
    # the pole, and the error names that circle, not the others
    q = COLUMN_Q.copy()
    q[where] = COLUMN_P[where]
    e = _value_only_pole()
    with pytest.raises(DomainViolation, match=rf"^value only: non-finite samples on circle "
                                              rf"{where} of 4, radius 0\.0 about "):
        laurent_coeff(e, 0, (COLUMN_P, q), _quarter_clearance(q), [1])
    others = np.arange(len(q)) != where
    assert np.isfinite(laurent_coeff(e, 0, (COLUMN_P[others], q[others]),
                                     _quarter_clearance(q)[others], [1])).all()


@pytest.mark.parametrize("where", range(len(COLUMN_P)))
def test_an_undeclared_singularity_on_one_circle_names_that_circle(where):
    # NaN at the first node of circle ``where`` only (its centre plus its
    # radius, a quarter of the distance to the diagonal): the column call
    # raises naming that circle of four, and no coefficient is read
    node = COLUMN_P[where] + 0.25 * abs(COLUMN_P[where] - COLUMN_Q[where])
    e = _value_only_pole("spoiled", spoil=node)
    radii = _quarter_clearance(COLUMN_Q)
    with pytest.raises(DomainViolation, match=rf"^spoiled: non-finite samples on circle "
                                              rf"{where} of 4, radius "):
        laurent_coeff(e, 0, (COLUMN_P, COLUMN_Q), radii, [1, 2])
    assert np.isfinite(laurent_coeff(e, 1, (COLUMN_P, COLUMN_Q), radii, [1])).all()


def test_jet_requests_of_the_wrong_shape_are_refused():
    e = JetEvaluator(2, lambda p, u: p * u, label="pu")
    with pytest.raises(ValueError, match=r"^pu takes 2 arguments, got 3$"):
        e.partials((1.0, 2.0, 3.0), [(0, 0)])
    with pytest.raises(ValueError, match=r"^pu takes 2 derivative orders, got 1$"):
        e.partials((1.0, 2.0), [(1,)])
    assert e.partials((1.0, 2.0), [(0, 0)]) == [2.0]


@pytest.mark.parametrize("closed", [False, True])
def test_column_requests_of_the_wrong_shape_are_refused(closed):
    # a tuple of argument columns: one column per argument, each of one
    # length, every multi-index of the evaluator's arity, whether or not a
    # partial_fn answers the value
    def pf(args, multis):
        return [args[0] * args[1] if not any(multi) else NotImplemented for multi in multis]

    e = JetEvaluator(2, lambda p, u: p * u, label="pu", partial_fn=pf if closed else None)
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
    # a circle of radius 0 about the pole samples it: refused, named by
    # evaluator, circle and slot, a point being a column of one
    with pytest.raises(DomainViolation, match=r"^1/\(p-2\): non-finite samples on circle 0 of 1, "
                                              r"radius 0\.0 about \(2\+0j\) in slot 0$"):
        laurent_coeff(_rational(), 0, [np.array([2.0 + 0j])], [0.0], [1])


def test_laurent_coeff_recovers_residue():
    # the residue of 1/(p - 2) and its vanishing orders -2 and 0, about the
    # pole in a column of one, and about three centres at once: the pole and
    # two points off it, where the residue vanishes
    [res, c_m2, c_0] = laurent_coeff(_rational(), 0, [np.array([2.0 + 0j])], [0.3], [-1, -2, 0])
    assert res[0] == pytest.approx(1.0, rel=1e-10)
    assert abs(c_m2[0]) < 1e-12 and abs(c_0[0]) < 1e-12
    [res] = laurent_coeff(_rational(), 0, [np.array([2.0, 0.5, -1.0 + 1j])], [0.3] * 3, [-1])
    assert res == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)


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


def _rule_errors(n: int) -> tuple[float, float, float]:
    """gauss_legendre(n) against mpmath: asserts the nodes ascend and the rule
    is exactly symmetric with weights summing to 2, and returns the largest
    node error and the largest relative weight errors, its own and those of
    numpy's eigenvalue-based leggauss at the same nodes.

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
    return node_err, ours, theirs


def _check_rule_against_mpmath(n: int):
    """``_rule_errors(n)``: nodes within 2e-16 and no weight further from
    mpmath's (relative) than leggauss's."""
    node_err, ours, theirs = _rule_errors(n)
    assert node_err <= 2e-16, node_err
    # leggauss normalises its weights to sum 2, which at n = 2 lands on 1.0
    # exactly; the recurrence rounds that weight one unit off, hence the eps
    assert ours <= max(theirs, np.finfo(float).eps), (ours, theirs)


# small rules, odd ones and the largest, and every rule a rauch job builds:
# 24 and 48 on the benchmark's curves, and the node-doubling ladders of the
# near collisions up to the default cap (test_every_rule_a_rauch_job_builds_is_checked)
CHECKED_RULES = [1, 2, 3, 24, 48, 60, 80, 96, 100, 104, 160, 192, 200, 208, 320, 384, 400,
                 401, 800, 2000]


@pytest.mark.parametrize("n", CHECKED_RULES)
def test_gauss_legendre_matches_mpmath_roots_and_weights(n):
    _check_rule_against_mpmath(n)


def _periods_moduli(seeds):
    """The moduli of every job of the benchmark's periods workload at ``seeds``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [tuple(cfg["moduli"]) for seed in seeds
            for cfg in workloads.generate("periods", seed, 20)]


def test_every_rule_a_rauch_job_builds_is_checked():
    # the first pass of every job of seeds 101-110, and the whole ladder of
    # the near collisions (1.1e-3 apart) up to the default cap
    def rules(ladder):
        return {size for n in ladder for size in (n, 2 * n)}

    def ladder(moduli):
        return hyperell._ladder(hyperell._predicted_nodes(moduli), hyperell.DEFAULT_NODES)

    first = set().union(*(rules([next(ladder(m))]) for m in _periods_moduli(range(101, 111))))
    assert first == {24, 48}
    near = [(1.0011, 2.0, 3.0), (1.5, 1.5011, 3.0), (1.5, 2.5, 2.5011), (1.5, 1.5011, 1.5022)]
    built = first.union(*(rules(ladder(m)) for m in near))
    assert built <= set(CHECKED_RULES), sorted(built - set(CHECKED_RULES))


def test_gauss_legendre_nodes_match_mpmath_for_every_small_rule():
    # below 21 nodes the Bessel-zero starts seed every node of the positive
    # half, so a start that ran to the wrong root would show here
    for n in range(1, 41):
        node_err, _, _ = _rule_errors(n)
        assert node_err <= 2e-16, (n, node_err)


def test_bessel_zero_starts_are_j0_zeros_to_the_ulp():
    for k, j in enumerate(kernel._J0_ZEROS, start=1):
        exact = float(mp.besseljzero(0, k))
        assert abs(j - exact) <= math.ulp(exact), (k, j, exact)


def test_gauss_legendre_takes_one_recurrence_pass_from_24_nodes(monkeypatch):
    calls = []
    legendre = kernel._legendre_and_derivative

    def counting(x, n, a, b):
        calls.append(n)
        return legendre(x, n, a, b)

    monkeypatch.setattr(kernel, "_legendre_and_derivative", counting)
    for n in [*range(1, 200), 400, 401, 800, 1000, 2000]:
        calls.clear()
        kernel.gauss_legendre(n)
        assert len(calls) == (1 if n == 1 or n >= 24 else 2), (n, len(calls))


def test_gauss_legendre_oracle_catches_a_mutated_recurrence(monkeypatch):
    # one of Bonnet's coefficients off by one part in 1e12: the nodes
    # converge to the roots of the wrong polynomial, about 7e-14 from Legendre's
    recurrence = kernel._recurrence

    def mutated(n):
        a, b = recurrence(n)
        a[5] *= 1 + 1e-12
        return a, b

    monkeypatch.setattr(kernel, "_recurrence", mutated)
    with pytest.raises(AssertionError):
        _check_rule_against_mpmath(24)


@pytest.mark.parametrize("term,mutant,ns", [
    # n(n+1) -> n(n+1) + 1 adds -P / (1 - x^2) to P'', which vanishes at every
    # root, so it only slows Halley's step: the 1- and 2-point rules start far
    # enough off that it moves their weights, and no larger rule feels it
    ("- lam * p", "- (lam + 1) * p", (1, 2)),
    # 2x P' -> 2.001x P': the weights' Taylor carry reads P'' directly
    ("2 * y * d1", "2.001 * y * d1", (2, 24, 100, 800)),
], ids=["eigenvalue_term", "first_derivative_term"])
def test_gauss_legendre_oracle_catches_a_mutated_legendre_equation(monkeypatch, term, mutant, ns):
    source = inspect.getsource(kernel.gauss_legendre)
    assert source.count(term) == 1
    namespace = dict(vars(kernel))
    exec(source.replace(term, mutant), namespace)
    monkeypatch.setattr(kernel, "gauss_legendre", namespace["gauss_legendre"])
    for n in ns:
        with pytest.raises((AssertionError, NonConvergence)):
            _check_rule_against_mpmath(n)


def test_gauss_legendre_refuses_a_rule_whose_halley_passes_run_out(monkeypatch):
    # Bessel zeros one part in 1e4 off start the nodes next to 1 far enough
    # away that one pass cannot certify them
    monkeypatch.setattr(kernel, "_J0_ZEROS", tuple(j * (1 + 1e-4) for j in kernel._J0_ZEROS))
    monkeypatch.setattr(kernel, "_HALLEY_PASSES", 1)
    with pytest.raises(NonConvergence, match=r"n=100 .* after 1 Halley passes"):
        kernel.gauss_legendre(100)


def test_gauss_legendre_refuses_an_empty_rule():
    with pytest.raises(ValueError, match="n >= 1"):
        kernel.gauss_legendre(0)


def test_the_bare_exclusion_locus_measures_nothing():
    # every locus kind overrides both; the base class names the contract
    with pytest.raises(NotImplementedError):
        Exclusion().distance((0.1, 0.2))
    with pytest.raises(NotImplementedError):
        Exclusion().remap([1, 0])


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


def _scalar_theta_partial(p, tau, dp, dtau, K=30):
    """The term-by-term loop theta_jet replaced, kept as its reference, over a fixed window
    far wider than any the kernel takes at these points."""
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


def _log_terms(im_p, im_tau, k):
    """log |e^{2 pi i (k p + k(k-1) tau / 2)}| of the theta series' terms k."""
    return -2 * math.pi * (k * im_p + 0.5 * k * (k - 1) * im_tau)


def _window_condition(im_p, im_tau, dp, dtau, n, bits=64):
    """The kernel's stated test that |k| = n drops a term of every entry of the rectangle
    (below 2^-bits of the point's largest term)."""
    a = abs(0.5 - im_p / im_tau)
    return n >= a + 0.5 and math.pi * im_tau * ((n - a) ** 2 - 0.25) >= (
        bits * math.log(2) + (dp + 2 * dtau) * math.log(2 * math.pi * n))


WINDOW_TAUS = [0.05, 0.3, 1.0, 3.0]
WINDOW_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (6, 0), (0, 3), (6, 3)]


@pytest.mark.parametrize("dp, dtau", WINDOW_ORDERS)
def test_every_term_outside_the_window_is_below_2_to_the_minus_64(dp, dtau):
    # brute force over k: at every point of a column, each term just outside
    # the window, times its largest derivative weight over the rectangle, is
    # below 2^-64 of the point's largest term, and so are the terms beyond
    k = np.arange(-400, 401)
    for im_tau in WINDOW_TAUS:
        # on the real axis, halfway, and on either side of |Im p| = Im tau
        im_p = im_tau * np.array([0.0, 0.5, -0.5, 0.98, -0.98, 1.02, -1.02, 1.0, -1.0])
        K = kernel._theta_window(im_p[:, None], np.full((len(im_p), 1), im_tau), dp, dtau)
        for y in im_p:
            logs = _log_terms(y, im_tau, k)
            outside = np.abs(k) > K
            far = k[outside]
            weights = np.max([i * np.log(2 * math.pi * np.abs(far))
                              + (j and j * np.log(math.pi * np.abs(far * (far - 1))))
                              for i in range(dp + 1) for j in range(dtau + 1)], axis=0)
            assert (logs[outside] + weights <= logs.max() - 64 * math.log(2)).all(), (y, K)
        # and no narrower window meets the condition at every point
        assert K == 0 or not all(_window_condition(y, im_tau, dp, dtau, K) for y in im_p)
        # a column's window is its widest point's
        assert K == max(kernel._theta_window(np.array([[y]]), np.array([[im_tau]]), dp, dtau)
                        for y in im_p)


def _mp_theta_entry(p, tau, i, j, K=80):
    """a[i, j] of the theta series summed term by term in mpmath over |k| <= K."""
    with mp.workdps(40):
        p, tau = mp.mpc(p), mp.mpc(tau)
        total = mp.fsum((-1) ** k * (2j * mp.pi * k) ** i * (1j * mp.pi * k * (k - 1)) ** j
                        * mp.exp(2j * mp.pi * (k * p + k * (k - 1) * tau / 2))
                        for k in range(-K, K + 1))
        return complex(total) / (math.factorial(i) * math.factorial(j))


@pytest.mark.parametrize("dp, dtau", [(3, 2), (6, 3)])
def test_a_window_without_the_derivative_weights_misses_the_oracle(dp, dtau):
    # the window cut where the bare terms fall below 2^-40 of the largest,
    # with no allowance for the derivative weights, drops terms that the
    # weights lift into the sum: it misses the mpmath series by more than
    # 1e-10 of an entry, where the kernel's window meets it to 1e-14
    p, tau = 0.1 + 0.05j, 0.3 + 0.3j
    bare = 0
    while not _window_condition(p.imag, tau.imag, 0, 0, bare + 1, bits=40):
        bare += 1
    k, half, w = kernel._theta_weights(bare, dp, dtau)
    cut = (np.exp(k * (2j * math.pi * p) + half * (2j * math.pi * tau)) @ w).reshape(dp + 1,
                                                                                    dtau + 1)
    a = theta_jet(p, tau, dp, dtau)[..., 0]
    oracle = np.array([[_mp_theta_entry(p, tau, i, j) for j in range(dtau + 1)]
                       for i in range(dp + 1)])
    assert np.max(np.abs(cut - oracle) / np.abs(oracle)) > 1e-10
    assert np.max(np.abs(a - oracle) / np.abs(oracle)) < 1e-14


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
    ps, taus = _with_bad_point(3, tau=tau)
    with pytest.raises(InvalidModulus, match=r"\(point 3 of 8\)"):
        theta_jet(ps, taus, 1, 0)


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
        one = theta_jet(p, tau, dp, dtau)
        log_one = log_jet(one, p, tau)[..., 0]
        one = one[..., 0]
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
    # sits, names that point and lets no RuntimeWarning out
    ps, taus = _with_bad_point(index, **bad)
    with pytest.raises(error, match=match) as info:
        theta_jet(ps, taus, 1, 1)
    assert f"(point {index} of {len(ps)})" in str(info.value)


@pytest.mark.filterwarnings("error")
def test_a_series_past_float_range_builds_no_window(monkeypatch):
    # at p = 15.5i, tau = i the largest term, e^(225 pi) ~ 1e307, is in
    # range, and the series is summed: its p-derivative, 30 pi times that,
    # is past it
    with pytest.raises(OverflowError, match=r"^theta series overflows at p = 15\.5j"):
        theta_jet(15.5j, 1j, 1)
    # here the largest term is past float range on any window, and the
    # window would hold about 2 |Im p / Im tau| = 2e7 terms
    monkeypatch.setattr(kernel, "_theta_weights", lambda *args: pytest.fail("a window was built"))
    with pytest.raises(OverflowError, match=r"^theta series overflows at p = 10000000j, "
                                            r"tau = 1j \(point 0 of 1\)$"):
        theta_jet(1e7j, 1j)


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


def _vanishing_jet(p, tau, dp=0, dtau=0):
    return np.zeros((dp + 1, dtau + 1, np.size(p)), dtype=complex)


def test_log_theta_partial_rejects_a_vanishing_jet(monkeypatch):
    monkeypatch.setattr(kernel, "theta_jet", _vanishing_jet)
    with pytest.raises(PoleHit):
        log_theta_partial(0.1 + 0.1j, TAU, 1, 1)


# ---------------------------------------------------------------------------
# a point's log-theta jet is its column of one
# ---------------------------------------------------------------------------

def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _fresh_log_theta_partial(p, tau, dp, dtau):
    """The partial read from a one-point rectangle computed now."""
    L = log_jet(theta_jet(np.array([p]), np.array([tau]), dp, dtau), p, tau)
    return complex(L[dp, dtau, 0]) * math.factorial(dp) * math.factorial(dtau)


# jet orders the torus workload asks for
@pytest.mark.parametrize("dp, dtau", [(1, 0), (2, 0), (1, 1), (0, 1), (3, 0),
                                      (2, 1), (1, 2)])
def test_memoised_jet_equals_a_recomputation_bit_for_bit(dp, dtau):
    # nothing is memoised: a point's partial, read twice, is each time the
    # float of its one-point rectangle
    for z in ZS:
        fresh = _fresh_log_theta_partial(z, TAU, dp, dtau)
        first = log_theta_partial(z, TAU, dp, dtau)
        again = log_theta_partial(z, TAU, dp, dtau)
        assert _bits(first) == _bits(fresh)
        assert _bits(again) == _bits(fresh)


def test_a_raised_pole_hit_is_not_memoised(monkeypatch):
    z = 0.1 + 0.1j
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "theta_jet", _vanishing_jet)
        with pytest.raises(PoleHit):
            log_theta_partial(z, TAU, 1, 1)
    value = log_theta_partial(z, TAU, 1, 1)
    assert cmath.isfinite(value)
    assert _bits(value) == _bits(_fresh_log_theta_partial(z, TAU, 1, 1))
