"""Genus-2 period matrix, interval integrals, and the variational check."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from gtlab import cli, hyperell, kernel
from gtlab.cli import main
from gtlab.errors import ConfigError, NonConvergence
from gtlab.hyperell import (
    PeriodData,
    interval_integrals,
    periods,
    rauch_check,
    rauch_prediction,
)

MODULI = (1.6, 2.8, 4.3)


def test_moduli_validation():
    for bad in [(2.0, 2.0, 3.0), (0.5, 2.0, 3.0), (3.0, 2.0, 4.0),
                (1.5, 1.5005, 3.0)]:
        with pytest.raises(ConfigError):
            interval_integrals(bad)


def test_interval_integrals_match_adaptive_quadrature():
    # independent oracle: mpmath adaptive quadrature of p^j dp / q on each
    # gap; q = i^(4-k) |q| on the k-th gap, so the integral carries i^(k-4).
    # At 40 digits: at 15 the oracle is itself 5.4e-10 off, since tanh-sinh
    # nodes crowd the endpoints, where p - e loses digits inside mpmath too
    a, b, c = MODULI
    es = [0.0, 1.0, a, b, c]
    J = interval_integrals(MODULI, nodes=200)
    for k in range(4):
        phase = 1j ** (k - 4)
        for j in range(2):
            with mp.workdps(40):
                val = mp.quad(
                    lambda p: p**j / mp.sqrt(abs(p * (p - 1) * (p - a)
                                                  * (p - b) * (p - c))),
                    [es[k], es[k + 1]],
                )
            oracle = complex(phase * val)
            assert J[j, k] == pytest.approx(oracle, rel=1e-9), (j, k)


def test_period_matrix_symmetry_and_positivity():
    pd = periods(MODULI)
    assert isinstance(pd, PeriodData)
    scale = float(np.max(np.abs(pd.B)))
    assert pd.symmetry_error / scale < 1e-10
    assert pd.positive
    assert min(pd.im_eigenvalues) > 0.1  # comfortably positive definite
    assert pd.convergence_error < 1e-10


@pytest.mark.parametrize("eigenvalues,nonpositive", [
    ((0.1, 1.0), 0), ((0.0, 1.0), 1), ((1.0, math.nan), 1), ((math.nan, 1.0), 1),
    ((-1.0, math.nan), 2),
])
def test_positivity_counts_every_eigenvalue_not_above_0(eigenvalues, nonpositive):
    # a NaN eigenvalue is not positive wherever it stands (min() of a
    # tuple would keep or drop it by position)
    pd = dataclasses.replace(periods(MODULI), im_eigenvalues=eigenvalues)
    assert pd.nonpositive == nonpositive
    assert pd.positive is (nonpositive == 0)


def test_period_matrix_converges_under_node_doubling():
    pd = periods(MODULI, nodes=100, check_tol=1e-8)
    assert pd.convergence_error < 1e-8


def test_period_matrix_refuses_an_unconverged_rule():
    # 4 against 8 nodes cannot resolve the periods: node doubling moves B
    # by far more than the tolerance, and periods raises instead of returning
    with pytest.raises(NonConvergence, match="under node doubling"):
        periods(MODULI, nodes=4, check_tol=1e-8)


def test_rauch_prediction_is_symmetric():
    pd = periods(MODULI)
    for branch in range(3):
        dB = rauch_prediction(pd, branch)
        assert abs(dB[0, 1] - dB[1, 0]) < 1e-14


@pytest.mark.parametrize("branch", [0, 1, 2])
def test_rauch_variation_matches_finite_difference(branch):
    rd = rauch_check(MODULI, branch)
    assert rd.max_rel_error < 1e-4, rd.max_rel_error
    # the exact derivative against central differences, within their bound
    oracle, bound = _richardson(MODULI, branch, 2 * hyperell.DEFAULT_NODES)
    assert np.all(np.abs(rd.dB - oracle) <= bound)


def test_rauch_rejects_bad_branch():
    with pytest.raises(ConfigError):
        rauch_check(MODULI, 3)


def test_degenerating_handle_blows_up_a_period():
    # as b -> a the cycle around the (a, b) gap pinches: the corresponding
    # entry of Im B grows without bound
    wide = periods((1.6, 2.8, 4.3))
    tight = periods((1.6, 1.605, 4.3))
    assert float(np.max(tight.B.imag)) > 2.0 * float(np.max(wide.B.imag))


def test_cached_rule_matches_a_fresh_rule_bit_for_bit():
    a, b, c = MODULI
    es = [0.0, 1.0, a, b, c]
    x, w = kernel.gauss_legendre(100)
    sin_th = np.sin(0.5 * math.pi * x)
    wt = 0.5 * math.pi * w
    fresh = np.zeros((2, 4), dtype=complex)
    for k in range(4):
        p = 0.5 * (es[k] + es[k + 1]) + 0.5 * (es[k + 1] - es[k]) * sin_th
        f0, f1, f2 = (p - e for e in es[:k] + es[k + 2:])
        s = wt / np.sqrt(np.abs(f0 * f1 * f2))
        fresh[:, k] = [np.sum(s) / 1j ** (4 - k), np.sum(s * p) / 1j ** (4 - k)]
    interval_integrals(MODULI, 100)  # the second call reads the cache
    assert np.array_equal(interval_integrals(MODULI, 100), fresh)


def test_cached_rule_is_read_only():
    for arr in hyperell._theta_rule(100):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_rauch_job_builds_each_rule_once(tmp_path, monkeypatch):
    # one job uses an n- and a 2n-node rule; every other periods call and
    # every stencil point must reuse them
    builds = []
    gauss_legendre = kernel.gauss_legendre

    def counting(n):
        builds.append(n)
        return gauss_legendre(n)

    hyperell._theta_rule.cache_clear()
    monkeypatch.setattr(kernel, "gauss_legendre", counting)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "rauch", "seed": 1, "nodes": 60,
                               "moduli": list(MODULI)}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    assert sorted(builds) == [60, 120]


@pytest.fixture
def no_rules(monkeypatch):
    """Any Gauss-Legendre rule built from here on fails the test."""
    def refuse(n):
        raise AssertionError(f"gauss_legendre({n}) built for an invalid job")

    hyperell._theta_rule.cache_clear()
    monkeypatch.setattr(kernel, "gauss_legendre", refuse)


@pytest.mark.parametrize("nodes", [0, hyperell.MAX_NODES + 1])
def test_node_count_is_bounded_before_any_rule_is_built(nodes, no_rules):
    with pytest.raises(ConfigError):
        periods(MODULI, nodes)
    with pytest.raises(ConfigError):
        rauch_check(MODULI, 0, nodes=nodes)


def test_rauch_job_loads_no_numpy_polynomial(tmp_path):
    # the rules come from kernel.gauss_legendre; numpy loads numpy.polynomial
    # lazily, so a fresh process that runs a rauch job must never import it
    code = (
        "import sys\n"
        "from gtlab import cli\n"
        f"cfg = {{'command': 'rauch', 'seed': 1, 'nodes': 60, 'moduli': {list(MODULI)}}}\n"
        f"assert cli.run(cfg, {str(tmp_path / 'r.json')!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(hyperell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("bad", [(1.5, 2.9, math.inf), (1.5, math.nan, 4.1),
                                 (-math.inf, 2.9, 4.1)])
def test_non_finite_modulus_fails_before_any_rule_is_built(bad, no_rules):
    # c = +inf satisfies 1 < a < b < c; without the finiteness check it ran
    # into inf * 0 and returned an all-NaN period matrix
    calls = [lambda: periods(bad, 20), lambda: rauch_check(bad, 0, nodes=20),
             lambda: interval_integrals(bad, 20),
             lambda: interval_integrals(bad, 20, derivatives=True)]
    for call in calls:
        with pytest.raises(ConfigError, match="branch points must"):
            call()


@pytest.mark.parametrize("branch, delta, point", [
    (None, 0.6, (1.5 - 0.6, 2.9, 4.1)),
    (0, 0.6, (1.5 - 0.6, 2.9, 4.1)),
    (1, 1.3, (1.5, 2.9 + 1.3, 4.1)),
    (2, 1.3, (1.5, 2.9, 4.1 - 1.3)),
])
def test_stencil_point_across_a_branch_point_exits_2(branch, delta, point, tmp_path,
                                                      capsys, no_rules):
    # the derivatives are exact, so no stencil point is left to carry across a
    # neighbouring branch point (the first one this delta would have is
    # ``point``): the job exits 2 on its delta, a key rauch no longer takes,
    # before any rule is built, naming the key and no triple
    job = {"command": "rauch", "seed": 1, "moduli": [1.5, 2.9, 4.1], "delta": delta}
    if branch is not None:
        job["branch"] = branch
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: unknown config keys for rauch: ['delta']\n"
    assert str(point) not in err


def test_a_config_with_delta_exits_2_naming_the_key(tmp_path, capsys, no_rules):
    # a step past every gap, the old default, and one too small to move a
    # branch point all exit 2 alike
    cfg = tmp_path / "job.json"
    for delta in (5.0, 1e-4, 1e-300):
        cfg.write_text(json.dumps({"command": "rauch", "seed": 1, "delta": delta}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == ("config error: unknown config keys for rauch: "
                                           "['delta']\n")
        assert not (tmp_path / "r.json").exists()


def test_rauch_job_makes_two_passes_and_one_periods_call(tmp_path, monkeypatch):
    # the n-node pass gives J for node doubling; the 2n-node pass gives J and
    # its derivatives in (a, b, c)
    passes, calls = [], []
    interval_integrals_, periods_ = hyperell.interval_integrals, hyperell.periods

    def counting_integrals(moduli, nodes, derivatives=False):
        passes.append((nodes, derivatives))
        return interval_integrals_(moduli, nodes, derivatives)

    def counting_periods(*args, **kwargs):
        calls.append(args)
        return periods_(*args, **kwargs)

    monkeypatch.setattr(hyperell, "interval_integrals", counting_integrals)
    monkeypatch.setattr(hyperell, "periods", counting_periods)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "rauch", "seed": 1, "nodes": 60,
                               "moduli": list(MODULI)}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    assert sorted(passes) == [(60, False), (120, True)]
    assert len(calls) == 1


def _stack(count, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.3, 1.5, size=(count, 3))
    return 1.0 + np.cumsum(gaps, axis=1)


@pytest.mark.parametrize("nodes", [1, 7, 60, 200, 2000])
def test_stacked_rows_equal_one_triple_calls_bit_for_bit(nodes):
    # the derivative pass stacks J and dJ/da, dJ/db, dJ/dc; its J row is the
    # J-only pass's bit for bit
    for row in _stack(13, nodes):
        J = interval_integrals(tuple(row), nodes, derivatives=True)
        assert J.shape == (4, 2, 4)
        assert np.array_equal(J[0], interval_integrals(tuple(row), nodes))


@pytest.mark.parametrize("nodes", [7, 60, 200])
def test_stacked_assemble_equals_per_row_assemble(nodes):
    # with derivatives stacked behind them, J, A and Braw lead with the
    # J-only assembly's, and C and B are its own, bit for bit
    for row in _stack(9, 100 + nodes):
        J, A, Braw, C, B = hyperell._assemble(tuple(row), nodes, derivatives=True)
        assert J.shape == (4, 2, 4) and A.shape == Braw.shape == (4, 2, 2)
        for whole, one in zip((J[0], A[0], Braw[0], C, B), hyperell._assemble(tuple(row), nodes)):
            assert np.array_equal(whole, one)


def test_rauch_equals_one_periods_call_bit_for_bit():
    # every branch's check reads the derivative and C of one periods call
    nodes = 60
    pd, checks = hyperell.rauch(MODULI, (0, 1, 2), nodes)
    alone = periods(MODULI, nodes)
    assert np.array_equal(pd.B, alone.B) and np.array_equal(pd.dB, alone.dB)
    assert pd.dB.shape == (3, 2, 2)
    for rd in checks:
        pred = rauch_prediction(pd, rd.branch)
        assert np.array_equal(rd.dB, pd.dB[rd.branch])
        assert np.array_equal(rd.dB_predicted, pred)
        assert rd.max_rel_error == float(np.max(np.abs(rd.dB - pred) / np.abs(pred)))


def _cancelling_integrals(moduli, nodes):
    """The interval integrals from all five factors of the quintic over the
    cos-theta Jacobian, the gap's own endpoints included: next to an
    endpoint p - e is a difference of numbers of order 1, so its relative
    rounding grows like nodes^2."""
    m = np.asarray(moduli, dtype=float)
    rows = np.atleast_2d(m)
    x, w = kernel.gauss_legendre(nodes)
    th = 0.5 * math.pi * x
    sin_th, cos_th, wt = np.sin(th), np.cos(th), 0.5 * math.pi * w
    a, b, c = (rows[:, i, None] for i in range(3))
    es = [0.0, 1.0, a, b, c]
    J = np.zeros((len(rows), 2, 4), dtype=complex)
    for k in range(4):
        mid, half = 0.5 * (es[k] + es[k + 1]), 0.5 * (es[k + 1] - es[k])
        p = mid + half * sin_th
        quintic = p * (p - 1.0) * (p - a) * (p - b) * (p - c)
        common = wt * half * cos_th / ((1j ** (4 - k)) * np.sqrt(np.abs(quintic)))
        J[:, 0, k] = np.sum(common, axis=-1)
        J[:, 1, k] = np.sum(common * p, axis=-1)
    return J if m.ndim == 2 else J[0]


RAUCH_AT_MAX_NODES = {"command": "rauch", "seed": 1, "nodes": 1000,
                      "moduli": [1.9142, 3.3547, 3.8277]}


def test_rauch_at_max_nodes_passes(tmp_path):
    # at MAX_NODES, forming the gap's own endpoint factors p - e makes this
    # job read 1.10e-4 against 1e-4 at branch b (the counter-test below)
    out = tmp_path / "r.json"
    assert cli.run(dict(RAUCH_AT_MAX_NODES), str(out)) == 0


def test_rauch_at_max_nodes_fails_on_cancelling_integrals(tmp_path, monkeypatch):
    # counter-test: the same job with J on the quintic's five factors reports a
    # period matrix outside the rounding bound of the 40-digit one, which the
    # job on three factors sits inside
    moduli, nodes = tuple(RAUCH_AT_MAX_NODES["moduli"]), 2 * RAUCH_AT_MAX_NODES["nodes"]
    J = _exact_integrals(moduli)
    A, Braw = (np.stack([J @ v for v in cycles], -1)
               for cycles in (hyperell.A_CYCLES, hyperell.B_CYCLES))
    exact, bound = np.linalg.inv(A) @ Braw, _period_error_bound(moduli, nodes)
    interval_integrals_ = hyperell.interval_integrals

    def cancelling(moduli, nodes, derivatives=False):
        J = _cancelling_integrals(moduli, nodes)
        return np.concatenate([J[None], interval_integrals_(moduli, nodes, True)[1:]]) \
            if derivatives else J

    def period_matrix(out):
        return np.array(json.loads(out.read_text())["extras"]["period_matrix"]) @ [1, 1j]

    out = tmp_path / "r.json"
    assert cli.run(dict(RAUCH_AT_MAX_NODES), str(out)) == 0
    assert np.all(np.abs(period_matrix(out) - exact) <= bound)
    monkeypatch.setattr(hyperell, "interval_integrals", cancelling)
    cli.run(dict(RAUCH_AT_MAX_NODES), str(out))
    assert np.any(np.abs(period_matrix(out) - exact) > bound)


U = np.finfo(float).eps / 2  # unit roundoff
NODE_ERROR = 2e-16  # |x - root| of kernel.gauss_legendre, pinned in tests/test_kernel.py


@functools.lru_cache(maxsize=None)
def _rule(nodes):
    return kernel.gauss_legendre(nodes)


def _integral_error_bound(moduli, nodes):
    """First-order bound (2, 4) on |interval_integrals - exact|, summed node
    by node from the rounding of each step.  Every term of a gap's sum has
    one sign, so relative term errors add up to the sum's.
    - The rule: a node dx off its root moves theta by pi/2 dx, and the
      weight 2 (1 - x^2) / (n (P_{n-1} - x P_n))^2 by 2|x| dx / (1 - x^2)
      relative; the three roundings of 1 - x^2 add 3u / (1 - x^2), the
      recurrence n u per P (so 2 n u squared) and the weight's five
      operations and the factor pi/2 6 u.
    - sin theta: one ulp, 2 u, on theta's own error cos(theta) d_theta
      (theta = pi/2 x rounds by 2 u |theta|, pi/2 and the product).
    - p = mid + half sin theta: |dp| <= half |d sin| + 4 u c.
    - Each other factor p - e: |dp| / |p - e| + u; the product, sqrt and
      division 4 u more, and half of the factors' error (the square root).
    - p^j: |dp| / p + u.
    - numpy's pairwise sum: at most 26 additions inside a block of 128 (8
      accumulators of 16, 3 to join them, 7 left over) and one per halving
      above it.
    - Truncation: the integrand is analytic in the Bernstein ellipse that
      reaches the nearest other branch point, so the rule converges like
      rho^(-2n); asserted below 1e-40, far under rounding."""
    x, w = _rule(nodes)
    th = 0.5 * math.pi * x
    sin_th = np.sin(th)
    d_sin = np.cos(th) * (0.5 * math.pi * NODE_ERROR + 2 * U * np.abs(th)) + 2 * U
    d_w = (2 * np.abs(x) * NODE_ERROR + 3 * U) / (1 - x * x) + (2 * nodes + 6) * U
    sum_rel = (26 + math.ceil(math.log2(nodes))) * U
    es = [0.0, 1.0, *moduli]
    bound = np.zeros((2, 4))
    for k in range(4):
        mid, half = 0.5 * (es[k] + es[k + 1]), 0.5 * (es[k + 1] - es[k])
        others = es[:k] + es[k + 2:]
        nearest = min(abs(e - mid) for e in others) / half
        z = 1 + 2j / math.pi * math.acosh(nearest)
        rho = max(abs(z + np.sqrt(z * z - 1)), abs(z - np.sqrt(z * z - 1)))
        assert rho ** (-2 * nodes) < 1e-40
        p = mid + half * sin_th
        dp = half * d_sin + 4 * U * es[-1]
        t = 0.5 * math.pi * w / np.sqrt(np.abs(np.prod([p - e for e in others], axis=0)))
        rel = d_w + sum(0.5 * (dp / np.abs(p - e) + U) for e in others) + 4 * U
        bound[0, k] = np.sum(t * rel) + sum_rel * np.sum(t)
        bound[1, k] = np.sum(t * (p * (rel + U) + dp)) + sum_rel * np.sum(t * p)
    return bound


def _period_error_bound(moduli, nodes):
    """First-order bound on |B - exact| entrywise: J's bound through
    A = J V_A and Braw = J V_B (one rounded addition), C = A^-1 and B = C Braw
    (6 u for LU and inversion at order 2, 2 u for the product)."""
    dJ = _integral_error_bound(moduli, nodes)
    _, A, Braw, C, B = (np.abs(v) for v in hyperell._assemble(moduli, nodes))
    dA = dJ @ np.abs(np.stack(hyperell.A_CYCLES, -1)) + U * A
    dBraw = dJ @ np.abs(np.stack(hyperell.B_CYCLES, -1)) + U * Braw
    return C @ (dBraw + dA @ B) + 6 * U * C @ A @ C @ Braw + 2 * U * C @ Braw


def _exact_integrals(moduli):
    """J from mpmath's tanh-sinh rule at 40 digits.  Its nodes crowd the
    endpoints, where p - e loses digits in mpmath too: at 30 digits it was
    1e-17 off a 60-digit run, at 40 digits 2e-22."""
    a, b, c = moduli
    es = [0.0, 1.0, a, b, c]
    J = np.zeros((2, 4), dtype=complex)
    with mp.workdps(40):
        for k in range(4):
            for j in range(2):
                val, err = mp.quad(lambda p: p**j / mp.sqrt(abs(p * (p - 1) * (p - a)
                                                                  * (p - b) * (p - c))),
                                   [es[k], es[k + 1]], error=True)
                assert err < 1e-20 * val
                J[j, k] = complex(1j ** (k - 4) * val)
    return J


@pytest.fixture(scope="module")
def seeded_moduli():
    # gaps from [0.3, 1.5], as bench/workloads._moduli draws them
    stack = [tuple(row) for row in _stack(10, 43)]
    return [(moduli, _exact_integrals(moduli)) for moduli in stack]


@pytest.mark.parametrize("nodes", [100, 1000])
def test_interval_integrals_sit_at_rounding(nodes, seeded_moduli):
    # mpmath oracle at 40 digits; the bound is derived from rounding alone
    for moduli, exact in seeded_moduli:
        bound = _integral_error_bound(moduli, nodes)
        error = np.abs(interval_integrals(moduli, nodes) - exact)
        assert np.all(error <= bound + 1e-20 * np.abs(exact)), moduli
        pd = periods(moduli, nodes)
        dB, dB2 = _period_error_bound(moduli, nodes), _period_error_bound(moduli, 2 * nodes)
        assert pd.symmetry_error <= 2 * np.max(dB2), moduli
        assert pd.convergence_error <= np.max(dB + dB2), moduli


def test_cancelling_integrals_fail_the_rounding_bound(seeded_moduli):
    for moduli, exact in seeded_moduli:
        bound = _integral_error_bound(moduli, 1000)
        assert np.any(np.abs(_cancelling_integrals(moduli, 1000) - exact) > bound), moduli


def _richardson(moduli, branch, nodes):
    """An independent oracle for dB/de at one branch point e: central
    differences D(h) = (B(e + h) - B(e - h)) / 2h of the n-node period matrix
    in Richardson's combination R(h) = (4 D(h/2) - D(h)) / 3, whose
    truncation is t h^4 + O(h^6).  Returns R(h/2) and an entrywise bound on
    |R(h/2) - dB/de|, with h 1/32 of the least gap next to e:
    - rounding: each B is within eps of the exact one (``_period_error_bound``),
      so D(h) is within eps/h, R(h) within 3 eps/h and R(h/2) within 6 eps/h;
    - truncation: R(h) - R(h/2) = 15/16 t h^4 plus both roundings, so R(h/2)'s
      own t h^4/16 is at most (|R(h) - R(h/2)| + 9 eps/h)/15.  The bound
      leaves out the 1/15 on |R(h) - R(h/2)|, which covers the O(h^6) terms:
      |R(h) - R(h/2)| + 7 eps/h."""
    gaps = np.diff([1.0, *moduli, math.inf])
    h = min(gaps[branch], gaps[branch + 1]) / 32
    B, eps = {}, 0.0
    for step in (h, -h, h / 2, -h / 2, h / 4, -h / 4):
        point = list(moduli)
        point[branch] += step
        B[step] = hyperell._assemble(point, nodes)[-1]
        eps = max(eps, float(np.max(_period_error_bound(point, nodes))))

    def R(h):
        D, D_half = ((B[step] - B[-step]) / (2 * step) for step in (h, h / 2))
        return (4 * D_half - D) / 3

    return R(h / 2), np.abs(R(h) - R(h / 2)) + 7 * eps / h


# valid configs that central differences failed: their (delta/gap)^2
# truncation read 6.9e-4, 4.9e-4 and 2.1e-4 against 1e-4 at delta = 1e-4
CLOSE_BRANCH_POINTS = [(1.5, 1.5011, 3.0), (1.0011, 2.0, 3.0), (1.5, 1.502, 3.0)]


@pytest.mark.parametrize("moduli", CLOSE_BRANCH_POINTS)
def test_close_branch_points_pass_rauch(moduli, tmp_path):
    out = tmp_path / "r.json"
    assert cli.run({"command": "rauch", "seed": 1, "moduli": list(moduli)}, str(out)) == 0


def test_exact_derivatives_sit_within_the_richardson_bound():
    # workload-style moduli (gaps from [0.3, 1.5]) and close branch points
    for moduli in [*map(tuple, _stack(6, 46)), *CLOSE_BRANCH_POINTS]:
        pd = periods(moduli)
        for branch in range(3):
            oracle, bound = _richardson(moduli, branch, 2 * hyperell.DEFAULT_NODES)
            assert np.all(np.abs(pd.dB[branch] - oracle) <= bound), (moduli, branch)


def _mutated_integrals(moduli, nodes, mutant):
    """J and dJ/d(a, b, c) gap by gap and modulus by modulus, with one defect:
    "log" drops dp/de from the log-derivative, "p1" drops s dp/de from the
    p^1 integrand's derivative, "sign" flips the log-derivative; None has none."""
    x, w = kernel.gauss_legendre(nodes)
    sin_th, wt = np.sin(0.5 * math.pi * x), 0.5 * math.pi * w
    es = [0.0, 1.0, *moduli]
    out = np.zeros((4, 2, 4), dtype=complex)
    for k in range(4):
        p = 0.5 * (es[k] + es[k + 1]) + 0.5 * (es[k + 1] - es[k]) * sin_th
        others = [e for e in range(5) if e not in (k, k + 1)]
        s = wt / np.sqrt(np.abs(np.prod([p - es[o] for o in others], axis=0))) / 1j ** (4 - k)
        out[0, :, k] = [np.sum(s), np.sum(s * p)]
        for m in (2, 3, 4):
            dp = (m == k) * (0.5 - 0.5 * sin_th) + (m == k + 1) * (0.5 + 0.5 * sin_th)
            dlog = -0.5 * sum(((mutant != "log") * dp - (m == o)) / (p - es[o]) for o in others)
            ds = s * dlog * (-1 if mutant == "sign" else 1)
            out[m - 1, :, k] = [np.sum(ds), np.sum(ds * p + (mutant != "p1") * s * dp)]
    return out


@pytest.mark.parametrize("moduli", [(1.7, 2.9, 4.1), (1.9142, 3.3547, 3.8277)])
@pytest.mark.parametrize("mutant, code", [(None, 0), ("log", 1), ("p1", 1), ("sign", 1)])
def test_mutated_derivatives_fail_rauch_variation(moduli, mutant, code, tmp_path, monkeypatch):
    # counter-test: each defect of the derivative pass fails rauch_variation,
    # and only it; the same pass without a defect passes
    interval_integrals_ = hyperell.interval_integrals

    def mutated(moduli, nodes, derivatives=False):
        if derivatives:
            return _mutated_integrals(moduli, nodes, mutant)
        return interval_integrals_(moduli, nodes)

    monkeypatch.setattr(hyperell, "interval_integrals", mutated)
    out = tmp_path / "r.json"
    assert cli.run({"command": "rauch", "seed": 1, "moduli": list(moduli)}, str(out)) == code
    failed = {r["identity"] for r in json.loads(out.read_text())["reports"] if not r["pass"]}
    assert failed == ({"rauch_variation"} if mutant else set())


def test_a_modulus_near_float_range_fails_closed(tmp_path):
    # the product of three factors p - e overflows: the job exits 1 naming the
    # overflow, never a warning or a traceback
    out = tmp_path / "r.json"
    assert cli.run({"command": "rauch", "seed": 1, "moduli": [1e200, 2e200, 3e200]},
                   str(out)) == 1
    assert json.loads(out.read_text())["error"] == (
        "FloatingPointError: overflow encountered in multiply")


@pytest.mark.parametrize("scale", [1e16, 1e80])
def test_rauch_variation_stays_relative_at_any_scale(scale, tmp_path, monkeypatch):
    # every predicted entry is below 1e-12 on these curves, so an absolute
    # floor there passed a derivative of the wrong sign; at 1e80 R(e)
    # overflows and the prediction is 0, which reads inf
    periods_ = hyperell.periods

    def flipped(*args, **kwargs):
        pd = periods_(*args, **kwargs)
        return dataclasses.replace(pd, dB=-pd.dB)

    monkeypatch.setattr(hyperell, "periods", flipped)
    out = tmp_path / "r.json"
    moduli = [scale, 2 * scale, 3 * scale]
    assert cli.run({"command": "rauch", "seed": 1, "moduli": moduli}, str(out)) == 1
    reports = json.loads(out.read_text())["reports"]
    assert [r["pass"] for r in reports if r["identity"] == "rauch_variation"] == [False] * 3
