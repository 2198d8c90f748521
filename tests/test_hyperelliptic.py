"""Genus-2 period matrix, interval integrals, and the variational check."""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from gtlab import cli, hyperell, kernel
from gtlab.cli import main
from gtlab.errors import ConfigError
from gtlab.hyperell import (
    PeriodData,
    interval_integrals,
    periods,
    rauch_check,
)

MODULI = (1.6, 2.8, 4.3)
# the homology basis of the module docstring: A_1 = 2 J_1, A_2 = 2 J_3, B_1 =
# 2 (J_2 + J_4), B_2 = 2 J_4, as columns, so J @ V_A = A and J @ V_B = Braw
V_A = np.array([[2, 0], [0, 0], [0, 2], [0, 0]]) + 0j
V_B = np.array([[0, 0], [2, 0], [0, 0], [2, 2]]) + 0j


def _assemble(J):
    """A, Braw, C = A^-1 by LU and B = C Braw by numpy from interval integrals
    J (..., 2, 4): an oracle apart from the module's scalar 2x2 algebra."""
    A, Braw = J @ V_A, J @ V_B
    C = np.linalg.inv(A)
    return A, Braw, C, C @ Braw


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
    J = interval_integrals(MODULI, nodes=200)[0]
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
    assert pd.nonpositive == 0
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


def test_period_matrix_converges_under_node_doubling():
    # the curve calls for 19.1 nodes: one pass at 24 and 48 agrees within
    # its rounding bound, under the cap of 100
    pd = periods(MODULI, nodes=100)
    assert (pd.nodes, pd.passes) == (24, 1)
    assert pd.convergence_error < pd.convergence_tol < 1e-12


def test_period_matrix_refuses_an_unconverged_rule():
    # 4 against 8 nodes cannot resolve the periods: node doubling moves B
    # by far more than its rounding bound, and a cap of 4 leaves no doubling
    pd = periods(MODULI, nodes=4)
    assert (pd.nodes, pd.passes) == (4, 1)
    assert pd.convergence_error > 1e6 * pd.convergence_tol
    assert pd.gap is not None


def test_rauch_prediction_is_symmetric():
    _, checks = hyperell.rauch(MODULI)
    for rd in checks:
        dB = rd.dB_predicted
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
    assert np.array_equal(interval_integrals(MODULI, 100)[0], fresh)


def test_cached_rule_is_read_only():
    for arr in hyperell._theta_rule(100):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_rauch_job_builds_each_rule_once(tmp_path, monkeypatch):
    # one job under a cap of 60 sums at the 24 nodes the curve calls for: it
    # builds the 24- and the 48-node rule once, and nothing else
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
    assert sorted(builds) == [24, 48]


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
             lambda: interval_integrals(bad, 20)]
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


def test_rauch_job_makes_one_pass_and_one_periods_call(tmp_path, monkeypatch):
    # one pass over the n- and the 2n-node rule, at the curve's 24 nodes under
    # the cap of 60, gives J on the n nodes for node doubling, and J and its
    # derivatives in (a, b, c) on the 2n, which agree: no second pass
    passes, calls = [], []
    interval_integrals_, periods_ = hyperell.interval_integrals, hyperell.periods

    def counting_integrals(moduli, nodes):
        passes.append(nodes)
        return interval_integrals_(moduli, nodes)

    def counting_periods(*args, **kwargs):
        calls.append(args)
        return periods_(*args, **kwargs)

    monkeypatch.setattr(hyperell, "interval_integrals", counting_integrals)
    monkeypatch.setattr(hyperell, "periods", counting_periods)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "rauch", "seed": 1, "nodes": 60,
                               "moduli": list(MODULI)}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    assert passes == [24]
    assert len(calls) == 1


def _stack(count, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.3, 1.5, size=(count, 3))
    return 1.0 + np.cumsum(gaps, axis=1)


@pytest.mark.parametrize("nodes", [1, 7, 60, 200, 2000])
def test_stacked_rows_equal_one_triple_calls_bit_for_bit(nodes):
    # the pass stacks J on the n-node rule, then J and dJ/da, dJ/db, dJ/dc
    # on the 2n-node rule, then the rounding bounds of the two J rows; its
    # 2n-node J row is, bit for bit, the n-node row of the pass at 2n
    for row in _stack(13, nodes):
        J = interval_integrals(tuple(row), nodes)
        assert J.shape == (7, 2, 4)
        assert np.array_equal(J[1], interval_integrals(tuple(row), 2 * nodes)[0])
        assert np.all(J[5:].imag == 0) and np.all(J[5:].real > 0)


@pytest.mark.parametrize("nodes", [7, 60, 200])
def test_stacked_assemble_equals_per_row_assemble(nodes):
    # periods assembles C and B from the 2n-node rows of its one stacked
    # pass, at the curve's node count under the cap (the cap of 7 itself),
    # and node doubling's B from its n-node rows, bit for bit as from a
    # J-only pass on each rule alone
    for row in _stack(9, 100 + nodes):
        pd = periods(tuple(row), nodes)
        assert (pd.nodes, pd.passes) == (min(nodes, 24), 1)
        Bs = []
        for n in (pd.nodes, 2 * pd.nodes):
            A, Braw = hyperell._cycles(interval_integrals(tuple(row), n)[0].tolist())
            C = hyperell._inverse(A)
            Bs.append(hyperell._product(C, Braw))
        assert np.array_equal(pd.C, C) and np.array_equal(pd.B, Bs[1])
        assert pd.convergence_error == np.max(np.abs(np.subtract(*Bs)))


def test_rauch_equals_one_periods_call_bit_for_bit():
    # every branch's check reads the derivative and C of one periods call
    nodes = 60
    pd, checks = hyperell.rauch(MODULI, (0, 1, 2), nodes)
    alone = periods(MODULI, nodes)
    assert np.array_equal(pd.B, alone.B) and np.array_equal(pd.dB, alone.dB)
    assert pd.dB.shape == (3, 2, 2)
    for rd in checks:
        pred = np.array(hyperell._prediction(alone.C.tolist(), alone.moduli, rd.branch))
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


@pytest.fixture
def at_the_cap(monkeypatch):
    """Every job sums at its cap: the curve calls for no node count."""
    monkeypatch.setattr(hyperell, "_predicted_nodes", lambda moduli: math.inf)


def test_rauch_at_max_nodes_passes(tmp_path, at_the_cap):
    # this curve calls for 24 nodes; summed at MAX_NODES instead, forming the
    # gap's own endpoint factors p - e makes this job read 1.10e-4 against
    # 1e-4 at branch b (the counter-test below), and three factors pass
    out = tmp_path / "r.json"
    assert cli.run(dict(RAUCH_AT_MAX_NODES), str(out)) == 0
    convergence = json.loads(out.read_text())["reports"][0]
    assert convergence["identity"] == "period_convergence"
    assert (convergence["params"]["nodes"], convergence["params"]["passes"]) == (1000, 1)


def test_rauch_at_max_nodes_fails_on_cancelling_integrals(tmp_path, monkeypatch, at_the_cap):
    # counter-test: the same job at MAX_NODES with J on the quintic's five
    # factors reports a period matrix outside the rounding bound of the
    # 40-digit one, which the job on three factors sits inside
    moduli, nodes = tuple(RAUCH_AT_MAX_NODES["moduli"]), 2 * RAUCH_AT_MAX_NODES["nodes"]
    exact, bound = _assemble(_exact_integrals(moduli))[-1], _period_error_bound(moduli, nodes)
    interval_integrals_ = hyperell.interval_integrals

    def cancelling(moduli, nodes):
        # J on both rules from the five factors, the derivatives as the pass has them
        J = [_cancelling_integrals(moduli, n)[None] for n in (nodes, 2 * nodes)]
        return np.concatenate([*J, interval_integrals_(moduli, nodes)[2:]])

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


def _integral_error_bound(moduli, nodes, exact=True):
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
      rho^(-2n); asserted below 1e-40, far under rounding, where the bound
      is held against the exact integrals (``exact``).  Against the module's
      own rounding bound (``exact=False``) it is left out: two rules' B then
      agree within their rounding bounds only where truncation is below
      them, which is what node doubling tests."""
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
        assert not exact or rho ** (-2 * nodes) < 1e-40
        p = mid + half * sin_th
        dp = half * d_sin + 4 * U * es[-1]
        t = 0.5 * math.pi * w / np.sqrt(np.abs(np.prod([p - e for e in others], axis=0)))
        rel = d_w + sum(0.5 * (dp / np.abs(p - e) + U) for e in others) + 4 * U
        bound[0, k] = np.sum(t * rel) + sum_rel * np.sum(t)
        bound[1, k] = np.sum(t * (p * (rel + U) + dp)) + sum_rel * np.sum(t * p)
    return bound


def _period_error_bound(moduli, nodes, exact=True):
    """First-order bound on |B - exact| entrywise, for the module's B and for
    ``_assemble``'s: J's bound through A = J V_A and Braw = J V_B (one rounded
    addition), then C = A^-1 and B = C Braw.  A complex product rounds by at
    most 2 sqrt(2) u and a quotient by 4 sqrt(2) u (Higham, Lemma 3.5):
    - the adjugate's det = ad - bc is within (2 sqrt(2) + 1) u (|ad| + |bc|),
      and C's entries take that over |det| plus a quotient, at most
      12 u |C||A||C| entrywise, since (|C||A||C|)_jk >= |C_jk| (|ad| +
      |bc|) / |det| >= |C_jk|; LU with partial pivoting stays within 6 u;
    - each entry of C Braw is two products and a sum, 4 u |C||Braw|."""
    dJ = _integral_error_bound(moduli, nodes, exact)
    A, Braw, C, B = (np.abs(v) for v in _assemble(interval_integrals(moduli, nodes)[0]))
    dA = dJ @ np.abs(V_A) + U * A
    dBraw = dJ @ np.abs(V_B) + U * Braw
    return C @ (dBraw + dA @ B) + 12 * U * C @ A @ C @ Braw + 4 * U * C @ Braw


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
        error = np.abs(interval_integrals(moduli, nodes)[0] - exact)
        assert np.all(error <= bound + 1e-20 * np.abs(exact)), moduli
        pd = periods(moduli, nodes)  # at the curve's node count under the cap
        dB, dB2 = (_period_error_bound(moduli, n, exact=False) for n in (pd.nodes, 2 * pd.nodes))
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
        B[step] = _assemble(interval_integrals(point, nodes)[0])[-1]
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

    def mutated(moduli, nodes):
        # the pass's J on the n-node rule, then the mutant's J and dJ on the
        # 2n, then the pass's rounding bounds
        J = interval_integrals_(moduli, nodes)
        return np.concatenate([J[:1], _mutated_integrals(moduli, 2 * nodes, mutant), J[5:]])

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


def _workload_moduli(count, seed):
    """``count`` triples drawn as bench/workloads._moduli draws a job's."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random(seed)
    return [tuple(workloads._moduli(rng)) for _ in range(count)]


WORKLOAD_MODULI = _workload_moduli(40, "scalar 2x2 algebra")


def _tail_errors(periods_fn, moduli, nodes=hyperell.DEFAULT_NODES):
    """The fields of ``periods_fn(moduli, nodes)`` outside their bound from
    ``_assemble`` and ``eigvalsh`` on the same stacked J.  Each side's inverse
    is within 8 u kappa_F(A) ||C||_F of A^-1, to first order (the adjugate's
    worst entry reads 6 u kappa_F, from ``_period_error_bound``'s 12 u
    |C||A||C| and (|ad| + |bc|) / |det| <= kappa_F / 2; LU on a 2x2 reads
    less), so the two differ by d = 16 u kappa_F ||C||_F, and, with norms
    Frobenius and d >= 16 u covering the 4 u of each product:
    - C: d; B = C Braw: 2 d ||Braw|| (as is the n-node B, on its own A);
    - dB = C (dBraw - dA B): 4 d (||dBraw|| + ||dA|| ||C|| ||Braw||), the
      first d for C, two for B through dA, one for the products;
    - each Im B eigenvalue: the symmetric part of the B difference, within
      3 times its entrywise bound in norm (Weyl), plus each side's own
      rounding, 8 u ||Im B||_2 for the determinant over the far root and a
      few u for eigvalsh: 16 u ||Im B||_2."""
    pd = periods_fn(moduli, nodes)
    J = interval_integrals(moduli, pd.nodes)[:5]  # the pass periods reported
    A, Braw, _, _ = _assemble(J)
    C = np.linalg.inv(A[1])
    B, B_n = C @ Braw[1], np.linalg.inv(A[0]) @ Braw[0]
    dB = C @ (Braw[2:] - A[2:] @ B)
    norm = np.linalg.norm

    def d(A):
        return 16 * U * np.linalg.cond(A, "fro") * norm(np.linalg.inv(A))

    dC, dB_n = d(A[1]), 2 * d(A[0]) * norm(Braw[0])
    dB2 = 2 * dC * norm(Braw[1])
    bounds = {
        "C": (np.abs(pd.C - C), dC),
        "B": (np.abs(pd.B - B), dB2),
        "n-node B": (abs(pd.convergence_error - np.max(np.abs(B_n - B))), dB_n + dB2),
        "dB": (np.abs(pd.dB - dB), [4 * dC * (norm(dBraw) + norm(dA) * norm(C) * norm(Braw[1]))
                                     for dA, dBraw in zip(A[2:], Braw[2:])]),
        "eigenvalues": (np.abs(np.subtract(pd.im_eigenvalues, np.linalg.eigvalsh(B.imag))),
                        3 * dB2 + 16 * U * norm(B.imag, 2)),
    }
    return [name for name, (error, bound) in bounds.items()
            if not np.all(error.T <= np.transpose(bound))]


def test_scalar_tail_matches_numpy_on_the_same_integrals():
    # C, B, the n-node B, dB and Im B's eigenvalues in Python scalars against
    # np.linalg.inv and eigvalsh, within a bound from eps and cond(A)
    for moduli in WORKLOAD_MODULI:
        assert _tail_errors(periods, moduli) == [], moduli


def _mutant_periods(old, new, monkeypatch):
    """``periods`` of the module's source with ``old``, found once, made ``new``."""
    path = Path(hyperell.__file__)
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    module = types.ModuleType("gtlab.mutant_hyperell")
    module.__package__ = "gtlab"
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclass reads it
    exec(compile(source.replace(old, new), str(path), "exec"), module.__dict__)
    return module.periods


@pytest.mark.parametrize("old, new, leaves", [
    # the adjugate's upper off-diagonal sign flipped
    ("[[d / det, -b / det]", "[[d / det, b / det]", "C"),
    # the lower eigenvalue from the "+" root, m + r, like the upper
    ("near = (a * d - b * b) / far if far else 0.0", "near = m + r", "eigenvalues"),
    # dB = C dBraw, the dA B term dropped
    ("_product(C, [[x - y for x, y in zip(*rows)] for rows in zip(dBraw, dAB)])",
     "_product(C, dBraw)", "dB"),
], ids=["adjugate-sign", "plus-root", "dropped-dA-B"])
def test_a_mutated_scalar_tail_leaves_the_oracle(old, new, leaves, monkeypatch):
    # counter-test: each defect of the 2x2 algebra leaves the bound on every curve
    mutant = _mutant_periods(old, new, monkeypatch)
    for moduli in WORKLOAD_MODULI[:5]:
        assert leaves in _tail_errors(mutant, moduli), moduli


@pytest.mark.parametrize("im", [
    [[2.0, 0.5], [0.5, 1.0]], [[1.0, 9.0], [0.3, 1.0]], [[-1e8, 1.0], [1.0, 1.0]],
    [[-3.0, 1.0], [1.0, -2.0]], [[1.0, 2.0], [2.0, 1.0]], [[-0.0, 1.0], [1.0, -0.0]],
    [[0.0, 0.0], [0.0, 0.0]], [[5.0, 0.0], [0.0, 5.0]],
])
def test_im_eigenvalues_match_eigvalsh_on_any_symmetric_part(im):
    # definite, indefinite and zero; the lower triangle counts, as in eigvalsh
    got = hyperell._im_eigenvalues((1j * np.array(im)).tolist())
    want = np.linalg.eigvalsh(np.array(im))
    assert np.all(np.abs(np.subtract(got, want)) <= 16 * U * np.max(np.abs(want)))


def _patched_job(tmp_path, monkeypatch, patch):
    """A rauch job whose pass is ``patch``ed in place: (exit code, report)."""
    interval_integrals_ = hyperell.interval_integrals

    def patched(moduli, nodes):
        J = interval_integrals_(moduli, nodes)
        patch(J)
        return J

    monkeypatch.setattr(hyperell, "interval_integrals", patched)
    out = tmp_path / "r.json"
    code = cli.run({"command": "rauch", "seed": 1, "moduli": list(MODULI)}, str(out))
    return code, json.loads(out.read_text())


def test_a_singular_a_period_matrix_fails_closed(tmp_path, monkeypatch):
    # the two differentials' integrals made equal, so A's rows are: the job
    # ends on a named ZeroDivisionError and exit 1, never a traceback
    def singular(J):
        J[:, 1] = J[:, 0]

    code, report = _patched_job(tmp_path, monkeypatch, singular)
    assert code == 1 and report["verdict"] == "fail" and report["reports"] == []
    assert report["error"] == "ZeroDivisionError: complex division by zero"


def test_a_nan_integral_fails_the_job(tmp_path, monkeypatch):
    # one NaN in J on the 2n-node rule: every check reads NaN and fails
    def nan(J):
        J[1, 0, 1] = math.nan

    code, report = _patched_job(tmp_path, monkeypatch, nan)
    assert code == 1 and report["verdict"] == "fail" and report["error"] is None
    assert {r["identity"]: r["max_residual"] for r in report["reports"]} == {
        "period_convergence": "nan", "period_symmetry": "nan", "period_positivity": 2.0,
        "rauch_variation": "nan"}


# ---------------------------------------------------------------------------
# rules sized by the curve: the node count, node doubling and its tolerance
# ---------------------------------------------------------------------------

# two branch points 1.1e-3 apart, on one side of a gap or crowding one from both
NEAR_COLLISIONS = [(1.0011, 2.0, 3.0), (1.5, 1.5011, 3.0), (1.5, 2.5, 2.5011),
                   (1.5, 1.5011, 1.5022)]


@pytest.mark.parametrize("moduli, predicted, nodes", [
    *zip(NEAR_COLLISIONS, (89.337, 98.909, 89.337, 75.024), (96, 104, 96, 80)),
    (MODULI, 19.078, 24),
])
def test_the_node_count_follows_the_nearest_branch_point(moduli, predicted, nodes, tmp_path):
    # ln(1e16) / (2 ln rho) on the slowest gap, rounded up to a multiple of 8
    # and at least 24; at the default cap one pass agrees, and the job passes
    pd = periods(moduli)
    assert pd.predicted_nodes == pytest.approx(predicted, abs=1e-3)
    assert (pd.nodes, pd.passes, pd.gap) == (nodes, 1, None)
    out = tmp_path / "r.json"
    assert cli.run({"command": "rauch", "seed": 1, "moduli": list(moduli)}, str(out)) == 0


def test_workload_curves_take_one_pass_at_24_nodes():
    # gaps from [0.3, 1.5] call for 16 to 24 nodes
    for moduli in WORKLOAD_MODULI:
        pd = periods(moduli)
        assert 16 < pd.predicted_nodes <= 24 and (pd.nodes, pd.passes) == (24, 1), moduli


@pytest.mark.parametrize("moduli", [(1e16, 2e16, 3e16), (1e80, 2e80, 3e80),
                                    (1e200, 2e200, 3e200), (1.5, 2.0, 1.7e308)])
def test_a_branch_point_rounding_onto_a_gap_end_calls_for_the_cap(moduli):
    # at these scales 0 lies one half width from the middle of (1, a) to the
    # last bit, so rho reads 1: the count is inf, never a ZeroDivisionError,
    # and the ladder is the cap alone
    assert hyperell._predicted_nodes(moduli) == math.inf
    assert list(hyperell._ladder(math.inf, 200)) == [200]


def test_an_undersized_start_doubles_until_the_passes_agree(tmp_path, monkeypatch):
    # a near collision that calls for 99 nodes, started at 24: 24 and 48
    # disagree, so n doubles along 24, 48, 96 until two passes agree, each
    # reported pass the one periods would make at its node count
    moduli = (1.5, 1.5011, 3.0)
    monkeypatch.setattr(hyperell, "_predicted_nodes", lambda moduli: 20.0)
    passes = []
    interval_integrals_ = hyperell.interval_integrals

    def counting(moduli, nodes):
        passes.append(nodes)
        return interval_integrals_(moduli, nodes)

    monkeypatch.setattr(hyperell, "interval_integrals", counting)
    pd = periods(moduli)
    assert passes == [24, 48, 96] and (pd.nodes, pd.passes, pd.gap) == (96, 3, None)
    assert pd.convergence_error < pd.convergence_tol
    out = tmp_path / "r.json"
    assert cli.run({"command": "rauch", "seed": 1, "moduli": list(moduli)}, str(out)) == 0


def test_a_rule_capped_below_the_need_fails_period_convergence_naming_the_gap(tmp_path):
    # 25 nodes on a curve that calls for 99: B on 25 and 50 nodes differ by
    # 3.5e-5, the job fails period_convergence and names the gap whose
    # integrals moved most past their bound; at a fixed 1e-8, period_symmetry
    # passed this B at 1.35e-9, and it now fails against its rounding bound
    out = tmp_path / "r.json"
    job = {"command": "rauch", "seed": 1, "nodes": 25, "moduli": [1.5, 1.5011, 3.0]}
    assert cli.run(job, str(out)) == 1
    reports = json.loads(out.read_text())["reports"]
    assert {r["identity"] for r in reports if not r["pass"]} == {"period_convergence",
                                                                 "period_symmetry"}
    convergence = reports[0]
    assert convergence["identity"] == "period_convergence"
    assert convergence["max_residual"] == pytest.approx(3.5e-5, rel=0.01)
    params = convergence["params"]
    assert (params["nodes"], params["passes"], params["gap"]) == (25, 1, [1.5011, 3.0])
    assert params["predicted_nodes"] == pytest.approx(98.909, abs=1e-3)


def test_the_tolerances_cover_the_rounding_bound():
    # the derivation: interval_integrals' bound on each J is the node-by-node
    # one above with each node's |dp| at its largest (a few times larger at
    # the ends, where a crowding branch point weighs most) and u |J_0| more,
    # so it covers _integral_error_bound; periods carries it through the 2x2
    # algebra as _period_error_bound does, with the 2n-node rule's C and B
    # for both rules.  So the convergence tolerance covers the bounds of B_n
    # and B_2n added, the symmetry tolerance those of B_12 and B_21 on the
    # 2n nodes, and neither is looser than twice them
    for moduli in [MODULI, *WORKLOAD_MODULI[:10], *NEAR_COLLISIONS, *CLOSE_BRANCH_POINTS]:
        pd = periods(moduli)
        n = pd.nodes
        err = interval_integrals(moduli, n)[5:].real
        for row, rule in zip(err, (n, 2 * n)):
            tight = _integral_error_bound(moduli, rule, exact=False)
            assert np.all((tight <= row) & (row <= 2 * tight)), (moduli, rule)
        dB, dB2 = (_period_error_bound(moduli, rule, exact=False) for rule in (n, 2 * n))
        assert np.max(dB + dB2) <= pd.convergence_tol <= 2 * np.max(dB + dB2), moduli
        assert dB2[0, 1] + dB2[1, 0] <= pd.symmetry_tol <= 2 * (dB2[0, 1] + dB2[1, 0]), moduli
        assert pd.convergence_error < pd.convergence_tol and pd.symmetry_error < pd.symmetry_tol


def test_a_b12_moved_by_100_times_the_bound_fails_period_symmetry(tmp_path, monkeypatch):
    # counter-test: B_12 of the reported pass moved by 100 symmetry
    # tolerances fails period_symmetry, and only it
    monkeypatch.setattr(hyperell, "periods", _mutant_periods(
        "    gap = None\n", "    B[0][1] += 100 * sym_tol\n    gap = None\n", monkeypatch))
    out = tmp_path / "r.json"
    assert cli.run({"command": "rauch", "seed": 1, "moduli": list(MODULI)}, str(out)) == 1
    reports = json.loads(out.read_text())["reports"]
    symmetry = next(r for r in reports if r["identity"] == "period_symmetry")
    assert symmetry["max_residual"] == pytest.approx(100 * symmetry["tolerance"], rel=1e-3)
    assert [r["identity"] for r in reports if not r["pass"]] == ["period_symmetry"]
