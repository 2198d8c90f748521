"""Genus-2 period matrix, interval integrals, and the variational check."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from gtlab import hyperell, kernel
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
    # gap; q = i^(4-k) |q| on the k-th gap, so the integral carries i^(k-4)
    a, b, c = MODULI
    es = [0.0, 1.0, a, b, c]
    J = interval_integrals(MODULI, nodes=200)
    for k in range(4):
        phase = 1j ** (k - 4)
        for j in range(2):
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
    rd = rauch_check(MODULI, branch, delta=1e-4)
    assert rd.max_rel_error < 1e-4, rd.max_rel_error
    # the numeric derivative itself must have converged in the step
    assert rd.step_stability < 1e-4


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
    th = 0.5 * math.pi * x
    wt = 0.5 * math.pi * w
    fresh = np.zeros((2, 4), dtype=complex)
    for k in range(4):
        mid, half = 0.5 * (es[k] + es[k + 1]), 0.5 * (es[k + 1] - es[k])
        p = mid + half * np.sin(th)
        quintic = p * (p - 1.0) * (p - a) * (p - b) * (p - c)
        q = (1j ** (4 - k)) * np.sqrt(np.abs(quintic))
        common = wt * half * np.cos(th) / q
        fresh[0, k] = np.sum(common)
        fresh[1, k] = np.sum(common * p)
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
             lambda: interval_integrals([MODULI, bad], 20)]
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
    # a delta that would carry a stencil point (the first bad one is
    # ``point``) across a neighbouring branch point is refused before any
    # rule is built, naming delta and the least gap next to a varied branch
    # point, not a triple the config never gave
    job = {"command": "rauch", "seed": 1, "moduli": [1.5, 2.9, 4.1], "delta": delta}
    if branch is not None:
        job["branch"] = branch
    gaps = (1.5 - 1.0, 2.9 - 1.5, 4.1 - 2.9)
    least = min(gaps[g] for b in ((0, 1, 2) if branch is None else (branch,))
                for g in (b, b + 1) if g < 3)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: delta must be less than {least!r}, the least gap next "
                   f"to a varied branch point, got {delta!r}\n")
    assert str(point) not in err


def test_a_delta_past_the_least_gap_names_delta_and_the_gap(tmp_path, capsys, no_rules):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "rauch", "seed": 1, "delta": 5.0}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        "config error: delta must be less than 0.5, the least gap next to a varied branch "
        "point, got 5.0\n")
    # a delta just under the gap passes the check; its stencil point is then
    # too close to the neighbour, which the stencil's own check names
    with pytest.raises(ConfigError, match="branch points too close"):
        hyperell.rauch((1.5, 2.9, 4.1), (0,), delta=0.4999, nodes=20)
    # one so small that half of it leaves a branch point where it is would
    # divide a zero difference by it
    with pytest.raises(ConfigError, match="^delta must move each varied branch point by half "
                                          "of it, got 1e-300$"):
        hyperell.rauch((1.5, 2.9, 4.1), (2,), delta=1e-300, nodes=20)


def test_rauch_job_makes_two_passes_and_one_periods_call(tmp_path, monkeypatch):
    # the n-node pass answers the moduli; the 2n-node pass the moduli and the
    # +-delta, +-delta/2 points of each of the three branches
    passes, calls = [], []
    interval_integrals_, periods_ = hyperell.interval_integrals, hyperell.periods

    def counting_integrals(moduli, nodes):
        passes.append((nodes, len(np.atleast_2d(moduli))))
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
    assert sorted(passes) == [(60, 1), (120, 13)]
    assert len(calls) == 1


def _stack(count, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.3, 1.5, size=(count, 3))
    return 1.0 + np.cumsum(gaps, axis=1)


@pytest.mark.parametrize("nodes", [1, 7, 60, 200, 2000])
def test_stacked_rows_equal_one_triple_calls_bit_for_bit(nodes):
    stack = _stack(13, nodes)
    J = interval_integrals(stack, nodes)
    assert J.shape == (13, 2, 4)
    for row, J_row in zip(stack, J):
        assert np.array_equal(J_row, interval_integrals(tuple(row), nodes))


@pytest.mark.parametrize("nodes", [7, 60, 200])
def test_stacked_assemble_equals_per_row_assemble(nodes):
    stack = _stack(9, 100 + nodes)
    stacked = hyperell._assemble(stack, nodes)
    for i, row in enumerate(stack):
        for whole, one in zip(stacked, hyperell._assemble(tuple(row), nodes)):
            assert np.array_equal(whole[i], one)


def test_rauch_stencil_equals_one_triple_periods_bit_for_bit():
    # the stacked stencil gives the central differences that one periods call
    # per stencil point gives
    delta, nodes = 1e-3, 60
    pd, checks = hyperell.rauch(MODULI, (0, 1, 2), delta, nodes)
    assert np.array_equal(pd.B, periods(MODULI, nodes).B)
    for rd in checks:
        def B_at(step):
            point = list(MODULI)
            point[rd.branch] += step
            return periods(point, nodes).B

        dB = (B_at(delta) - B_at(-delta)) / (2.0 * delta)
        dB_half = (B_at(delta / 2.0) - B_at(-delta / 2.0)) / (2.0 * (delta / 2.0))
        assert np.array_equal(rd.dB_numeric, dB_half)
        assert rd.step_stability == float(np.max(np.abs(dB - dB_half)))
        assert np.array_equal(rd.dB_predicted, rauch_prediction(pd, rd.branch))
