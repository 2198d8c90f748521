"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; every criterion is a
single test whose PASSED/FAILED line is the verdict.  Each test also
prints a short measurement summary (visible with ``-s`` or on failure).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from gtlab import catalog
from gtlab.cli import main as cli_main
from gtlab.core import (
    CoordinateChange,
    collide_points_closed,
    add_points,
    pushforward,
    verify_all,
    verify_lambda,
    verify_potential,
)
from gtlab.gtsys import (
    build_system,
    compatibility_residual,
    convergence_ratio,
    inject_defect,
)
from gtlab.hierarchy import (
    PotentialFamily,
    dimension_D,
    hydro_coefficients,
    reconstruct_f,
    reconstruct_lambda,
)
from gtlab.hyperell import periods, rauch_check
from gtlab.kernel import Domain, JetEvaluator, SplitMix64


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _system(name: str, n: int):
    return build_system(catalog.build_structure(name, n))


def _family(name: str, n: int) -> PotentialFamily:
    ent = catalog.CATALOG[name]
    enh = ent.build_enhanced(n)
    return PotentialFamily(enh.base, ent.potentials(n), enhanced=enh,
                           label=name)


def test_criterion_1_axiom_suite():
    t0 = time.perf_counter()
    worst = {}
    for name, n, tol in [("genus0", 3, 1e-8), ("genus1", 2, 1e-8),
                         ("benney", 3, 1e-8), ("genus2", 0, 1e-6)]:
        s = catalog.build_structure(name, n)
        reps = verify_all(s, samples=100, seed=1, tol=tol)
        worst[name] = max(r.max_residual for r in reps)
        for r in reps:
            assert r.passed, f"{name}/{r.identity}: {r.max_residual:.3e}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    detail = (", ".join(f"{k} {v:.2e}" for k, v in worst.items())
              + f"; {elapsed:.1f}s")
    _verdict(1, ok, detail)


def test_criterion_2_enhanced_suite():
    worst = 0.0
    for name, n in [("genus0", 2), ("genus1", 2)]:
        enh = catalog.build_enhanced(name, n)
        rep = verify_lambda(enh, samples=100, seed=4, tol=1e-8)
        assert rep.passed, f"{name} lambda: {rep.max_residual:.3e}"
        worst = max(worst, rep.max_residual)
        for pot in catalog.build_potentials(name, n):
            prep = verify_potential(enh, pot, samples=100, seed=5, tol=1e-8)
            assert prep.passed, f"{name}/{pot.label}: {prep.max_residual:.3e}"
            worst = max(worst, prep.max_residual)
    # the linear potential of the torus: both sides of its identity equal
    # f(p1, p2) - 2 pi i exactly, i.e. the fiber action contributes the
    # constant -2 pi i and lambda differs from f by the same constant
    enh = catalog.build_enhanced("genus1", 1)
    lin = catalog.build_potentials("genus1", 1)[0]
    s = enh.base
    p1, p2, *v = s.sample(1, seed=2, n_p=2)[0].tolist()
    action = sum(
        s.g[k].value((p1, *v))
        * lin.h.partial((p2, *v), [0] * (1 + k) + [1] + [0] * (s.m - 1 - k))
        for k in range(s.m)
    )
    lam_minus_f = enh.lam.value((p1, p2, *v)) - s.f.value((p1, p2, *v))
    exact = -2j * math.pi
    machine = max(abs(action - exact), abs(lam_minus_f - exact))
    ok = machine < 1e-13
    _verdict(2, ok, f"worst residual {worst:.2e}, "
                    f"-2 pi i check {machine:.1e}")


def test_criterion_3_transform_preservation():
    worst = 0.0

    def check(s, tol=1e-6, samples=40, seed=3):
        nonlocal worst
        for r in verify_all(s, samples=samples, seed=seed, tol=tol):
            assert r.passed, f"{s.label}/{r.identity}: {r.max_residual:.3e}"
            worst = max(worst, r.max_residual)

    # adding punctures
    check(add_points(catalog.build_structure("genus0", 1), 2))
    # two non-affine coordinate changes
    # coefficients small enough that mu stays invertible on the sample box
    for scale, power in [(0.05, 2), (0.01, 3)]:
        def fn(*args, _s=scale, _k=power):
            return args[0] + _s * args[1] * args[0] ** _k

        def partials(args, multis, _s=scale, _k=power):
            # the pushforward's first partials ask mu's up to order 2
            p, u = args
            d = {(1, 0): 1.0 + _s * u * _k * p ** (_k - 1), (0, 1): _s * p ** _k,
                 (2, 0): _s * u * _k * (_k - 1) * p ** (_k - 2), (1, 1): _s * _k * p ** (_k - 1),
                 (0, 2): 0.0}
            return [d[tuple(multi)] if any(multi) else NotImplemented for multi in multis]

        mu = CoordinateChange(JetEvaluator(2, fn, domain=Domain(), partial_fn=partials,
                                           label="mu"))
        check(pushforward(catalog.build_structure("genus0", 1), mu))
    # collisions of depth <= 2, one and two groups
    check(collide_points_closed(catalog.build_structure("benney", 3),
                                [[0, 1]]), samples=25)
    check(collide_points_closed(catalog.build_structure("benney", 4),
                                [[0, 1], [2, 3]]), samples=25)
    # the collided components against benney's own closed forms at depth 1
    # and 2: u1/(p - u0)^2 and 2 u1^2/(p - u0)^3 + u2/(p - u0)^2
    closed = collide_points_closed(catalog.build_structure("benney", 3), [[0, 1, 2]])
    gap = 0.0
    for p, u0, u1, u2 in closed.sample(20, seed=9, n_p=1).tolist():
        d = p - u0
        for g, want in zip(closed.g[1:], [u1 / d ** 2, 2 * u1 ** 2 / d ** 3 + u2 / d ** 2]):
            gap = max(gap, abs(g.value((p, u0, u1, u2)) - want) / abs(want))
    ok = gap < 1e-13
    _verdict(3, ok, f"worst axiom residual {worst:.2e}, "
                    f"closed-form gap {gap:.2e}")


def test_criterion_4_compatibility_forward_and_detection():
    worst = 0.0
    for name, n in [("benney", 2), ("genus0", 2), ("genus1", 1),
                    ("genus2", 0)]:
        rep = compatibility_residual(_system(name, n), M=3, states=50,
                                     seed=17, tol=1e-9)
        assert rep.passed, f"{name}: {rep.max_residual:.3e}"
        worst = max(worst, rep.max_residual)
    # 50/50 detection of injected 1e-2 defects in f
    base = catalog.build_structure("benney", 2)
    detected = 0
    floor = math.inf
    for trial in range(50):
        bad = build_system(inject_defect(base, scale=1e-2, seed=trial))
        res = compatibility_residual(bad, M=3, states=5,
                                     seed=17).max_residual
        floor = min(floor, res)
        detected += res > 1e-4
    ok = detected == 50
    _verdict(4, ok, f"clean worst {worst:.2e}, detected {detected}/50 "
                    f"(weakest defect {floor:.2e})")


def test_criterion_5_reduction_second_order():
    t0 = time.perf_counter()
    ratios = {}
    for name, n, h in [("benney", 1, 0.02), ("genus0", 1, 0.005)]:
        ratio, coarse, fine = convergence_ratio(_system(name, n), M=2,
                                                steps=10, h=h)
        assert not coarse.blow_up and not fine.blow_up
        ratios[name] = ratio
    elapsed = time.perf_counter() - t0
    ok = all(3.5 <= r <= 4.5 for r in ratios.values()) and elapsed < 10.0
    detail = (", ".join(f"{k} {v:.3f}" for k, v in ratios.items())
              + f"; {elapsed:.1f}s")
    _verdict(5, ok, detail)


def test_criterion_6_reconstruction():
    worst = 0.0
    for name, n in [("genus0", 2), ("benney", 2)]:
        fam = _family(name, n)
        pairs = [(0, 1), (1, 2), (0, 2)]  # (i, j)-independence
        for i, j in pairs:
            _, rep = reconstruct_f(fam, i, j, samples=100, seed=11, tol=1e-8)
            assert rep.passed, f"{name} f({i},{j}): {rep.max_residual:.3e}"
            worst = max(worst, rep.max_residual)
        for i in (0, 1):
            _, rep = reconstruct_lambda(fam, i, samples=100, seed=13,
                                        tol=1e-8)
            assert rep.passed, f"{name} lambda({i}): {rep.max_residual:.3e}"
            worst = max(worst, rep.max_residual)
    _verdict(6, worst < 1e-8, f"worst relative residual {worst:.2e}")


def test_criterion_7_hydrodynamic_extraction():
    fam = _family("genus0", 2)
    m = fam.m
    assert m == 2
    v = tuple(fam.structure.sample(1, seed=1, n_p=1)[0, 1:].tolist())
    D = dimension_D(fam, 0, 1, 2, v, z_count=40, seed=7)
    D2 = dimension_D(fam, 0, 1, 2, v, z_count=80, seed=7)  # sample doubling
    hs = hydro_coefficients(fam, 0, 1, 2, v, z_count=40, seed=7,
                            residual_tol=1e-8)
    ok = D == D2 and m <= D <= 2 * m - 1 and hs.expansion_residual < 1e-8
    _verdict(7, ok, f"D = {D} (doubled: {D2}) in [{m}, {2 * m - 1}], "
                    f"held-out residual {hs.expansion_residual:.2e}")


def _richardson(moduli, branch, h=1e-3):
    """dB/de at one branch point from central differences D of B at +-h and
    +-h/2, combined as (4 D(h/2) - D(h)) / 3, which cancels the h^2 term."""
    def D(step):
        up, down = list(moduli), list(moduli)
        up[branch] += step
        down[branch] -= step
        return (periods(up).B - periods(down).B) / (2 * step)

    return (4 * D(h / 2) - D(h)) / 3


def test_criterion_8_genus2_geometry():
    t0 = time.perf_counter()
    rng = SplitMix64(2024)
    worst_sym = worst_rauch = worst_oracle = 0.0
    posdef = True
    for _ in range(20):
        a = 1.2 + rng.uniform(0.0, 0.8)
        b = a + 0.5 + rng.uniform(0.0, 0.8)
        c = b + 0.5 + rng.uniform(0.0, 0.8)
        pd = periods((a, b, c))
        scale = float(np.max(np.abs(pd.B)))
        worst_sym = max(worst_sym, pd.symmetry_error / scale)
        posdef = posdef and pd.nonpositive == 0
        for branch in range(3):
            rd = rauch_check((a, b, c), branch)
            worst_rauch = max(worst_rauch, rd.max_rel_error)
            oracle = _richardson((a, b, c), branch)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(rd.dB - oracle))))
    elapsed = time.perf_counter() - t0
    ok = (worst_sym < 1e-8 and posdef and worst_rauch < 1e-4
          and worst_oracle < 1e-4 and elapsed < 120.0)
    _verdict(8, ok, f"symmetry {worst_sym:.2e}, pos-def {posdef}, "
                    f"rauch {worst_rauch:.2e} (Richardson oracle {worst_oracle:.2e}); "
                    f"{elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {"command": "verify", "structure": "genus0", "n": 2, "seed": 11,
           "samples": 25, "tol": 1e-8}
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.json"
        code = cli_main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _verdict(9, ok, f"report bytes identical: {ok} ({len(outs[0])} bytes)")
