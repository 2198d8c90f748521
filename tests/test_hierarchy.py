"""Hydrodynamic analysis of a potential family and reconstruction."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from gtlab import catalog, hierarchy
from gtlab.core import Potential
from gtlab.errors import ConfigError, DomainViolation, NonConvergence, SamplingExhausted
from gtlab.hierarchy import (
    HydroSystem,
    PotentialFamily,
    compatibility_tensor,
    criterion_integrable,
    dimension_D,
    hydro_coefficients,
    reconstruct_f,
    reconstruct_lambda,
)
from gtlab.kernel import Domain, JetEvaluator, SplitMix64, multi_index


def _family(name="genus0", n=2):
    ent = catalog.CATALOG[name]
    enh = ent.build_enhanced(n)
    return PotentialFamily(enh.base, ent.potentials(n), enhanced=enh,
                           label=name)


def _fiber(fam, seed=1):
    _, v = fam.structure.sample(1, seed, 1)[0]
    return v


def test_family_needs_three_potentials():
    enh = catalog.build_enhanced("benney", 2)
    with pytest.raises(ConfigError):
        PotentialFamily(enh.base, catalog.build_potentials("benney", 2)[:2])


def _scalar_sample_z(fam, count, seed, v):
    """sample_z's rule one scalar draw at a time: z is kept when every
    potential's clearance in z is strictly above the separation."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(500 * count):
        if len(out) == count:
            break
        z = rng.complex_in_box(fam.z_box)
        if all(p.h.domain.clearance((z, *v), 0) > fam.structure.min_separation
               for p in fam.potentials):
            out.append(z)
    return out


@pytest.mark.parametrize("name, n", [("benney", 2), ("genus0", 2), ("genus1", 3)])
def test_sample_z_admits_what_the_scalar_draws_admit(name, n):
    fam = _family(name, n)
    v = _fiber(fam)
    for seed in (1, 2, 3):
        for count in (1, 10, 60):
            assert fam.sample_z(count, seed, v) == _scalar_sample_z(fam, count, seed, v)


def test_sample_z_keeps_its_strict_floor():
    # a first draw exactly at the floor is not above it; one ulp lower, it is
    fam = _family()
    v = _fiber(fam)
    z0 = SplitMix64(4).complex_in_box(fam.z_box)
    floor = min(p.h.domain.clearance((z0, *v), 0) for p in fam.potentials)
    fam.structure.min_separation = floor
    assert fam.sample_z(1, 4, v) == _scalar_sample_z(fam, 1, 4, v) != [z0]
    fam.structure.min_separation = math.nextafter(floor, 0.0)
    assert fam.sample_z(1, 4, v) == [z0]


def test_sample_z_exhausts_with_its_own_message():
    fam = _family()
    v = _fiber(fam)
    fam.structure.min_separation = 100.0
    with pytest.raises(SamplingExhausted) as exc:
        fam.sample_z(3, 1, v)
    assert str(exc.value) == "could not place 3 z points clear of the poles"
    assert fam.sample_z(0, 1, v) == []


def test_family_is_functionally_independent():
    fam = _family()
    v = _fiber(fam)
    zs = fam.sample_z(10, seed=3, v=v)
    assert fam.independence_rank(v, zs) == fam.N


def test_compatibility_tensor_is_antisymmetric():
    fam = _family()
    v = _fiber(fam)
    zs = fam.sample_z(6, seed=5, v=v)
    t_ijk = compatibility_tensor(fam, 0, 1, 2, v, zs)
    t_jik = compatibility_tensor(fam, 1, 0, 2, v, zs)
    m = fam.m
    # swapping i and j negates the (i, j) block
    assert np.allclose(t_ijk[:m], -t_jik[:m], atol=1e-12)


def test_compatibility_tensor_rejects_repeated_indices():
    fam = _family()
    v = _fiber(fam)
    zs = fam.sample_z(4, seed=5, v=v)
    with pytest.raises(ConfigError):
        compatibility_tensor(fam, 0, 0, 1, v, zs)


def test_dimension_is_stable_and_in_range():
    fam = _family()
    v = _fiber(fam)
    D = dimension_D(fam, 0, 1, 2, v, z_count=30, seed=7)
    assert fam.m <= D <= 2 * fam.m - 1
    # permuting the triple cannot change the span
    assert dimension_D(fam, 2, 0, 1, v, z_count=30, seed=11) == D


def test_hydro_expansion_validates_on_held_out_points():
    fam = _family()
    v = _fiber(fam)
    hs = hydro_coefficients(fam, 0, 1, 2, v, z_count=30, seed=7)
    assert hs.expansion_residual < 1e-8
    assert hs.a.shape == hs.b.shape == hs.c.shape == (hs.D, fam.m)
    assert hs.rank_abc == hs.D  # the extracted system is not degenerate
    assert len(hs.basis_rows) == hs.D


def test_reconstruct_f_matches_structure():
    fam = _family()
    rec, rep = reconstruct_f(fam, 0, 1, samples=20, seed=11, tol=1e-8)
    assert rep.passed, rep.max_residual
    s = fam.structure
    for ps, v in s.sample(5, seed=21, n_p=2):
        assert rec(ps[0], ps[1], v) == pytest.approx(
            s.f.value((*ps, *v)), rel=1e-7)


def test_reconstruct_f_is_pair_independent():
    fam = _family()
    _, rep01 = reconstruct_f(fam, 0, 1, samples=20, seed=11)
    _, rep12 = reconstruct_f(fam, 1, 2, samples=20, seed=11)
    assert rep01.passed and rep12.passed


def test_reconstruct_lambda_matches_enhancement():
    fam = _family()
    _, rep = reconstruct_lambda(fam, 0, samples=20, seed=13, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_reconstructed_lambda_reproduces_the_enhanced_lambda():
    fam = _family()
    rec, rep = reconstruct_lambda(fam, 0, samples=20, seed=13, tol=1e-8)
    assert rep.passed, rep.max_residual
    for ps, v in fam.structure.sample(5, seed=21, n_p=2):
        want = fam.enhanced.lam.value((*ps, *v))
        assert abs(rec(ps[0], ps[1], v) - want) / max(abs(want), 1.0) < rep.tol


def _captured_residuals(monkeypatch) -> list:
    """The residual list of every report made from now on, in call order."""
    runs = []
    make = hierarchy._make_report

    def capture(identity, residuals, *args, **kwargs):
        runs.append(list(residuals))
        return make(identity, residuals, *args, **kwargs)

    monkeypatch.setattr(hierarchy, "_make_report", capture)
    return runs


def test_reconstruct_f_redraws_below_the_floor_in_draw_order(monkeypatch):
    fam = _family()
    s = fam.structure
    runs = _captured_residuals(monkeypatch)
    _, rep = reconstruct_f(fam, 0, 1, samples=12, seed=11)
    assert rep.params["resampled"] == 0
    every = runs[-1]  # the residuals of draws 0..11
    dz = multi_index(1 + s.m, 0)
    dens = []
    for k in range(12):
        (p1, p2), v = s.sample(1, 11 + k, 2)[0]
        hpi1, hpj1 = (fam.potentials[t].h.partial((p1, *v), dz) for t in (0, 1))
        dens.append(abs(hpj1 * fam.h_jet(0, p2, v)[0] - fam.h_jet(1, p2, v)[0] * hpi1))
    floor = sorted(dens)[6]  # half the draws fall below it
    monkeypatch.setattr(hierarchy, "DEN_FLOOR", floor)
    kept = [k for k in range(12) if dens[k] >= floor][:4]
    _, rep = reconstruct_f(fam, 0, 1, samples=4, seed=11)
    assert rep.params["resampled"] == kept[-1] + 1 - 4 > 0
    assert runs[-1] == [every[k] for k in kept]


def test_reconstruct_f_gives_up_after_fifty_draws_per_sample(monkeypatch):
    fam = _family()
    draws = []
    sample = fam.structure.sample

    def counted(*args):
        draws.append(args)
        return sample(*args)

    monkeypatch.setattr(fam.structure, "sample", counted)
    monkeypatch.setattr(hierarchy, "DEN_FLOOR", math.inf)  # no draw clears it
    with pytest.raises(SamplingExhausted):
        reconstruct_f(fam, 0, 1, samples=2, seed=11)
    assert draws == [(1, 11 + k, 2) for k in range(50 * 2)]


# the catalog families with potentials (genus2 has none), at several n
CRITERION_FAMILIES = [("benney", 2), ("benney", 3), ("benney", 4), ("genus0", 2),
                      ("genus0", 3), ("genus1", 3), ("genus1", 4)]


@pytest.mark.parametrize("seed", [19, 101])
@pytest.mark.parametrize("name,n", CRITERION_FAMILIES)
def test_integrability_criterion_holds_for_catalog_family(name, n, seed):
    fam = _family(name, n)
    rep = criterion_integrable(fam, samples=20, seed=seed, tol=1e-8)
    assert rep.passed, rep.max_residual


def _count_values(monkeypatch, evaluators) -> list:
    """Replace each evaluator's ``value`` by one that logs its call."""
    calls = []
    for e in evaluators:
        def counted(args, e=e, value=e.value):
            calls.append(e)
            return value(args)

        monkeypatch.setattr(e, "value", counted)
    return calls


def test_f_and_g_are_evaluated_once_per_sample(monkeypatch):
    # every potential's formula reads the same f(p1, p2) and g_j(p1)
    fam = _family()
    s = fam.structure
    calls = _count_values(monkeypatch, (*s.g, s.f))
    criterion_integrable(fam, samples=5, seed=19)
    assert len(calls) == 5 * (s.m + 1), len(calls)
    calls.clear()
    _, rep = reconstruct_lambda(fam, 0, samples=5, seed=13)
    draws = 5 + rep.params["resampled"]
    assert len(calls) == draws * (s.m + 1), (len(calls), draws)


def test_integrability_criterion_rejects_foreign_potential():
    # replace one member by p^2, which is not a potential of this structure
    fam = _family()
    m = fam.m
    fake = Potential(
        JetEvaluator(1 + m, lambda *a: a[0] ** 2, domain=Domain(),
                     label="fake"),
        label="p^2",
    )
    broken = PotentialFamily(fam.structure,
                             [fam.potentials[0], fam.potentials[1], fake],
                             enhanced=fam.enhanced)
    rep = criterion_integrable(broken, samples=20, seed=19, tol=1e-8)
    assert not rep.passed


# ---------------------------------------------------------------------------
# the fail-closed guards of the hydro extraction and the reconstruction
# ---------------------------------------------------------------------------


def test_dimension_d_refuses_a_rank_that_moves_under_sample_doubling(monkeypatch):
    # a tensor of rank nz / 20: 2 on the 40 z points, 4 on the doubled 80
    fam = _family("benney", 2)
    monkeypatch.setattr(hierarchy, "compatibility_tensor",
                        lambda fam, i, j, k, v, zs: np.eye(len(zs) // 20, len(zs)))
    with pytest.raises(NonConvergence, match=r"^rank unstable under sample doubling: 2 vs 4$"):
        dimension_D(fam, 0, 1, 2, _fiber(fam))


def _flat_family():
    """p, log p and log(p - 1) on benney(2): every fiber partial is 0, so
    every compatibility function vanishes."""
    fam = _family("benney", 2)
    arity = 1 + fam.m
    flat = [catalog.place(catalog.IDENTITY, arity, (0,)),
            *(catalog.place(catalog._frozen_log(point), arity, (0,)) for point in (0.0, 1.0))]
    return PotentialFamily(fam.structure, [Potential(h) for h in flat], label="flat")


def test_hydro_extraction_refuses_potentials_that_ignore_the_fiber():
    # no compatibility function survives, so there is no basis to pick
    fam = _flat_family()
    assert not compatibility_tensor(fam, 0, 1, 2, _fiber(fam), [0.3 + 0.2j]).any()
    with pytest.raises(NonConvergence, match=r"^compatibility tensor vanishes identically$"):
        hydro_coefficients(fam, 0, 1, 2, _fiber(fam))


def test_a_vanishing_tensor_has_dimension_zero():
    # the zero matrix has no leading singular value to scale the rank
    # threshold by: its rank is 0 on both sample sets
    fam = _flat_family()
    assert dimension_D(fam, 0, 1, 2, _fiber(fam)) == 0


def test_zero_coefficient_matrices_have_rank_zero():
    a, b, c = np.zeros((3, 1, 2), dtype=complex)
    hs = HydroSystem(D=1, a=a, b=b, c=c, basis_rows=(0,),
                     basis_samples=np.zeros((1, 1), dtype=complex), z_points=(0.5j,),
                     expansion_residual=0.0, v=(0.1j, 0.2j))
    assert hs.rank_abc == 0
    hs.a[0, 1] = 1e-3
    assert hs.rank_abc == 1


def test_reconstruct_f_needs_two_distinct_potentials():
    with pytest.raises(ConfigError, match=r"^need two distinct potentials$"):
        reconstruct_f(_family("benney", 2), 1, 1)


def test_lambda_reconstruction_refuses_a_vanishing_h_prime():
    # through (p - c)^2, whose derivative vanishes at p1 = c; the sampled
    # draws miss c, the returned reconstruction is asked there
    fam = _family("benney", 2)
    c = 0.3 + 0.2j
    square = JetEvaluator(1 + fam.m, lambda *args: (args[0] - c) ** 2, label="(p-c)^2")
    fam = PotentialFamily(fam.structure, [Potential(square), *fam.potentials],
                          enhanced=fam.enhanced)
    rec, _ = reconstruct_lambda(fam, 0, samples=3, seed=13)
    (_, p2), v = fam.structure.sample(1, 13, 2)[0]
    with pytest.raises(DomainViolation, match=r"^h'\(p1\) vanishes$"):
        rec(c, p2, v)
