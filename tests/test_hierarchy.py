"""Hydrodynamic analysis of a potential family and reconstruction."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from gtlab import catalog, hierarchy, kernel
from gtlab.core import EnhancedGT, Potential
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
from gtlab.kernel import Domain, JetEvaluator, SplitMix64, multi_index, on_columns


def _family(name="genus0", n=2):
    ent = catalog.CATALOG[name]
    enh = ent.build_enhanced(n)
    return PotentialFamily(enh.base, ent.potentials(n), enhanced=enh,
                           label=name)


def _fiber(fam, seed=1):
    return tuple(fam.structure.sample(1, seed, 1)[0, 1:].tolist())


def test_family_needs_three_potentials():
    enh = catalog.build_enhanced("benney", 2)
    with pytest.raises(ConfigError):
        PotentialFamily(enh.base, catalog.build_potentials("benney", 2)[:2])


@pytest.mark.parametrize("enhanced", [("genus0", 2), ("benney", 2)])
def test_a_family_refuses_the_enhancement_of_another_structure(enhanced):
    # an enhancement of another structure, or of another build of the same
    # one, would be the oracle of a lambda that f and g do not define
    s = catalog.build_structure("benney", 2)
    with pytest.raises(ConfigError, match=r"^the enhancement of a potential family "
                                          r"must be of its structure$"):
        PotentialFamily(s, catalog.build_potentials("benney", 2),
                        enhanced=catalog.build_enhanced(*enhanced))


@pytest.mark.parametrize("triple, bad", [((0, 1, 3), 3), ((-1, 0, 1), -1)])
def test_compatibility_tensor_rejects_a_potential_index_out_of_range(triple, bad):
    fam = _family("benney", 2)
    with pytest.raises(ConfigError, match=rf"^potential index {bad} out of range$"):
        compatibility_tensor(fam, *triple, _fiber(fam), [0.5j])


def test_dimension_needs_3m_plus_5_z_samples():
    fam = _family("benney", 2)
    with pytest.raises(ConfigError, match=r"^need at least 3m \+ 5 z samples for a stable rank$"):
        dimension_D(fam, 0, 1, 2, _fiber(fam), z_count=3 * fam.m + 4)
    assert dimension_D(fam, 0, 1, 2, _fiber(fam), z_count=3 * fam.m + 5) == 2


def _scalar_sample_z(fam, count, seed, v):
    """sample_z's rule one scalar draw at a time: z is kept when every
    potential's clearance in z is strictly above the separation."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(500 * count):
        if len(out) == count:
            break
        z = rng.complex_in_box(fam.structure.p_box)
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
    # a first draw whose least distance, as the sampler's block reads it, is
    # exactly the floor is not above it; one ulp lower, it is
    fam = _family()
    v = _fiber(fam)
    loci = tuple(ex for p in fam.potentials for ex in p.h.domain.exclusions if 0 in ex.slots)
    block = np.hstack([SplitMix64(4).complex_in_boxes([fam.structure.p_box], 18),
                       np.tile(np.array(v, dtype=complex), (18, 1))])
    floor = float(min(np.concatenate([rep.distance(block.T[slots])
                                      for rep, slots in kernel._locus_groups(loci)])[:, 0]))
    z0 = complex(block[0, 0])
    assert z0 == SplitMix64(4).complex_in_box(fam.structure.p_box)
    fam.structure.min_separation = floor
    assert fam.sample_z(1, 4, v) != [z0]
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


def test_pivots_are_lapacks_on_separated_column_norms():
    from scipy.linalg import qr

    stream = SplitMix64(5)
    for rows, cols, seed in ((40, 6, 1), (40, 12, 2), (30, 15, 3), (12, 12, 4)):
        a = stream.complex_in_boxes([(-1.0, 1.0, -1.0, 1.0)], rows * cols).reshape(rows, cols)
        # column norms a factor of 10 or more apart, in a shuffled order
        a = a * 10.0 ** np.random.default_rng(seed).permutation(cols)
        for m in (a, a.real):
            want = [int(p) for p in qr(m, pivoting=True)[2]]
            assert hierarchy._pivots(m, cols) == want


def test_pivots_break_a_tie_toward_the_lowest_index():
    # columns 1 and 2 tie at norm 3 (column 2 within 1e-13 of it), then norm 2, then 1
    a = np.eye(4)[:, [2, 0, 3, 1]] * [1.0, 3.0, 3.0 * (1 + 1e-13), 2.0]
    assert hierarchy._pivots(a, 4) == [1, 2, 3, 0]
    assert hierarchy._pivots(a[:, [0, 2, 1, 3]], 4) == [1, 2, 3, 0]


def test_pivots_skip_a_column_in_the_span_of_earlier_pivots():
    # column 2 (norm about 9) lies in the span of columns 0 and 1; column 3 is
    # independent but of norm 1e-8, and is still chosen before column 2
    u, v, w = SplitMix64(9).complex_in_boxes([(-1.0, 1.0, -1.0, 1.0)], 60).reshape(3, 20)
    c0, c1 = 10 * u / np.linalg.norm(u), 8 * v / np.linalg.norm(v)
    a = np.stack([c0, c1, 0.7 * c0 + 0.7 * c1, 1e-8 * w / np.linalg.norm(w)], axis=1)
    assert hierarchy._pivots(a, 3) == [0, 1, 3]


def test_hydro_draws_its_held_out_points_once_after_its_fit_points(monkeypatch):
    # one sample_z call at the seed gives both: the fit's z_count points are
    # its first draws and the held-out points the next z_count, draws
    # z_count..2 z_count - 1 of the stream that a 2 z_count draw gives
    fam, tensors, draws = _family(), [], []
    v = _fiber(fam)
    real_sample, real_tensor = PotentialFamily.sample_z, hierarchy.compatibility_tensor

    def sample_z(self, count, seed, v):
        draws.append((count, seed))
        return real_sample(self, count, seed, v)

    def tensor(fam, i, j, k, v, zs):
        tensors.append(list(zs))
        return real_tensor(fam, i, j, k, v, zs)

    monkeypatch.setattr(PotentialFamily, "sample_z", sample_z)
    monkeypatch.setattr(hierarchy, "compatibility_tensor", tensor)
    hs = hydro_coefficients(fam, 0, 1, 2, v, z_count=30, seed=7)
    stream = real_sample(fam, 60, 7, v)
    assert draws == [(60, 7), (60, 8)]
    assert list(hs.z_points) == tensors[0] == stream[:30]
    assert tensors[2] == stream[30:] and len(tensors) == 3


def test_reconstruct_f_matches_structure():
    fam = _family()
    rep = reconstruct_f(fam, 0, 1, samples=20, seed=11, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_reconstruct_f_is_pair_independent():
    fam = _family()
    rep01 = reconstruct_f(fam, 0, 1, samples=20, seed=11)
    rep12 = reconstruct_f(fam, 1, 2, samples=20, seed=11)
    assert rep01.passed and rep12.passed


def test_reconstruct_lambda_matches_enhancement():
    fam = _family()
    rep = reconstruct_lambda(fam, 0, samples=20, seed=13, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_reconstructed_lambda_reproduces_the_enhanced_lambda():
    # the enhancement is read: with f in place of lambda the report fails,
    # though the rebuilt lambdas still agree across the potentials
    fam = _family()
    rep = reconstruct_lambda(fam, 0, samples=20, seed=13, tol=1e-8)
    assert rep.passed, rep.max_residual
    s = fam.structure
    wrong = PotentialFamily(s, fam.potentials, enhanced=EnhancedGT(s, s.f))
    assert not reconstruct_lambda(wrong, 0, samples=20, seed=13, tol=1e-8).passed
    assert reconstruct_lambda(PotentialFamily(s, fam.potentials), 0, samples=20, seed=13).passed


def _captured_residuals(monkeypatch) -> list:
    """The residual list of every report made from now on, in call order."""
    runs = []
    make = hierarchy._make_report

    def capture(identity, residuals, *args, **kwargs):
        runs.append(list(residuals))
        return make(identity, residuals, *args, **kwargs)

    monkeypatch.setattr(hierarchy, "_make_report", capture)
    return runs


def _recorded_samples(monkeypatch, s) -> list:
    """Every ``sample`` call on s from now on, in call order: its arguments
    (count, seed, n_p), a continued stream's seed read as "stream", and the
    rows it returned."""
    calls = []
    sample = s.sample

    def recorded(count, seed, n_p):
        out = sample(count, seed, n_p)
        calls.append(((count, seed if isinstance(seed, int) else "stream", n_p), out))
        return out

    monkeypatch.setattr(s, "sample", recorded)
    return calls


def test_reconstruct_f_redraws_below_the_floor_in_draw_order(monkeypatch):
    # the kept residuals are those of the stream's first draws above the
    # floor, in stream order, and resampled counts the draws before them
    fam = _family()
    s = fam.structure
    runs = _captured_residuals(monkeypatch)
    rep = reconstruct_f(fam, 0, 1, samples=12, seed=11)
    assert rep.params["resampled"] == 0
    every = runs[-1]  # the residuals of stream draws 0..11
    dz = multi_index(1 + s.m, 0)
    dens = []
    for p1, p2, *v in s.sample(12, 11, 2).tolist():
        hpi1, hpj1 = (fam.potentials[t].h.partial((p1, *v), dz) for t in (0, 1))
        hpi2, hpj2 = (fam.potentials[t].h.partial((p2, *v), dz) for t in (0, 1))
        dens.append(abs(hpj1 * hpi2 - hpj2 * hpi1))
    floor = sum(sorted(dens)[5:7]) / 2  # half the draws fall below it, none at it
    monkeypatch.setattr(hierarchy, "DEN_FLOOR", floor)
    kept = [k for k in range(12) if dens[k] > floor][:4]
    rep = reconstruct_f(fam, 0, 1, samples=4, seed=11)
    assert rep.params["resampled"] == kept[-1] + 1 - 4 > 0
    assert runs[-1] == [every[k] for k in kept]


def test_reconstruct_f_gives_up_after_fifty_draws_per_sample(monkeypatch):
    # each round redraws the rejected two, one sample call per round
    # continuing the stream, until it has drawn 2 x 50: the stream's first 100
    fam = _family()
    stream = fam.structure.sample(100, 11, 2)
    draws = _recorded_samples(monkeypatch, fam.structure)
    monkeypatch.setattr(hierarchy, "DEN_FLOOR", math.inf)  # no draw clears it
    with pytest.raises(SamplingExhausted, match=r"^reconstruction denominator kept vanishing$"):
        reconstruct_f(fam, 0, 1, samples=2, seed=11)
    assert [args for args, _ in draws] == [(2, "stream", 2)] * 50
    assert np.array_equal(np.concatenate([rows for _, rows in draws]), stream)


def _prefix_redrawn(s, samples, seed, scored, exhausted):
    """The draw protocol before a sample could continue its stream: each
    round samples the stream's whole prefix again from the seed, ``samples``
    plus the draws rejected so far, and scores the draws past the last
    round's."""
    residuals, drawn, resampled = [], 0, 0
    while len(residuals) < samples:
        total = min(samples + resampled, 50 * samples)
        if total == drawn:
            raise SamplingExhausted(exhausted)
        pts = s.sample(total, seed, 2)[drawn:]
        drawn = total
        try:
            with np.errstate(all="ignore"):
                res, kept = scored(pts)
        except DomainViolation:
            resampled += len(pts)
            continue
        residuals += res[kept].tolist()
        resampled += len(pts) - int(kept.sum())
    return residuals, resampled


def test_a_rejecting_reconstruction_admits_each_draw_once(monkeypatch):
    # DEN_FLOOR = inf rejects every draw: 50 rounds of 30, one sample call
    # each, continuing the stream, admit 1,500 points, where re-sampling the
    # prefix admitted 30 + 60 + ... + 1,500 = 38,250 for the same draws
    monkeypatch.setattr(hierarchy, "DEN_FLOOR", math.inf)
    draws = []
    for protocol, admitted in ((hierarchy._redrawn, 1500), (_prefix_redrawn, 38250)):
        fam = _family("genus0", 2)
        monkeypatch.setattr(hierarchy, "_redrawn", protocol)
        calls = _recorded_samples(monkeypatch, fam.structure)
        with pytest.raises(SamplingExhausted, match=r"^reconstruction denominator kept vanishing$"):
            reconstruct_f(fam, 0, 1, samples=30, seed=11)
        assert len(calls) == 50 and sum(len(rows) for _, rows in calls) == admitted
        draws.append(np.concatenate([rows for _, rows in calls])[-1500:])
    assert np.array_equal(*draws)  # the stream's 1,500 draws, scored in the same order


def test_a_resumed_stream_keeps_the_prefix_protocols_residuals(monkeypatch):
    # a floor that rejects about half of the stream's draws: several rounds,
    # and the kept residuals and the resampled count are those of re-sampling
    # the whole prefix every round
    fam = _family("genus0", 2)
    s = fam.structure
    dz = multi_index(1 + s.m, 0)
    dens = []
    for p1, p2, *v in s.sample(60, 11, 2).tolist():
        hpi1, hpj1 = (fam.potentials[t].h.partial((p1, *v), dz) for t in (0, 1))
        hpi2, hpj2 = (fam.potentials[t].h.partial((p2, *v), dz) for t in (0, 1))
        dens.append(abs(hpj1 * hpi2 - hpj2 * hpi1))
    monkeypatch.setattr(hierarchy, "DEN_FLOOR", sum(sorted(dens)[29:31]) / 2)
    runs = _captured_residuals(monkeypatch)
    reports = []
    for protocol in (hierarchy._redrawn, _prefix_redrawn):
        monkeypatch.setattr(hierarchy, "_redrawn", protocol)
        reports.append(reconstruct_f(fam, 0, 1, samples=30, seed=11))
    assert runs[0] == runs[1] and len(runs[0]) == 30
    assert reports[0].params["resampled"] == reports[1].params["resampled"] > 0


def _nan_at(monkeypatch, e, p):
    """Make e answer NaN wherever its first argument is p, at a point or on columns."""
    partials = e.partials

    def poisoned(args, multis):
        out = partials(args, multis)
        if on_columns(args):
            out = np.where(args[0] == p, np.nan, out)
        elif args[0] == p:
            out = [complex(math.nan)] * len(multis)
        return out

    monkeypatch.setattr(e, "partials", poisoned)


def _asks(monkeypatch, evaluators) -> list:
    """Log the calls of ``value`` and ``partials`` on each evaluator that come
    from outside them, as (evaluator, the number of columns' points or None
    at a point)."""
    log, depth = [], [0]
    for e in evaluators:
        for name in ("value", "partials"):
            def asked(args, *rest, e=e, method=getattr(e, name)):
                if not depth[0]:
                    log.append((e, len(args[0]) if on_columns(args) else None))
                depth[0] += 1
                try:
                    return method(args, *rest)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(e, name, asked)
    return log


@pytest.mark.parametrize("what", ["f", "lambda"])
def test_each_evaluator_is_asked_once_per_round_on_columns(monkeypatch, what):
    # a NaN at the stream's draw 1 rejects it, so a second round redraws it
    fam = _family()
    s = fam.structure
    seed = 11 if what == "f" else 13
    hs = [pot.h for pot in fam.potentials]
    _nan_at(monkeypatch, hs[0], s.sample(3, seed, 2)[1, 1])
    rounds = _recorded_samples(monkeypatch, s)
    log = _asks(monkeypatch, (*hs, *s.g, s.f, fam.enhanced.lam))
    if what == "f":
        rep = reconstruct_f(fam, 0, 1, samples=6, seed=seed)
        per_round = {hs[0]: 2, hs[1]: 2, s.f: 1, fam.enhanced.lam: 0}  # h at p1, at p2
    else:
        rep = reconstruct_lambda(fam, 0, samples=6, seed=seed)
        per_round = {**{h: 2 for h in hs}, s.f: 1, fam.enhanced.lam: 1}
    per_round.update({g: 1 for g in s.g})
    assert rep.passed and rep.params["resampled"] == 1 and len(rounds) == 2
    for e, count in per_round.items():
        assert [n for asked, n in log if asked is e] == [6] * count + [1] * count, e.label


def test_reconstruction_makes_no_single_sample_call(monkeypatch):
    fam = _family()
    s = fam.structure
    for seed in (11, 13):  # one redraw each, read from the stream's next draw
        _nan_at(monkeypatch, fam.potentials[0].h, s.sample(3, seed, 2)[1, 1])
    streams = [s.sample(6, seed, 2) for seed in (11, 13)]
    calls = _recorded_samples(monkeypatch, s)
    reconstruct_f(fam, 0, 1, samples=5, seed=11)
    reconstruct_lambda(fam, 0, samples=5, seed=13)
    criterion_integrable(fam, samples=5, seed=19)
    assert [args for args, _ in calls] == [(5, "stream", 2), (1, "stream", 2),
                                           (5, "stream", 2), (1, "stream", 2), (5, 19, 2)]
    for k, stream in enumerate(streams):
        assert np.array_equal(np.concatenate([rows for _, rows in calls[2 * k:2 * k + 2]]),
                              stream)


@pytest.mark.parametrize("what, seed", [("f", 11), ("lambda", 13), ("criterion", 19)])
def test_a_nan_at_one_draw_is_redrawn_or_fails_the_report(monkeypatch, what, seed):
    fam = _family()
    _nan_at(monkeypatch, fam.potentials[0].h, fam.structure.sample(5, seed, 2)[2, 1])
    if what == "criterion":  # no redraws: the NaN residual fails the report
        rep = criterion_integrable(fam, samples=5, seed=seed)
        assert math.isnan(rep.max_residual) and not rep.passed
    else:
        rep = (reconstruct_f(fam, 0, 1, samples=5, seed=seed) if what == "f"
                  else reconstruct_lambda(fam, 0, samples=5, seed=seed))
        assert rep.params["resampled"] == 1 and rep.samples == 5
        assert rep.passed and math.isfinite(rep.max_residual)


def test_a_nan_in_the_compared_f_fails_the_report(monkeypatch):
    # the rebuilt value is finite, so the draw is kept and its NaN residual counts
    fam = _family()
    s = fam.structure
    _nan_at(monkeypatch, s.f, s.sample(5, 11, 2)[2, 0])
    rep = reconstruct_f(fam, 0, 1, samples=5, seed=11)
    assert rep.params["resampled"] == 0
    assert math.isnan(rep.max_residual) and not rep.passed


def test_a_domain_violation_in_a_round_rejects_its_every_draw(monkeypatch):
    fam = _family()
    runs = _captured_residuals(monkeypatch)
    reconstruct_f(fam, 0, 1, samples=8, seed=11)
    every = runs[-1]
    h = fam.potentials[1].h
    partials, raised = h.partials, []

    def first_call_raises(args, multis):
        if not raised:
            raised.append(args)
            raise DomainViolation("non-finite samples on the circle")
        return partials(args, multis)

    monkeypatch.setattr(h, "partials", first_call_raises)
    rep = reconstruct_f(fam, 0, 1, samples=4, seed=11)
    assert rep.params["resampled"] == 4 and rep.passed
    assert runs[-1] == every[4:]


# the catalog families with potentials (genus2 has none), at several n
CRITERION_FAMILIES = [("benney", 2), ("benney", 3), ("benney", 4), ("genus0", 2),
                      ("genus0", 3), ("genus1", 3), ("genus1", 4)]


@pytest.mark.parametrize("seed", [19, 101])
@pytest.mark.parametrize("name,n", CRITERION_FAMILIES)
def test_integrability_criterion_holds_for_catalog_family(name, n, seed):
    fam = _family(name, n)
    rep = criterion_integrable(fam, samples=20, seed=seed, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_f_and_g_are_evaluated_once_per_sample(monkeypatch):
    # every potential's formula reads the same f(p1, p2) and g_k(p1): a
    # round makes one jets call, which asks f and each g_k once for all of
    # the round's draws, and no evaluator is asked outside it
    fam = _family()
    s = fam.structure
    for seed in (11, 13):  # one redraw each
        _nan_at(monkeypatch, fam.potentials[1].h, s.sample(5, seed, 2)[3, 1])
    log = _asks(monkeypatch, (*(pot.h for pot in fam.potentials), *s.g, s.f, fam.enhanced.lam))
    rounds = _recorded_samples(monkeypatch, s)
    calls, real = [], hierarchy.jets

    def recorded(requests):
        requests, before = list(requests), len(log)
        tables = real(requests)
        calls.append(([e for e, _, _ in requests], len(log) - before))
        return tables

    monkeypatch.setattr(hierarchy, "jets", recorded)
    reps = [reconstruct_f(fam, 0, 1, samples=5, seed=11),
            reconstruct_lambda(fam, 0, samples=5, seed=13),
            criterion_integrable(fam, samples=5, seed=19)]
    assert [rep.params.get("resampled") for rep in reps] == [1, 1, None]
    assert len(calls) == len(rounds) == 5
    for asked, _ in calls:
        assert [asked.count(e) for e in (s.f, *s.g)] == [1] * (1 + s.m)
    assert sum(inside for _, inside in calls) == len(log)


def _square_in_p(m: int, c: complex, label: str) -> JetEvaluator:
    """(p - c)^2 over (p, v), its partials in closed form and its value from fn."""
    def partial_fn(args, multis):
        d_p = {1: 2.0 * (args[0] - c), 2: 2.0}
        return [NotImplemented if not any(multi) else d_p.get(multi[0], 0.0)
                if multi[0] == sum(multi) else 0.0 for multi in multis]

    return JetEvaluator(1 + m, lambda *a: (a[0] - c) ** 2, domain=Domain(), partial_fn=partial_fn,
                        label=label)


def test_integrability_criterion_rejects_foreign_potential():
    # replace one member by p^2, which is not a potential of this structure
    fam = _family()
    m = fam.m
    fake = Potential(_square_in_p(m, 0.0, "fake"), label="p^2")
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


def test_hydro_extraction_refuses_an_expansion_residual_above_its_tolerance():
    # the held-out points' residual, about 1e-15 here, is above a tolerance of 1e-300
    fam = _family("benney", 2)
    with pytest.raises(NonConvergence, match=r"^basis expansion residual \S+ above 1\.0e-300$"):
        hydro_coefficients(fam, 0, 1, 2, _fiber(fam), residual_tol=1e-300)
    assert hydro_coefficients(fam, 0, 1, 2, _fiber(fam)).expansion_residual < 1e-8


def test_hydro_extraction_refuses_potentials_that_ignore_the_fiber():
    # no compatibility function survives, so there is no basis to pick
    fam = _flat_family()
    assert not compatibility_tensor(fam, 0, 1, 2, _fiber(fam), [0.3 + 0.2j]).any()
    with pytest.raises(NonConvergence, match=r"^compatibility tensor vanishes identically$"):
        hydro_coefficients(fam, 0, 1, 2, _fiber(fam))


def test_a_vanishing_tensor_has_dimension_zero():
    # the zero matrix's rank threshold is tol times 0, which no singular
    # value exceeds: its rank is 0 on both sample sets
    fam = _flat_family()
    assert dimension_D(fam, 0, 1, 2, _fiber(fam)) == 0


def test_zero_coefficient_matrices_have_rank_zero():
    a, b, c = np.zeros((3, 1, 2), dtype=complex)
    hs = HydroSystem(D=1, a=a, b=b, c=c, basis_rows=(0,), z_points=(0.5j,),
                     expansion_residual=0.0)
    assert hs.rank_abc == 0
    hs.a[0, 1] = 1e-3
    assert hs.rank_abc == 1


def test_reconstruct_f_needs_two_distinct_potentials():
    with pytest.raises(ConfigError, match=r"^need two distinct potentials$"):
        reconstruct_f(_family("benney", 2), 1, 1)


def test_lambda_reconstruction_refuses_a_vanishing_h_prime(monkeypatch):
    # through (p - c)^2, whose derivative 2 (p1 - c) is about 2e-8 at the
    # stream's draw 1: below DEN_FLOOR, so that draw is redrawn though every
    # value read there is finite; under a floor of 1e-9 it is kept
    fam = _family("benney", 2)
    s = fam.structure
    c = complex(s.sample(2, 13, 2)[1, 0]) - 1e-8
    square = _square_in_p(fam.m, c, "(p-c)^2")
    fam = PotentialFamily(s, [Potential(square), *fam.potentials], enhanced=fam.enhanced)
    runs = _captured_residuals(monkeypatch)
    rep = reconstruct_lambda(fam, 1, samples=3, seed=13)
    monkeypatch.setattr(hierarchy, "DEN_FLOOR", 1e-9)
    every = reconstruct_lambda(fam, 1, samples=4, seed=13)
    assert rep.params["resampled"] == 1 and every.params["resampled"] == 0
    assert all(map(math.isfinite, runs[1]))
    assert runs[0] == [runs[1][k] for k in (0, 2, 3)]
