"""Whitham-type hierarchy analysis through its potentials.

A family of potentials h_1(z, v), ..., h_N(z, v) defines a hierarchy whose
compatibility conditions are spanned, for each triple of indices (i, j, k),
by the 3m functions of z

    h_i'(z) h_{j, v_l}(z) - h_j'(z) h_{i, v_l}(z)   (and the two cyclic blocks).

The dimension D of that span controls the equivalent hydrodynamic-type
system; the integrability criterion ties the family back to a structure by
reconstructing f and lambda from any two potentials.  Times are never
instantiated: everything is analyzed through the potentials as functions of
the spectral parameter z and the fiber point v.

Every check here runs on argument columns: each evaluator is asked once
per set of points.  A reconstruction scores the samples of one seeded
stream in draw order, in rounds: the first round asks for every wanted
draw, and each later one for as many as were rejected before it, one
``structure.sample`` call continuing the stream where the last left it,
so a round scores only its new draws (see ``_redrawn``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .core import (
    EnhancedGT,
    GTStructure,
    Potential,
    VerificationReport,
    _make_report,
    _rows,
    _values,
    apply_field,
)
from .errors import ConfigError, DomainViolation, NonConvergence, SamplingExhausted
from .kernel import Box, SplitMix64, admitted, jets, multi_index


def _rank(mat: np.ndarray, tol: float) -> int:
    """Numeric rank: how many singular values exceed tol times the largest
    (none of a zero matrix, whose largest is 0)."""
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


def _pivots(a: np.ndarray, count: int) -> list[int]:
    """The first ``count`` column pivots of ``a`` by modified Gram-Schmidt with
    column pivoting (Businger & Golub, Numer. Math. 7, 1965; Golub & Van Loan,
    "Matrix Computations", 5.4.2): each step takes the column of largest
    remaining norm, the lowest index among those within a relative 1e-12 of
    it, and deflates every column by that column's unit direction.  ``count``
    is at most the numeric rank of ``a``."""
    a = np.array(a, dtype=complex)
    piv = []
    for _ in range(count):
        norms = np.linalg.norm(a, axis=0)
        p = int(np.argmax(norms >= norms.max() * (1 - 1e-12)))
        q = a[:, p] / norms[p]
        a -= np.outer(q, q.conj() @ a)
        piv.append(p)
    return piv


@dataclass
class PotentialFamily:
    """An ordered family of potentials over a shared structure.

    ``z_box`` bounds the sampling region of the spectral parameter; fiber
    points come from the structure's own boxes.  ``enhanced`` is optional
    and only used as the oracle for lambda reconstruction.
    """

    structure: GTStructure
    potentials: list[Potential]
    z_box: Box | None = None
    enhanced: EnhancedGT | None = None
    label: str = "family"

    def __post_init__(self):
        if len(self.potentials) < 3:
            raise ConfigError("a potential family needs at least 3 members")
        if self.z_box is None:
            self.z_box = self.structure.p_box

    @property
    def N(self) -> int:
        return len(self.potentials)

    @property
    def m(self) -> int:
        return self.structure.m

    def h_request(self, i: int, at: tuple) -> tuple:
        """The ``jets`` request for h_i' and h_{i, v_1}, ..., h_{i, v_m} on the
        argument columns ``at`` of points (z, v)."""
        return self.potentials[i].h, at, [multi_index(1 + self.m, t) for t in range(1 + self.m)]

    def h_jet(self, i: int, at: tuple) -> np.ndarray:
        """``h_request``'s rows, one each, in one call."""
        h, at, multis = self.h_request(i, at)
        return h.partials(at, multis)

    def sample_z(self, count: int, seed: int, v: Sequence[complex]) -> list[complex]:
        """Seeded z points inside z_box clearing every potential's poles by
        more than the structure's minimum separation."""
        loci = [ex for p in self.potentials for ex in p.h.domain.exclusions if 0 in ex.slots]
        out, _ = admitted(SplitMix64(seed), [self.z_box], v, count, 500 * count, loci,
                          self.structure.min_separation)
        if len(out) < count:
            raise SamplingExhausted(f"could not place {count} z points clear of the poles")
        return out[:, 0].tolist()

    def independence_rank(self, v: Sequence[complex], z_points: Sequence[complex],
                          svd_tol: float = 1e-10) -> int:
        """Numeric rank of the (h_i', h_{i,v}) jet matrix; equals N for a
        functionally independent family.  Row i holds h_i's jet at every z
        in turn, from one call per potential."""
        at = _rows(self.structure, np.column_stack([z_points, [v] * len(z_points)]), (0,))
        return _rank(np.array([self.h_jet(i, at).T.ravel() for i in range(self.N)]), svd_tol)


def compatibility_tensor(
    fam: PotentialFamily,
    i: int,
    j: int,
    k: int,
    v: Sequence[complex],
    z_points: Sequence[complex],
) -> np.ndarray:
    """The 3m coefficient functions of the triple (i, j, k) sampled in z.

    Row layout: l-th row of block 0 multiplies dv_l/dt_k, block 1 (rows
    m..2m-1) multiplies dv_l/dt_i, block 2 multiplies dv_l/dt_j.  Each of
    h_i, h_j and h_k is asked for its first partials at every z, all three
    in one ``jets`` call.
    """
    if len({i, j, k}) != 3:
        raise ConfigError("indices i, j, k must be pairwise distinct")
    for idx in (i, j, k):
        if not 0 <= idx < fam.N:
            raise ConfigError(f"potential index {idx} out of range")
    at = _rows(fam.structure, np.column_stack([z_points, [v] * len(z_points)]), (0,))
    jet = dict(zip((i, j, k), jets([fam.h_request(idx, at) for idx in (i, j, k)])))

    def block(a, b):
        """h_a' h_{b, v_l} - h_b' h_{a, v_l}, one row per l."""
        return jet[a][0] * jet[b][1:] - jet[b][0] * jet[a][1:]

    return np.vstack([block(i, j), block(j, k), block(k, i)])


def dimension_D(
    fam: PotentialFamily,
    i: int,
    j: int,
    k: int,
    v: Sequence[complex],
    z_count: int = 40,
    seed: int = 7,
    svd_tol: float = 1e-8,
) -> int:
    """dim V_{i,j,k}: numeric rank of the sampled coefficient functions.

    The rank is recomputed on a doubled sample; a mismatch is reported as
    non-convergence rather than guessed away.
    """
    return _fit(fam, i, j, k, v, z_count, seed, svd_tol)[2]


def _fit(fam, i, j, k, v, z_count, seed, svd_tol,
         held: int = 0) -> tuple[list[complex], np.ndarray, int, list[complex]]:
    """``dimension_D``'s first sample: its z_count z points at ``seed``, their
    compatibility tensor and its rank, checked against the rank on 2 z_count
    points at seed + 1; and the next ``held`` z points of the stream at
    ``seed``, drawn with the first z_count in one ``sample_z`` call."""
    if z_count < 3 * fam.m + 5:
        raise ConfigError("need at least 3m + 5 z samples for a stable rank")
    zs = fam.sample_z(z_count + held, seed, v)
    mat = compatibility_tensor(fam, i, j, k, v, zs[:z_count])
    d = _rank(mat, svd_tol)
    d2 = _rank(compatibility_tensor(fam, i, j, k, v, fam.sample_z(2 * z_count, seed + 1, v)),
               svd_tol)
    if d != d2:
        raise NonConvergence(
            f"rank unstable under sample doubling: {d} vs {d2}"
        )
    return zs[:z_count], mat, d, zs[z_count:]


@dataclass
class HydroSystem:
    """The hydrodynamic-type system equivalent to one compatibility triple.

    a, b, c are (D x m) coefficient matrices at the fiber point: row r is
    sum_l a[r,l] dv_l/dt_i + b[r,l] dv_l/dt_j + c[r,l] dv_l/dt_k = 0.
    basis_rows indexes which sampled coefficient functions serve as
    S_1..S_D; expansion_residual is measured on held-out z points.
    """

    D: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    basis_rows: tuple[int, ...]
    basis_samples: np.ndarray
    z_points: tuple[complex, ...]
    expansion_residual: float
    v: tuple[complex, ...]

    @property
    def rank_abc(self) -> int:
        return _rank(np.hstack([self.a, self.b, self.c]), 1e-10)


def hydro_coefficients(
    fam: PotentialFamily,
    i: int,
    j: int,
    k: int,
    v: Sequence[complex],
    z_count: int = 40,
    seed: int = 7,
    svd_tol: float = 1e-8,
    residual_tol: float = 1e-8,
) -> HydroSystem:
    """Extract the hydrodynamic system of one compatibility triple.

    The fit is ``dimension_D``'s first sample, its tensor and its rank D.
    ``_pivots`` picks the basis S_1..S_D from the sampled coefficient
    functions by column-pivoted modified Gram-Schmidt: the function of
    largest remaining norm first, the lowest index on a tie.  Least squares
    gives the expansion of every coefficient function, and the expansion is
    validated on held-out z points, the next z_count of the fit's seeded
    stream, before the a, b, c matrices are assembled.
    """
    fit_z, mat, D, held_z = _fit(fam, i, j, k, v, z_count, seed, svd_tol, held=z_count)
    held = compatibility_tensor(fam, i, j, k, v, held_z)  # mat and held: (3m, nz)
    if D == 0:
        raise NonConvergence("compatibility tensor vanishes identically")
    basis_rows = tuple(_pivots(mat.T, D))  # columns of mat.T are the 3m functions
    S = mat[list(basis_rows)]  # (D, nz)
    # expansion of every function in the S basis
    coef, *_ = np.linalg.lstsq(S.T, mat.T, rcond=None)  # (D, 3m)
    S_held = held[list(basis_rows)]
    recomposed = coef.T @ S_held
    scale = max(np.abs(held).max(), 1.0)
    residual = float(np.abs(recomposed - held).max() / scale)
    if residual > residual_tol:
        raise NonConvergence(
            f"basis expansion residual {residual:.3e} above {residual_tol:.1e}"
        )
    # block 0 multiplies dv/dt_k, block 1 dv/dt_i, block 2 dv/dt_j
    c, a, b = (np.array(coef[:, k * fam.m:(k + 1) * fam.m]) for k in range(3))
    return HydroSystem(D, a, b, c, basis_rows, S, tuple(fit_z), residual, tuple(v))


# ---------------------------------------------------------------------------
# reconstruction of f and lambda from the potentials
# ---------------------------------------------------------------------------


DEN_FLOOR = 1e-6  # reconstruction denominators below this are resampled


def _redrawn(s: GTStructure, samples: int, seed: int, scored,
             exhausted: str) -> tuple[list[float], int]:
    """Residuals at the first ``samples`` kept draws of (p1, p2, v), in draw
    order, and the number of draws rejected.

    The draws are the samples of one stream, ``SplitMix64(seed)``, in draw
    order: the first round asks ``s.sample`` for ``samples`` draws and each
    later one for as many as the rounds before it rejected, one ``sample``
    call per round continuing the stream where the last left it, so each
    round admits and scores only its new draws.  ``scored(pts)`` gives a round's
    residuals and which of its draws are kept, asking each evaluator once
    on argument columns.  A ``DomainViolation`` from that call (an evaluator
    failing closed at some draw) rejects every draw of the round.  After
    50 * samples draws the run raises ``SamplingExhausted``."""
    residuals, stream, drawn, resampled = [], SplitMix64(seed), 0, 0
    while len(residuals) < samples:
        if drawn == 50 * samples:
            raise SamplingExhausted(exhausted)
        pts = s.sample(min(samples - len(residuals), 50 * samples - drawn), stream, 2)
        drawn += len(pts)
        try:
            with np.errstate(all="ignore"):  # a rejected draw may read inf or NaN
                res, kept = scored(pts)
        except DomainViolation:
            resampled += len(pts)
            continue
        residuals += res[kept].tolist()
        resampled += len(pts) - int(kept.sum())
    return residuals, resampled


def _flow(fval: np.ndarray, gv: np.ndarray, jet: np.ndarray) -> np.ndarray:
    """f(p1, p2) X'(p2) + g(p1)(X(p2)) for X with p2 jet ``jet`` (``h_jet``'s
    rows): the numerator of the hierarchy derivative D1 and of lambda."""
    return fval * jet[0] + apply_field(gv, jet[1:])


def reconstruct_f(
    fam: PotentialFamily,
    i: int,
    j: int,
    samples: int = 30,
    seed: int = 11,
    tol: float = 1e-8,
) -> tuple[Callable, VerificationReport]:
    """Rebuild the two-point function from potentials i and j.

        f(p1, p2) = sum_k (h_i'(p1) h_{j,v_k}(p2) - h_j'(p1) h_{i,v_k}(p2)) g_k(p1)
                    / (h_j'(p1) h_i'(p2) - h_j'(p2) h_i'(p1))

    The report compares against the structure's own f (relative residual)
    over the draws of ``_redrawn``; a draw whose denominator falls below
    ``DEN_FLOOR`` or whose rebuilt value is not finite is redrawn.  In
    each round h_i and h_j are asked once at p1 and once at p2, f and each
    g_k once.  The returned callable raises ``DomainViolation`` at a point
    whose denominator vanishes.
    """
    if i == j:
        raise ConfigError("need two distinct potentials")
    s = fam.structure
    dz = [multi_index(1 + s.m, 0)]  # p1 needs only h'; p2 the whole h_jet

    def rebuilt(pts):
        """The formula and its denominator at every draw."""
        at1, at2 = _rows(s, pts, (0,)), _rows(s, pts, (1,))
        [hpi1], [hpj1] = (fam.potentials[t].h.partials(at1, dz) for t in (i, j))
        jet_i, jet_j = fam.h_jet(i, at2), fam.h_jet(j, at2)
        num = apply_field(_values(s.g, at1), hpi1 * jet_j[1:] - hpj1 * jet_i[1:])
        den = hpj1 * jet_i[0] - jet_j[0] * hpi1
        with np.errstate(all="ignore"):
            return num / den, den

    def rec(p1, p2, v):
        [got], [den] = rebuilt(np.array([(p1, p2, *v)], dtype=complex))
        if abs(den) < DEN_FLOOR:
            raise DomainViolation("reconstruction denominator vanishes")
        return complex(got)

    def scored(pts):
        got, den = rebuilt(pts)
        want = s.f.value(_rows(s, pts, (0, 1)))
        return (abs(got - want) / np.maximum(abs(want), 1.0),
                (abs(den) >= DEN_FLOOR) & np.isfinite(got))

    residuals, resampled = _redrawn(s, samples, seed, scored,
                                    "reconstruction denominator kept vanishing")
    return rec, _make_report(
        "reconstruct_f", residuals, tol, seed,
        pair=(i, j), resampled=resampled, label=fam.label,
    )


def reconstruct_lambda(
    fam: PotentialFamily,
    i: int,
    samples: int = 30,
    seed: int = 13,
    tol: float = 1e-8,
) -> tuple[Callable, VerificationReport]:
    """Rebuild lambda from potential i:

        lambda(p1, p2) = (f(p1, p2) h_i'(p2) + g(p1)(h_i(p2))) / h_i'(p1)

    compared against the enhanced structure's lambda when available and
    against the same formula through every other potential (independence
    of i) otherwise, over the draws of ``_redrawn``.  A draw where some
    h'(p1) falls below ``DEN_FLOOR`` or some rebuilt value is not finite
    is redrawn.  In each round every h is asked once at p1 and once at p2,
    f, each g_j and lambda once.  The returned callable raises
    ``DomainViolation`` at a point where h_i'(p1) vanishes.
    """
    s = fam.structure
    dz = [multi_index(1 + s.m, 0)]  # p1 needs only h'; p2 the whole h_jet
    order = [i, *(idx for idx in range(fam.N) if idx != i)]

    def through(idxs, pts):
        """h'(p1) and the formula at every draw, one row per potential of idxs."""
        at1, at2 = _rows(s, pts, (0,)), _rows(s, pts, (1,))
        fval, gv = s.f.value(_rows(s, pts, (0, 1))), _values(s.g, at1)
        hp1 = np.array([fam.potentials[idx].h.partials(at1, dz)[0] for idx in idxs])
        flows = np.array([_flow(fval, gv, fam.h_jet(idx, at2)) for idx in idxs])
        with np.errstate(all="ignore"):
            return hp1, flows / hp1

    def rec(p1, p2, v):
        [[hp1]], [[got]] = through([i], np.array([(p1, p2, *v)], dtype=complex))
        if abs(hp1) < DEN_FLOOR:
            raise DomainViolation("h'(p1) vanishes")
        return complex(got)

    def scored(pts):
        hp1, rebuilt = through(order, pts)
        got, alt = rebuilt[0], rebuilt[1:]
        diffs = [*abs(got - alt)]
        if fam.enhanced is not None:
            diffs.append(abs(got - fam.enhanced.lam.value(_rows(s, pts, (0, 1)))))
        kept = (abs(hp1) >= DEN_FLOOR).all(axis=0) & np.isfinite(rebuilt).all(axis=0)
        return np.max(diffs, axis=0) / np.maximum(abs(got), 1.0), kept

    residuals, resampled = _redrawn(s, samples, seed, scored,
                                    "lambda reconstruction kept hitting zeros")
    return rec, _make_report(
        "reconstruct_lambda", residuals, tol, seed,
        index=i, resampled=resampled, label=fam.label,
    )


def criterion_integrable(
    fam: PotentialFamily,
    samples: int = 30,
    seed: int = 19,
    tol: float = 1e-8,
) -> VerificationReport:
    """The pairwise integrability criterion

        h_j'(p1) D1(h_i(p2)) = h_i'(p1) D1(h_j(p2))

    where D1(X) = (f(p1, p2) X'(p2) + g(p1)(X(p2))) / g_1(p1) is the
    hierarchy derivative taken through the quasilinear system with unit
    slope in v_1.  Over the seeded samples, every h is asked once at p1
    and once at p2, f and each g_j once.
    """
    s = fam.structure
    dz = [multi_index(1 + s.m, 0)]  # p1 needs only h'; p2 the whole h_jet
    pts = s.sample(samples, seed, 2)
    at1, at2 = _rows(s, pts, (0,)), _rows(s, pts, (1,))
    fval, gv = s.f.value(_rows(s, pts, (0, 1))), _values(s.g, at1)
    hp1 = np.array([pot.h.partials(at1, dz)[0] for pot in fam.potentials])
    with np.errstate(all="ignore"):
        d1 = np.array([_flow(fval, gv, fam.h_jet(idx, at2)) for idx in range(fam.N)]) / gv[0]
        scale = np.maximum(abs(d1).max(axis=0), 1.0)
        residuals = np.max([abs(hp1[b] * d1[a] - hp1[a] * d1[b]) / scale
                            for a, b in combinations(range(fam.N), 2)], axis=0)
    return _make_report(
        "integrability_criterion", residuals, tol, seed, label=fam.label,
    )
