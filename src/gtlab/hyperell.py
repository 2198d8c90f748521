"""Period matrices and branch-point variations of the genus-2 curve
q^2 = p(p-1)(p-a)(p-b)(p-c) with real-separated branch points.

Periods are computed from interval integrals of the holomorphic
differentials dp/q and p dp/q between consecutive real branch points
(e_0, ..., e_4) = (0, 1, a, b, c), continued along the upper lip of the
real axis, where q has the constant phase i^(4-k) on the gap (e_k, e_{k+1}).
With p = mid + half*sin(theta) the gap's own factors (p - e_k)(e_{k+1} - p)
of q^2 are half^2 cos^2(theta) and cancel the Jacobian half*cos(theta): the
integrand is p^j / sqrt|R_k(p)| times 1/i^(4-k), R_k the product of p - e
over the three other branch points.  It is smooth, so Gauss-Legendre
converges spectrally, and takes no difference of close numbers next to an
endpoint, so the sums sit at rounding at every node count.

The homology basis, in the interval integrals J_{k+1} over (e_k, e_{k+1}), is

    A_1 = 2 J_1,          A_2 = 2 J_3,
    B_1 = 2 (J_2 + J_4),  B_2 = 2 J_4.

This combination was validated numerically: it yields a symmetric period
matrix with positive-definite imaginary part whose branch-point derivatives
match the local-coordinate variational formula at every branch point.

With theta's range fixed, p moves with its gap's ends by (1 -+ sin theta)/2,
so the derivatives of J in (a, b, c) are Gauss sums on the same rule of the
integrand's derivative, s d ln s (plus s dp for p^1), with
d ln s = -1/2 sum_o (dp - [e = e_o]) / (p - e_o) over the other three, and
dB = C (dBraw - dA B).  ``interval_integrals`` runs the four gaps as the rows
of one array pass, so a whole ``rauch`` job is two passes: an n-node one for
J, which node doubling reads, and a 2n-node one for J and its derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import ConfigError, NonConvergence

A_CYCLES = (np.array([2, 0, 0, 0]), np.array([0, 0, 2, 0]))
B_CYCLES = (np.array([0, 2, 0, 2]), np.array([0, 0, 0, 2]))
_CYCLES = np.stack([*A_CYCLES, *B_CYCLES], -1) + 0j  # J @ _CYCLES = [A | Braw]
PHASES = np.array([1, 1j, -1, -1j])  # 1/q's phase 1/i^(4-k) on the k-th gap
# the other three of (e_0, ..., e_4) on each gap, and the slot (the gap's two
# ends, then its others) of each of a, b, c on each gap
_OTHERS = np.array([[o for o in range(5) if o not in (k, k + 1)] for k in range(4)])
_SLOT = np.array([[[k, k + 1, *_OTHERS[k]].index(m) for k in range(4)] for m in (2, 3, 4)])
_GAPS = np.arange(4)

DEFAULT_NODES = 200
# a rauch job builds an n- and a 2n-node rule (kernel.gauss_legendre, O(n^2)
# array work) and sums over both, the 2n-node pass with the derivatives: at
# n = MAX_NODES 8-13 ms for the rules and 0.3-1.1 ms for the rest of the job
# on a 2-vCPU host (Python 3.11, numpy 2.4); the bound keeps a job small.
MAX_NODES = 1000


def _validate_moduli(moduli) -> tuple[float, float, float]:
    a, b, c = (float(x) for x in moduli)
    if not (1.0 < a < b < c):
        raise ConfigError(
            f"branch points must satisfy 1 < a < b < c, got {(a, b, c)}"
        )
    if not math.isfinite(c):  # the order leaves c = +inf as the one non-finite case
        raise ConfigError(f"branch points must be finite, got {(a, b, c)}")
    gaps = (a - 1.0, b - a, c - b)
    if min(gaps) < 1e-3:
        raise ConfigError(f"branch points too close: gaps {gaps}")
    return a, b, c


def _check_nodes(nodes) -> None:
    if not 1 <= nodes <= MAX_NODES:
        raise ConfigError(f"nodes must be in 1..{MAX_NODES}, got {nodes}")


@functools.lru_cache(maxsize=4)
def _theta_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sin theta, weight, dp) of ``kernel.gauss_legendre``'s rule mapped to
    theta in [-pi/2, pi/2], read-only, with dp = ((1 - sin theta)/2, (1 +
    sin theta)/2), how p = mid + half sin theta moves with the gap's two
    ends; built once per node count, so a rauch job builds its n- and its
    2n-node rule once each."""
    x, w = kernel.gauss_legendre(nodes)
    sin_th = np.sin(0.5 * math.pi * x)
    rule = (sin_th, 0.5 * math.pi * w, np.stack([0.5 - 0.5 * sin_th, 0.5 + 0.5 * sin_th]))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def interval_integrals(moduli, nodes: int = DEFAULT_NODES,
                       derivatives: bool = False) -> np.ndarray:
    """J[j, k] = integral of p^j dp / q over the k-th gap, (2, 4), for the
    triple (a, b, c), validated before the rule is read; with
    ``derivatives``, (4, 2, 4): J and then dJ/da, dJ/db, dJ/dc on the same
    rule.  The four gaps are the rows of one (4, nodes) pass."""
    e = np.array([0.0, 1.0, *_validate_moduli(moduli)])
    sin_th, wt, dp = _theta_rule(nodes)
    lo, hi = e[:4, None], e[1:, None]
    with np.errstate(over="raise", invalid="raise"):  # a modulus near float's range fails closed
        p = 0.5 * (lo + hi) + 0.5 * (hi - lo) * sin_th
        f = p - e[_OTHERS.T, None]  # (3, 4, nodes): p - e_o over each gap's other branch points
        s = wt / np.sqrt(np.abs(f[0] * f[1] * f[2]))
        J = np.stack([np.sum(s, -1), np.sum(s * p, -1)])
        if not derivatives:
            return J * PHASES
        # theta's range is fixed, so p moves with its gap's ends by dp, and
        # d ln s = -1/2 sum_o (dp - [e = e_o]) / (p - e_o)
        ds = s / f  # 2 ds/de_o
        sS = ds.sum(0)  # -2 ds/dp
        # dot products, not pairwise sums: dB = C (dBraw - dA B) can cancel
        # a hundredfold, and they keep the worst rauch residual 3x lower
        ends = np.vecdot(np.stack([-sS, 2.0 * s - p * sS])[:, :, None], dp)
        others = np.stack([ds.sum(-1), np.vecdot(ds, p)]).swapaxes(1, 2)
    # twice dJ[j, k, slot] over each gap's slots (its two ends, then its
    # others), of which _SLOT picks a's, b's and c's
    dJ = 0.5 * np.concatenate([ends, others], -1)[:, _GAPS, _SLOT]
    return np.concatenate([J[None], dJ.swapaxes(0, 1)]) * PHASES


@dataclass(frozen=True)
class PeriodData:
    moduli: tuple[float, float, float]
    J: np.ndarray  # interval integrals, 2x4
    A: np.ndarray  # a-periods of the raw differentials, 2x2
    Braw: np.ndarray  # b-periods of the raw differentials, 2x2
    C: np.ndarray  # normalization: omega_j = sum_l C[j,l] p^l dp / q
    B: np.ndarray  # normalized period matrix, 2x2
    dB: np.ndarray  # dB/da, dB/db, dB/dc, 3x2x2
    symmetry_error: float
    im_eigenvalues: tuple[float, float]
    convergence_error: float

    @property
    def nonpositive(self) -> int:
        """How many eigenvalues of Im B are not > 0; a NaN is not."""
        return sum(not ev > 0 for ev in self.im_eigenvalues)

    @property
    def positive(self) -> bool:
        return self.nonpositive == 0


def _assemble(moduli, n: int, derivatives: bool = False):
    """J, A, Braw, C and the normalized B = C @ Braw with an n-node rule; with
    ``derivatives`` J, A and Braw carry theirs in (a, b, c) behind them,
    (4, ...), and C and B are the curve's own."""
    J = interval_integrals(moduli, n, derivatives)
    AB = J @ _CYCLES
    A, Braw = AB[..., :2], AB[..., 2:]
    C = np.linalg.inv(A[0] if derivatives else A)
    return J, A, Braw, C, C @ (Braw[0] if derivatives else Braw)


def periods(moduli, nodes: int = DEFAULT_NODES,
            check_tol: float | None = None) -> PeriodData:
    """Normalized period matrix of the curve and its derivatives in (a, b,
    c), dB = C (dBraw - dA B), from one 2n-node pass; the n-node pass
    estimates the quadrature error by node doubling."""
    _check_nodes(nodes)
    moduli = _validate_moduli(moduli)
    J, A, Braw, C, B2 = _assemble(moduli, 2 * nodes, derivatives=True)
    B = _assemble(moduli, nodes)[-1]
    conv = float(np.max(np.abs(B - B2)))
    if check_tol is not None and conv > check_tol:
        raise NonConvergence(
            f"period matrix changed by {conv:.3e} under node doubling"
        )
    ev = np.linalg.eigvalsh(B2.imag)
    return PeriodData(
        moduli=moduli,
        J=J[0],
        A=A[0],
        Braw=Braw[0],
        C=C,
        B=B2,
        dB=C @ (Braw[1:] - A[1:] @ B2),
        symmetry_error=float(np.max(np.abs(B2 - B2.T))),
        im_eigenvalues=(float(ev[0]), float(ev[1])),
        convergence_error=conv,
    )


@dataclass(frozen=True)
class RauchData:
    moduli: tuple[float, float, float]
    branch: int  # 0 -> a, 1 -> b, 2 -> c
    dB: np.ndarray  # the exact derivative of the period matrix in the branch point
    dB_predicted: np.ndarray
    max_rel_error: float


def rauch_prediction(pd: PeriodData, branch: int) -> np.ndarray:
    """Variational formula at one branch point.

    In the local coordinate t with p = e + t^2 the normalized differential
    has value w_j = 2 (C[j,0] + C[j,1] e) / sqrt(R(e)) at the branch point,
    R(p) = quintic(p) / (p - e); the derivative of the period matrix in e
    is pi i w_j w_k.
    """
    a, b, c = pd.moduli
    e = (a, b, c)[branch]
    others = [x for i, x in enumerate((a, b, c)) if i != branch]
    R = e * (e - 1.0) * (e - others[0]) * (e - others[1])
    w = [2.0 * (pd.C[j, 0] + pd.C[j, 1] * e) / np.sqrt(complex(R)) for j in range(2)]
    return np.array(
        [[1j * math.pi * w[j] * w[k] for k in range(2)] for j in range(2)]
    )


def rauch(moduli, branches=(0, 1, 2),
          nodes: int = DEFAULT_NODES) -> tuple[PeriodData, list[RauchData]]:
    """The period matrix and, at each branch point in ``branches``, its
    derivative there against the variational formula, both from one
    ``periods`` call."""
    if any(branch not in (0, 1, 2) for branch in branches):
        raise ConfigError("branch must be 0 (a), 1 (b) or 2 (c)")
    pd = periods(moduli, nodes)
    dB, pred = pd.dB[list(branches)], np.array([rauch_prediction(pd, b) for b in branches])
    # relative to each entry, floored at 1e-12 of the largest, so the check
    # scales with the curve; a vanishing prediction reads inf or NaN, a failure
    floor = 1e-12 * np.abs(pred).max(axis=(1, 2), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.max(np.abs(dB - pred) / np.maximum(np.abs(pred), floor), axis=(1, 2))
    return pd, [RauchData(pd.moduli, branch, d, p, float(r))
                for branch, d, p, r in zip(branches, dB, pred, rel)]


def rauch_check(moduli, branch: int, nodes: int = DEFAULT_NODES) -> RauchData:
    """``rauch`` at one branch point."""
    return rauch(moduli, (branch,), nodes)[1][0]
