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

``interval_integrals`` answers a (K, 3) stack of branch-point triples in one
array pass per gap, so a whole ``rauch`` job is two passes: an n-node one
over its moduli and a 2n-node one over its moduli and every stencil point.
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
PHASES = np.array([1, 1j, -1, -1j])  # 1/q's phase 1/i^(4-k) on the k-th gap

DEFAULT_NODES = 200
# a rauch job builds an n- and a 2n-node rule (kernel.gauss_legendre, O(n^2)
# array work) and sums over both, the 2n-node pass over 13 rows: at n =
# MAX_NODES 8-17 ms for the rules and 2-4 ms for the rest of the job on a
# 2-vCPU host; the bound keeps a job small.
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
def _theta_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(sin theta, weight) of ``kernel.gauss_legendre``'s rule mapped to theta
    in [-pi/2, pi/2], read-only; built once per node count, so a rauch job
    builds its n- and its 2n-node rule once each."""
    x, w = kernel.gauss_legendre(nodes)
    rule = (np.sin(0.5 * math.pi * x), 0.5 * math.pi * w)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def interval_integrals(moduli, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """J[j, k] = integral of p^j dp / q over the k-th gap: (2, 4) for one
    triple (a, b, c), (K, 2, 4) for a (K, 3) stack of them.  Every row is
    validated before the rule is read; each gap is one real pass over (K,
    nodes) arrays, and each row's sums equal a one-triple call's bit for bit."""
    m = np.asarray(moduli, dtype=float)
    rows = np.atleast_2d(m)
    for row in rows:
        _validate_moduli(row)
    sin_th, wt = _theta_rule(nodes)
    es = [0.0, 1.0, *(rows[:, i, None] for i in range(3))]
    J = np.zeros((len(rows), 2, 4))
    for k in range(4):
        e0, e1 = es[k], es[k + 1]
        p = 0.5 * (e0 + e1) + 0.5 * (e1 - e0) * sin_th
        f0, f1, f2 = (p - e for e in es[:k] + es[k + 2:])
        s = wt / np.sqrt(np.abs(f0 * f1 * f2))
        J[:, 0, k] = np.sum(s, axis=-1)
        J[:, 1, k] = np.sum(s * p, axis=-1)
    return (J if m.ndim == 2 else J[0]) * PHASES


@dataclass(frozen=True)
class PeriodData:
    moduli: tuple[float, float, float]
    J: np.ndarray  # interval integrals, 2x4
    A: np.ndarray  # a-periods of the raw differentials, 2x2
    Braw: np.ndarray  # b-periods of the raw differentials, 2x2
    C: np.ndarray  # normalization: omega_j = sum_l C[j,l] p^l dp / q
    B: np.ndarray  # normalized period matrix, 2x2
    B_stencil: np.ndarray  # B at each stencil triple on the same rule, Kx2x2
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


def _assemble(moduli, n: int):
    """J, A, Braw, C and the normalized B = C @ Braw with an n-node rule,
    for one triple or, stacked along a leading axis, for a (K, 3) stack."""
    J = interval_integrals(moduli, n)
    A = np.stack([J @ v for v in A_CYCLES], -1)
    Braw = np.stack([J @ v for v in B_CYCLES], -1)
    C = np.linalg.inv(A)
    return J, A, Braw, C, C @ Braw


def periods(moduli, nodes: int = DEFAULT_NODES,
            check_tol: float | None = None, stencil=()) -> PeriodData:
    """Normalized period matrix of the curve; node doubling estimates the
    quadrature error.  The 2n-node pass also answers the triples in
    ``stencil`` (as ``B_stencil``), each validated before any rule is
    built."""
    _check_nodes(nodes)
    moduli = _validate_moduli(moduli)
    *_, B2s = _assemble([moduli, *stencil], 2 * nodes)
    J, A, Braw, C, B = _assemble(moduli, nodes)
    B2 = B2s[0]
    conv = float(np.max(np.abs(B - B2)))
    if check_tol is not None and conv > check_tol:
        raise NonConvergence(
            f"period matrix changed by {conv:.3e} under node doubling"
        )
    ev = np.linalg.eigvalsh(B2.imag)
    return PeriodData(
        moduli=moduli,
        J=J,
        A=A,
        Braw=Braw,
        C=C,
        B=B2,
        B_stencil=B2s[1:],
        symmetry_error=float(np.max(np.abs(B2 - B2.T))),
        im_eigenvalues=(float(ev[0]), float(ev[1])),
        convergence_error=conv,
    )


@dataclass(frozen=True)
class RauchData:
    moduli: tuple[float, float, float]
    branch: int  # 0 -> a, 1 -> b, 2 -> c
    delta: float
    dB_numeric: np.ndarray
    dB_predicted: np.ndarray
    max_rel_error: float
    step_stability: float  # change of the numeric derivative when delta halves


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


def rauch(moduli, branches=(0, 1, 2), delta: float = 1e-4,
          nodes: int = DEFAULT_NODES) -> tuple[PeriodData, list[RauchData]]:
    """The period matrix and, at each branch point in ``branches``, the
    central-difference derivative of it against the variational formula;
    the derivative is recomputed at half the step to confirm it has
    converged.  One ``periods`` call answers every stencil point: one
    n-node pass over the moduli and one 2n-node pass over the moduli and
    the points at +-delta and +-delta/2 of every branch."""
    _check_nodes(nodes)
    moduli = _validate_moduli(moduli)
    if any(branch not in (0, 1, 2) for branch in branches):
        raise ConfigError("branch must be 0 (a), 1 (b) or 2 (c)")
    # a step as wide as a gap next to a varied branch point carries a stencil
    # point onto or past its neighbour (1 below a, or the next modulus)
    gaps = (moduli[0] - 1.0, moduli[1] - moduli[0], moduli[2] - moduli[1])
    least = min((gaps[g] for branch in branches for g in (branch, branch + 1) if g < 3),
                default=math.inf)
    if not delta < least:
        raise ConfigError(f"delta must be less than {least!r}, the least gap next to a "
                          f"varied branch point, got {delta!r}")
    if any(moduli[branch] + delta / 2.0 == moduli[branch] for branch in branches):
        raise ConfigError(f"delta must move each varied branch point by half of it, "
                          f"got {delta!r}")
    steps = (delta, -delta, delta / 2.0, -delta / 2.0)
    stencil = []
    for branch in branches:
        for step in steps:
            point = list(moduli)
            point[branch] += step
            stencil.append(point)
    pd = periods(moduli, nodes, stencil=stencil)
    checks = []
    for branch, (B_up, B_down, B_half_up, B_half_down) in zip(
            branches, pd.B_stencil.reshape(-1, 4, 2, 2)):
        dB = (B_up - B_down) / (2.0 * delta)
        dB_half = (B_half_up - B_half_down) / (2.0 * (delta / 2.0))
        pred = rauch_prediction(pd, branch)
        rel = float(np.max(np.abs(dB_half - pred) / np.maximum(np.abs(pred), 1e-12)))
        checks.append(RauchData(
            moduli=moduli,
            branch=branch,
            delta=delta,
            dB_numeric=dB_half,
            dB_predicted=pred,
            max_rel_error=rel,
            step_stability=float(np.max(np.abs(dB - dB_half))),
        ))
    return pd, checks


def rauch_check(moduli, branch: int, delta: float = 1e-4,
                nodes: int = DEFAULT_NODES) -> RauchData:
    """``rauch`` at one branch point."""
    return rauch(moduli, (branch,), delta, nodes)[1][0]
