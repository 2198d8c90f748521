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
of one array pass over the n-node and the 2n-node rule side by side, so a
whole ``rauch`` job is one pass: J on the n nodes, which node doubling
reads, and J and its derivatives on the 2n.  The 2x2 algebra after it is
Python arithmetic on complex scalars, since a numpy or LAPACK call on a 2x2
costs far more than its flops.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .core import worst_residual
from .errors import ConfigError, NonConvergence

PHASES = np.array([1, 1j, -1, -1j])  # 1/q's phase 1/i^(4-k) on the k-th gap
# the three other branch points of each gap (e_k, e_{k+1})
_OTHERS = [[o for o in range(5) if o not in (k, k + 1)] for k in range(4)]


def _derivative_map() -> np.ndarray:
    """(4, 6, 21): per gap, dJ/da, dJ/db, dJ/dc of p^0 and p^1 (3 x 2) from
    the gap's 21 sums: ds_o, ds_o p (o its three others, ds_o = s / (p - e_o))
    and s (7 rows), each dotted with 1 and with dp for its two ends (3)."""
    T = np.zeros((4, 3, 2, 7, 3))
    for k in range(4):
        for i, m in enumerate((2, 3, 4)):
            if m in (k, k + 1):  # an end: d ln s = -1/2 sum_o dp / (p - e_o), p^1 adds s dp
                col = 1 + m - k
                T[k, i, 0, :3, col] = T[k, i, 1, 3:6, col] = -0.5
                T[k, i, 1, 6, col] = 1.0
            else:  # one of the others: d ln s = 1/2 / (p - e_m)
                o = _OTHERS[k].index(m)
                T[k, i, 0, o, 0] = T[k, i, 1, 3 + o, 0] = 0.5
    return T.reshape(4, 6, 21)


_DERIVATIVES = _derivative_map()

DEFAULT_NODES = 200
# a rauch job builds an n- and a 2n-node rule (kernel.gauss_legendre, O(n^2)
# array work) and sums over both in one pass, the 2n-node rule with the
# derivatives: at n = MAX_NODES 7.9-8.7 ms for the rules and 0.33-0.37 ms for
# the pass and the 2x2 algebra (``rauch``, rules cached) on a 2-vCPU host
# (Python 3.11, numpy 2.4); the bound keeps a job small.
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
    """(sin theta, weight) of ``kernel.gauss_legendre``'s n-node rule and then
    its 2n-node rule, 3n nodes, mapped to theta in [-pi/2, pi/2], and on the
    2n-node rule's nodes the columns (1, dp), 2n x 3, with dp = ((1 - sin
    theta)/2, (1 + sin theta)/2) how p = mid + half sin theta moves with the
    gap's two ends; read-only, and built once per node count, so a rauch job
    builds each rule once."""
    x, w = map(np.concatenate, zip(kernel.gauss_legendre(nodes),
                                   kernel.gauss_legendre(2 * nodes)))
    sin_th = np.sin(0.5 * math.pi * x)
    fine = sin_th[nodes:]
    rule = (sin_th, 0.5 * math.pi * w,
            np.stack([np.ones_like(fine), 0.5 - 0.5 * fine, 0.5 + 0.5 * fine], -1))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def interval_integrals(moduli, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """J[j, k] = integral of p^j dp / q over the k-th gap, (2, 4), for the
    triple (a, b, c), validated before the rule is read, stacked (5, 2, 4):
    J on the n-node rule, then J and dJ/da, dJ/db, dJ/dc on the 2n-node
    rule.  The four gaps are the rows of one (4, 3n) pass over both rules."""
    es = (0.0, 1.0, *_validate_moduli(moduli))
    sin_th, wt, dots = _theta_rule(nodes)
    # per gap: its middle and half width, then its three other branch points
    gap = np.array([[0.5 * (es[k] + es[k + 1]), 0.5 * (es[k + 1] - es[k]),
                     *(es[o] for o in _OTHERS[k])] for k in range(4)]).T[..., None]
    with np.errstate(over="raise", invalid="raise"):  # a modulus near float's range fails closed
        p = gap[0] + gap[1] * sin_th
        f = p - gap[2:]  # (3, 4, 3n): p - e_o over each gap's other branch points
        s = wt / np.sqrt(np.abs(f[0] * f[1] * f[2]))
        sp = np.concatenate([s, s * p])  # the p^0 and then the p^1 integrand
        J = sp[:, :nodes].sum(-1).reshape(1, 2, 4)
        J2 = sp[:, nodes:].sum(-1).reshape(1, 2, 4)
        # theta's range is fixed, so p moves with its gap's ends by dp, and
        # d ln s = -1/2 sum_o (dp - [e = e_o]) / (p - e_o); the sums are
        # products with the (1, dp) columns, not pairwise sums: dB = C (dBraw
        # - dA B) can cancel a hundredfold, and they keep the worst rauch
        # residual about 3x lower
        s = s[:, nodes:]
        ds = s / f[..., nodes:]  # 2 ds/de_o
        sums = np.concatenate([ds @ dots, (ds * p[:, nodes:]) @ dots, (s @ dots)[None]])
    dJ = _DERIVATIVES @ sums.transpose(1, 0, 2).reshape(4, 21, 1)
    return np.concatenate([J, J2, dJ.reshape(4, 3, 2).transpose(1, 2, 0)]) * PHASES


@dataclass(frozen=True)
class PeriodData:
    moduli: tuple[float, float, float]
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

    @property
    def min_eigenvalue(self) -> float:
        """The lower eigenvalue of Im B, NaN when either is."""
        lo, hi = self.im_eigenvalues
        return hi if hi < lo or math.isnan(hi) else lo


# The 2x2 algebra on nested lists of Python complex numbers.


def _cycles(J):
    """(A, Braw): the a- and b-periods (columns) of p^0 dp/q and p^1 dp/q
    (rows) from their interval integrals J, 2x4, in the basis above."""
    return ([[2 * row[0], 2 * row[2]] for row in J],
            [[2 * (row[1] + row[3]), 2 * row[3]] for row in J])


def _inverse(A):
    """A^-1, the adjugate over the determinant; a singular A raises
    ZeroDivisionError."""
    (a, b), (c, d) = A
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def _product(X, Y):
    (a, b), (c, d) = X
    (e, f), (g, h) = Y
    return [[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]]


def _im_eigenvalues(B) -> tuple[float, float]:
    """Ascending eigenvalues of Im B from its lower triangle, as ``eigvalsh``
    reads it, in closed form: with m the mean of the diagonal and r =
    hypot((a - d)/2, b) they are m -+ r, of which the one on m's side adds
    without cancelling and the other is the determinant over it.  For a
    positive-definite Im B that is m + r and det / (m + r)."""
    a, d, b = B[0][0].imag, B[1][1].imag, B[1][0].imag
    m = 0.5 * (a + d)
    r = math.hypot(0.5 * (a - d), b)
    far = m + math.copysign(r, m)
    near = (a * d - b * b) / far if far else 0.0  # far is 0 on Im B = 0 alone
    return (near, far) if near <= far else (far, near)


def periods(moduli, nodes: int = DEFAULT_NODES,
            check_tol: float | None = None) -> PeriodData:
    """Normalized period matrix of the curve and its derivatives in (a, b,
    c), dB = C (dBraw - dA B), on the 2n-node rule of one pass, whose n-node
    rule estimates the quadrature error by node doubling.  A singular
    a-period matrix raises ZeroDivisionError."""
    _check_nodes(nodes)
    moduli = _validate_moduli(moduli)
    J_n, J, *dJ = interval_integrals(moduli, nodes).tolist()
    A, Braw = _cycles(J)
    C = _inverse(A)
    B = _product(C, Braw)
    A_n, Braw_n = _cycles(J_n)
    B_n = _product(_inverse(A_n), Braw_n)
    conv = worst_residual([abs(x - y) for row_n, row in zip(B_n, B)
                           for x, y in zip(row_n, row)])
    if check_tol is not None and conv > check_tol:
        raise NonConvergence(
            f"period matrix changed by {conv:.3e} under node doubling"
        )
    dB = []
    for dJ_e in dJ:
        dA, dBraw = _cycles(dJ_e)
        dAB = _product(dA, B)
        dB.append(_product(C, [[x - y for x, y in zip(*rows)] for rows in zip(dBraw, dAB)]))
    arrays = np.array([C, B, *dB])
    return PeriodData(
        moduli=moduli,
        C=arrays[0],
        B=arrays[1],
        dB=arrays[2:],
        symmetry_error=abs(B[0][1] - B[1][0]),
        im_eigenvalues=_im_eigenvalues(B),
        convergence_error=conv,
    )


@dataclass(frozen=True)
class RauchData:
    moduli: tuple[float, float, float]
    branch: int  # 0 -> a, 1 -> b, 2 -> c
    dB: np.ndarray  # the exact derivative of the period matrix in the branch point
    dB_predicted: np.ndarray
    max_rel_error: float


def _prediction(C, moduli, branch: int):
    """``rauch_prediction`` as nested lists, from C as nested lists."""
    e = moduli[branch]
    others = [x for i, x in enumerate(moduli) if i != branch]
    R = e * (e - 1.0) * (e - others[0]) * (e - others[1])
    w = [2.0 * (C[j][0] + C[j][1] * e) / cmath.sqrt(R) for j in range(2)]
    return [[1j * math.pi * w[j] * w[k] for k in range(2)] for j in range(2)]


def rauch_prediction(pd: PeriodData, branch: int) -> np.ndarray:
    """Variational formula at one branch point.

    In the local coordinate t with p = e + t^2 the normalized differential
    has value w_j = 2 (C[j,0] + C[j,1] e) / sqrt(R(e)) at the branch point,
    R(p) = quintic(p) / (p - e); the derivative of the period matrix in e
    is pi i w_j w_k.
    """
    return np.array(_prediction(pd.C.tolist(), pd.moduli, branch))


def _relative_error(dB, pred) -> float:
    """The largest |dB - pred| / max(|pred|, floor) over the entries, the
    floor 1e-12 of the largest |pred|, so the check scales with the curve.
    As numpy divides, a zero denominator reads inf (0/0 NaN), and a NaN
    entry makes it NaN: a vanishing or non-finite prediction fails."""
    pairs = [*zip(dB[0], pred[0]), *zip(dB[1], pred[1])]
    mags = [abs(y) for _, y in pairs]
    floor = 1e-12 * max(mags)
    errors = []
    for (x, y), mag in zip(pairs, mags):
        num, den = abs(x - y), max(mag, floor)  # a NaN mag stands first, so den keeps it
        errors.append(num / den if den else num * math.inf)
    return worst_residual(errors)


def rauch(moduli, branches=(0, 1, 2),
          nodes: int = DEFAULT_NODES) -> tuple[PeriodData, list[RauchData]]:
    """The period matrix and, at each branch point in ``branches``, its
    derivative there against the variational formula, both from one
    ``periods`` call."""
    if any(branch not in (0, 1, 2) for branch in branches):
        raise ConfigError("branch must be 0 (a), 1 (b) or 2 (c)")
    pd = periods(moduli, nodes)
    C, dB = pd.C.tolist(), pd.dB.tolist()
    pred = [_prediction(C, pd.moduli, branch) for branch in branches]
    rel = [_relative_error(dB[branch], p) for branch, p in zip(branches, pred)]
    return pd, [RauchData(pd.moduli, branch, pd.dB[branch], p, r)
                for branch, p, r in zip(branches, np.array(pred), rel)]


def rauch_check(moduli, branch: int, nodes: int = DEFAULT_NODES) -> RauchData:
    """``rauch`` at one branch point."""
    return rauch(moduli, (branch,), nodes)[1][0]
