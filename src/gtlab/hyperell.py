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
of one array pass over the n-node and the 2n-node rule side by side: J on
the n nodes, J and its derivatives on the 2n, and a first-order rounding
bound on each J.  The 2x2 algebra after it is Python arithmetic on complex
scalars, since a numpy or LAPACK call on a 2x2 costs far more than its flops.

The node count comes from the curve.  In x = 2 theta / pi a gap's integrand
is analytic inside the Bernstein ellipse through its nearest other branch
point, so Gauss-Legendre's error falls like rho^(-2n) (Trefethen,
"Approximation Theory and Approximation Practice", ch. 19), and
``periods`` starts at n = ln(1e16) / (2 ln rho) for the slowest gap, rounded
up to a multiple of 8 and at least 24, with ``nodes`` the cap.  B on the n
nodes and B on the 2n must agree within their rounding bounds, carried
through the 2x2 algebra; where they do not, n doubles up to the cap.  On
every curve the tests draw, near collisions too, the first pass agrees.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .core import worst_residual
from .errors import ConfigError

PHASES = np.array([1, 1j, -1, -1j])  # 1/q's phase 1/i^(4-k) on the k-th gap
_ROW_PHASES = np.array([PHASES] * 5 + [np.ones(4)] * 2)[:, None]  # J's rows, then their bounds
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

DEFAULT_NODES = 200  # the cap on a job's node count
MIN_NODES = 24  # kernel.gauss_legendre takes one recurrence pass from 24 nodes
# a pass at n builds an n- and a 2n-node rule (kernel.gauss_legendre, O(n^2)
# array work) and sums over both; a job starts at the count its curve calls
# for (24 on the benchmark's curves, 80 to 104 with two branch points 1.1e-3
# apart) and doubles only up to the cap.  At n = MAX_NODES: 9.5-12.7 ms for
# the rules, and 0.9-1.2 ms for the pass, its rounding bound and the 2x2
# algebra (``rauch``, rules cached); a ladder from 24 to 1000 that never
# agrees, 7 passes with their rules, 25-35 ms; on a 2-vCPU host (Python 3.11,
# numpy 2.4).  The bound keeps a job small.
MAX_NODES = 1000
_LN_1E16 = math.log(1e16)

_U = 2.0**-53  # unit roundoff
_NODE_ERROR = 2e-16  # |x - root| of kernel.gauss_legendre, pinned in tests/test_kernel.py
# |d sin theta| at any node: theta = pi/2 x is off by pi/2 |dx| and 2 u |theta|
# (cos theta <= 1, |theta| <= pi/2), and sin rounds by one ulp
_D_SIN = 0.5 * math.pi * _NODE_ERROR + math.pi * _U + 2 * _U


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


def _predicted_nodes(moduli) -> float:
    """n = ln(1e16) / (2 ln rho) for the slowest gap, where Gauss's error
    rho^(-2n) reaches 1e-16.  In x = 2 theta / pi the gap's nearest other
    branch point, always a neighbour, sits at x = 1 + i y, y = (2/pi) acosh
    t, t its distance from the gap's middle in half widths, and the
    Bernstein ellipse through it has ln rho = acosh((|x - 1| + |x + 1|) / 2),
    which grows with t.  A branch point that rounds onto a gap's end gives
    rho = 1 and inf, and no value raises."""
    es = (-math.inf, 0.0, 1.0, *moduli, math.inf)
    t = min(min(lo + hi - 2 * left, 2 * right - lo - hi) / (hi - lo)
            for left, lo, hi, right in zip(es, es[1:], es[2:], es[3:]))
    y = 2 / math.pi * math.acosh(max(t, 1.0))
    log_rho = math.acosh(0.5 * (y + math.hypot(2.0, y)))
    return _LN_1E16 / (2 * log_rho) if log_rho else math.inf


@functools.lru_cache(maxsize=8)
def _theta_rule(nodes: int) -> tuple[np.ndarray, ...]:
    """(sin theta, weight) of ``kernel.gauss_legendre``'s n-node rule and then
    its 2n-node rule, 3n nodes, mapped to theta in [-pi/2, pi/2]; on the
    2n-node rule's nodes the columns (1, dp), 2n x 3, with dp = ((1 - sin
    theta)/2, (1 + sin theta)/2) how p = mid + half sin theta moves with the
    gap's two ends; and the columns 3n x 4 of each rule's nodes (1 on them)
    and of a term's relative rounding on each rule (``interval_integrals``).
    Read-only, and built once per node count, so a rauch job builds each
    rule once."""
    rules = kernel.gauss_legendre(nodes), kernel.gauss_legendre(2 * nodes)
    x, w = map(np.concatenate, zip(*rules))
    sin_th = np.sin(0.5 * math.pi * x)
    coarse = np.arange(3 * nodes) < nodes
    fine = ~coarse
    # the weight: a node dx off its root moves it by 2|x| dx / (1 - x^2), the
    # roundings of 1 - x^2 by 3 u / (1 - x^2), the recurrence by 2 m u (m the
    # rule's nodes) and its five operations and pi/2 by 6 u; the three factors
    # p - e, their product, sqrt and the quotient 5.5 u, p^1 u more; numpy's
    # pairwise sum 26 u in a block of 128 and u per halving above it
    m = np.where(coarse, nodes, 2 * nodes)
    term = ((2 * np.abs(x) * _NODE_ERROR + 3 * _U) / (1 - x * x)
            + (2 * m + 6 + 6.5 + 26 + np.ceil(np.log2(m))) * _U)
    on_fine = sin_th[nodes:]
    dots = np.stack([np.ones_like(on_fine), 0.5 - 0.5 * on_fine, 0.5 + 0.5 * on_fine], -1)
    cols = np.stack([coarse, fine, coarse * term, fine * term], -1)
    rule = (sin_th, 0.5 * math.pi * w, dots, cols)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def interval_integrals(moduli, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """J[j, k] = integral of p^j dp / q over the k-th gap, (2, 4), for the
    triple (a, b, c), validated before the rule is read, stacked (7, 2, 4):
    J on the n-node rule, then J and dJ/da, dJ/db, dJ/dc on the 2n-node
    rule, then a first-order bound on |J - exact| from rounding alone on
    each rule (real).  The four gaps are the rows of one (4, 3n) pass over
    both rules."""
    es = (0.0, 1.0, *_validate_moduli(moduli))
    sin_th, wt, dots, cols = _theta_rule(nodes)
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
        ds = s / f  # 2 ds/de_o
        terms = np.concatenate([ds, ds * p, sp.reshape(2, 4, -1)])  # (8, 4, 3n)
        # on the 2n nodes alone: a product over all 3n with zeros on the n
        # read the worst rauch residual of seeds 101-110 at 7.6e-14, not 3.2e-14
        sums = terms[:7, :, nodes:] @ dots
        bound = terms @ cols
        # rounding: a term's own error (the last two columns), and p's error
        # dp, at most half |d sin theta| + 4 u c, which moves each factor p - e_o
        # by dp / |p - e_o| relative, half of it through the square root, and
        # the p^1 term by dp; p - e_o keeps one sign on the gap, so the sums
        # of s / |p - e_o| are those of the derivatives, on each rule
        dp = gap[1, :, 0, None] * _D_SIN + 4 * _U * es[-1]
        err = bound[6:, :, 2:] + 0.5 * dp * np.abs(bound[:6, :, :2]).reshape(2, 3, 4, 2).sum(1)
        err[1] += dp * bound[6, :, :2]
    dJ = _DERIVATIVES @ sums.transpose(1, 0, 2).reshape(4, 21, 1)
    return np.concatenate([J, J2, dJ.reshape(4, 3, 2).transpose(1, 2, 0),
                           err.transpose(2, 0, 1)]) * _ROW_PHASES


@dataclass(frozen=True)
class PeriodData:
    moduli: tuple[float, float, float]
    C: np.ndarray  # normalization: omega_j = sum_l C[j,l] p^l dp / q
    B: np.ndarray  # normalized period matrix, 2x2
    dB: np.ndarray  # dB/da, dB/db, dB/dc, 3x2x2
    symmetry_error: float
    symmetry_tol: float  # the rounding bound on |B_12 - B_21|
    im_eigenvalues: tuple[float, float]
    convergence_error: float  # the largest |B_n - B_2n| of the last pass
    convergence_tol: float  # its rounding bound
    predicted_nodes: float  # the count the slowest gap calls for, inf where none
    nodes: int  # n of the last pass, which sums at n and 2n
    passes: int
    gap: tuple[float, float] | None  # unconverged: the gap whose J moved most past its bound

    @property
    def nonpositive(self) -> int:
        """How many eigenvalues of Im B are not > 0; a NaN is not."""
        return sum(not ev > 0 for ev in self.im_eigenvalues)

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


def _tolerances(A, Braw, C, B, err_n, err) -> tuple[float, float]:
    """(the convergence and the symmetry tolerance): first-order bounds on
    the largest |B_n - B| and on |B_12 - B_21| from the bounds err_n and err
    on |J - exact| on the two rules.  Entrywise, each B is within
    |C| (dBraw + dA |B|) + 12 u |C||A||C||Braw| + 4 u |C||Braw| of the exact
    one, with dA = err V_A + u |A| and dBraw = err V_B + u |Braw| (one
    rounded addition); the adjugate rounds C by at most 12 u |C||A||C| and
    C Braw adds 4 u |C||Braw|.  That is |C| (err V_B + (err V_A) |B| + u Q),
    Q = 5 |Braw| + |A| (|B| + 12 |C||Braw|), and the two rules' bounds add
    as their errs do.  The 2n-node rule's C and B stand in for the n-node
    rule's, which differ by its truncation."""
    aC, aA, aBraw, aB = ([[abs(x), abs(y)] for x, y in M] for M in (C, A, Braw, B))
    Q = _product(aA, [[x + 12 * y for x, y in zip(*rows)]
                      for rows in zip(aB, _product(aC, aBraw))])
    (b00, b01), (b10, b11) = aB

    def carried(e, k):  # |C| (e V_B + (e V_A) |B| + k Q), k = u per rule
        return _product(aC, [[2 * (e1 + e3 + e0 * b00 + e2 * b10) + k * (5 * r0 + q0),
                              2 * (e3 + e0 * b01 + e2 * b11) + k * (5 * r1 + q1)]
                             for (e0, e1, e2, e3), (r0, r1), (q0, q1) in zip(e, aBraw, Q)])

    both = carried([[x + y for x, y in zip(*rows)] for rows in zip(err_n, err)], 2 * _U)
    fine = carried(err, _U)
    return max(max(row) for row in both), fine[0][1] + fine[1][0]


def _ladder(predicted: float, cap: int):
    """The node counts ``periods`` tries in turn: the predicted count rounded
    up to a multiple of 8 and at least ``MIN_NODES``, so that every rule
    takes one recurrence pass and few sizes recur, then doubled, all at most
    ``cap``, which ends the ladder."""
    n = min(cap, max(MIN_NODES, 8 * math.ceil(predicted / 8))) if predicted < cap else cap
    while n < cap:
        yield n
        n = min(2 * n, cap)
    yield cap


def periods(moduli, nodes: int = DEFAULT_NODES) -> PeriodData:
    """Normalized period matrix of the curve and its derivatives in (a, b,
    c), dB = C (dBraw - dA B), on the 2n-node rule of one pass.  n climbs
    ``_ladder`` from the count the slowest gap calls for to the cap
    ``nodes`` while B on the n nodes and B on the 2n differ by their
    rounding bound or more; the last pass is reported, converged or not.  A
    singular a-period matrix raises ZeroDivisionError."""
    _check_nodes(nodes)
    moduli = _validate_moduli(moduli)
    predicted = _predicted_nodes(moduli)
    for passes, n in enumerate(_ladder(predicted, nodes), 1):
        stack = interval_integrals(moduli, n)
        J_n, J, *dJ = stack[:5].tolist()
        err_n, err = stack[5:].real.tolist()
        A, Braw = _cycles(J)
        C = _inverse(A)
        B = _product(C, Braw)
        A_n, Braw_n = _cycles(J_n)
        B_n = _product(_inverse(A_n), Braw_n)
        conv = worst_residual([abs(x - y) for row_n, row in zip(B_n, B)
                               for x, y in zip(row_n, row)])
        conv_tol, sym_tol = _tolerances(A, Braw, C, B, err_n, err)
        if not conv >= conv_tol:  # a NaN difference does not double
            break
    gap = None
    if not conv < conv_tol:
        es = (0.0, 1.0, *moduli)
        k = max(range(4), key=lambda k: max(abs(J_n[j][k] - J[j][k]) / (err_n[j][k] + err[j][k])
                                            for j in (0, 1)))
        gap = es[k], es[k + 1]
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
        symmetry_tol=sym_tol,
        im_eigenvalues=_im_eigenvalues(B),
        convergence_error=conv,
        convergence_tol=conv_tol,
        predicted_nodes=predicted,
        nodes=n,
        passes=passes,
        gap=gap,
    )


@dataclass(frozen=True)
class RauchData:
    moduli: tuple[float, float, float]
    branch: int  # 0 -> a, 1 -> b, 2 -> c
    dB: np.ndarray  # the exact derivative of the period matrix in the branch point
    dB_predicted: np.ndarray
    max_rel_error: float


def _prediction(C, moduli, branch: int):
    """Variational formula at one branch point, as nested lists from C as
    nested lists.

    In the local coordinate t with p = e + t^2 the normalized differential
    has value w_j = 2 (C[j,0] + C[j,1] e) / sqrt(R(e)) at the branch point,
    R(p) = quintic(p) / (p - e); the derivative of the period matrix in e
    is pi i w_j w_k.
    """
    e = moduli[branch]
    others = [x for i, x in enumerate(moduli) if i != branch]
    R = e * (e - 1.0) * (e - others[0]) * (e - others[1])
    w = [2.0 * (C[j][0] + C[j][1] * e) / cmath.sqrt(R) for j in range(2)]
    return [[1j * math.pi * w[j] * w[k] for k in range(2)] for j in range(2)]


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
