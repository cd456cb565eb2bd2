"""The float64 rounding model, and every certified bound the library proves.

A solver proposes a candidate (a Lanczos value, a factored Newton point,
a singular pair); a function here proves a bound from it, rounding
included, with no loop run to convergence (Rump, Acta Numerica 19, 2010).
"""

import math

import numpy as np

from .errors import DomainError, _number_array
from .operator import HelsonMatrix

_UNIT = 2.0**-53


def _gamma(k):
    """The k-fold rounding factor k u / (1 - k u)."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _cholesky_slack(order):
    """g with lambda_min(M) >= -g trace(M) once Cholesky factors M of this order.

    Demmel's backward error gives g = gamma_{n+1} / (1 - gamma_{n+1}) (Rump,
    BIT 46, 2006), here at twice the real index, which covers complex entries.
    """
    g = _gamma(2 * order + 4)
    return g / (1.0 - g)


def _as_dense(matrix):
    """The entries as a 2-d array, unscanned: _pow2_scaled refuses non-finite ones."""
    if isinstance(matrix, HelsonMatrix):
        return matrix.entries
    arr = _number_array(matrix)
    if arr.ndim != 2:
        raise DomainError(f"matrix must be 2-dimensional, got shape {arr.shape}")
    return arr


def _pow2_scaled(arr):
    """(A 2^-e, e) with the largest entry of A 2^-e in [1/2, 1); exact.

    A zero or empty matrix comes back with e = 0.  A non-finite entry
    makes the largest modulus non-finite and is refused.
    """
    peak = float(np.abs(arr).max(initial=0.0))
    if not math.isfinite(peak):
        raise DomainError("matrix entries must be finite")
    exp = int(np.frexp(peak)[1])
    if arr.dtype.kind != "c":
        return np.ldexp(arr, -exp), exp
    return np.ldexp(arr.real, -exp) + 1j * np.ldexp(arr.imag, -exp), exp


def _norm_upper_bound(matrix, estimate=None):
    """Proven upper bound s >= ||A|| of a dense matrix (Rump, BIT 51, 2011).

    ||A|| <= s exactly when s^2 I - A^H A is positive semidefinite.  A
    Cholesky factorization of M = t I - fl(A^H A) that runs to completion
    proves lambda_min(M) >= -g trace(M), g the _cholesky_slack, so
    ||A||^2 <= t plus that term plus the rounding of the Gram product and
    of the diagonal shift.  A is first scaled by a power of two (exact) so
    that its largest entry lies in [1/2, 1), which refuses a non-finite
    entry; a zero Gram diagonal then means A = 0, with bound 0.  The
    result exceeds the dense-SVD norm by a relative O(n^2 u).

    Given an estimate of ||A|| (operator_norm's value, say), one
    factorization is tried at t = estimate^2 plus the excess below.
    Without one, or when that factorization fails, t starts just above
    the largest eigenvalue of fl(A^H A) and its excess grows fourfold
    while the factorization fails.  Any t that factors proves the bound:
    the estimate decides only the cost (one too low costs the eigenvalue
    pass) and, when too high, the tightness.
    """
    a, exp = _pow2_scaled(_as_dense(matrix))
    rows, dim = a.shape
    gram = a.conj().T @ a
    diag = gram.diagonal().real
    if not diag.any():
        return 0.0
    # ||fl(A^H A) - A^H A|| <= gamma ||A||_F^2, and ||A||_F^2 <= 2 trace
    gram_err = _gamma(2 * rows + 4) * 2.0 * float(diag.sum())
    # error terms relative to t, and an absolute floor for underflow
    rel = _cholesky_slack(dim) * dim + 4.0 * _UNIT

    def excess(top):
        return 2.0 * (rel * top + gram_err) + dim * 1e-290

    def factors(t):
        shifted = -gram
        shifted[np.diag_indices(dim)] = t - diag
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
        return True

    if estimate is not None:
        top = float(np.ldexp(estimate, -exp)) ** 2
        t = top + excess(top)
    if estimate is None or not factors(t):
        top = float(np.linalg.eigvalsh(gram)[-1])
        step = excess(top)
        while not factors(top + step):
            step *= 4.0
        t = top + step
    # trace(M) <= dim t; the shift rounds each diagonal entry by at
    # most u (t + diag_i); the Gram product errs by gram_err
    bound2 = t + rel * t + _UNIT * float(diag.max()) + gram_err + dim * 1e-290
    s = float(np.sqrt(bound2 * (1.0 + 4.0 * _UNIT))) * (1.0 + 4.0 * _UNIT)
    return float(np.ldexp(s, exp))


def _block_cholesky_bounds(dim):
    """(divisor, row cap) proven by factoring F = [[I, B], [B^H, I]], B dim x dim.

    A Cholesky factorization of F that runs to completion proves
    1 - ||B|| = lambda_min(F) >= -2 dim g, g the _cholesky_slack of order
    2 dim.  (dim + 4) u more covers dividing B by the divisor (sqrt(dim) u
    in norm) and rounding the sum.  ||B|| bounds each row norm, which a
    computed squared row norm exceeds by 1 + gamma_{2 dim + 1} at most;
    gamma_{2 dim + 8} also covers rounding the cap, so a row past it
    proves that no factorization of F runs to completion.
    """
    norm = 1.0 + 2 * dim * _cholesky_slack(2 * dim)
    return norm + (dim + 4) * _UNIT, norm**2 * (1.0 + _gamma(2 * dim + 8))


def _pair_margin(gaps):
    """Rounding margin of Re(u^H G v) / (|u| |v|) over the stack gaps of G = A - B_k.

    Two chained dot products of length dim (complex entries count twice)
    with the rounded G err by gamma_{4 dim + 4} |u| |v| ||G||_F, rounding
    A - B_k adds u of that, and doubling covers the division by |u| |v|.
    """
    dim = gaps.shape[-1]
    frob = np.linalg.norm(gaps.reshape(len(gaps), dim * dim), axis=1)
    return 2.0 * _gamma(4 * dim + 8) * float(frob.max())
