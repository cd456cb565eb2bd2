"""Operator norms of dense truncated matrices, with certifying singular pairs.

The one norm routine, operator_norm, is power iteration on the normal
operator A^H A of an assembled matrix, from the fixed all-ones start
unless the caller passes a warm start.  Each iterate carries a residual
certificate ||A^H u - sigma v||; an Aitken extrapolation of the Rayleigh
quotient handles near-degenerate leading pairs, where the value
converges long before the vectors settle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .operator import (
    HelsonMatrix,
    _float_array,
    assemble,
    symbol_values,
    truncation_indices,
)

SVD_DENSE_CAP = 512
NORM_MAX_ITER = 50000

# residual slack accepted when the Aitken gap says the value has
# converged but a near-degenerate pair keeps the vectors wandering
_DEGENERATE_RESIDUAL = 1e-6


@dataclass
class SpectralReport:
    """Largest singular value with its certifying pair."""

    norm: float
    leading_pair: tuple
    iterations: int
    residual: float

    def to_json(self):
        return {
            "value": self.norm,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _as_dense(matrix):
    if isinstance(matrix, HelsonMatrix):
        return matrix.entries
    arr = _float_array(matrix)
    if arr.ndim != 2:
        raise DomainError(f"matrix must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


def operator_norm(matrix, tol=1e-10, max_iter=NORM_MAX_ITER, start=None):
    """Largest singular value of a dense matrix, with certificate.

    Deterministic: starts from all-ones, or from start (a nonzero finite
    vector of length dim), e.g. the right singular vector of a nearby
    matrix.  The residual certifies a singular pair, not the largest one:
    a start (nearly) orthogonal to the leading right singular vector can
    certify a smaller singular value.

    Stops when the residual ||A^H u - sigma v|| drops below tol*sigma, or
    when three consecutive Aitken gap estimates of the Rayleigh quotient
    sit below tol^2*lambda while the residual is merely small
    (near-degenerate leading pair: the value has converged though the
    vectors have not; the reported residual is then the value bound).
    Raises ConvergenceError with the best estimate attached when the
    iteration cap is hit.

    The iteration runs in np.result_type(matrix, start): a real matrix
    (integer or float entries, cast to float64) with a real or absent
    start gives a float64 singular pair, anything complex gives
    complex128.  For a real matrix A^H is a transposed view, not a copy.
    """
    if not (0.0 < tol <= 1e-4):
        raise DomainError(f"tolerance must lie in (0, 1e-4], got {tol}")
    arr = _as_dense(matrix)
    dim = arr.shape[0]
    if start is not None:
        start = _float_array(start)
        if start.shape != (dim,):
            raise DomainError(f"start must have shape ({dim},), got {start.shape}")
        if not np.all(np.isfinite(start)) or not start.any():
            raise DomainError("start must be a nonzero finite vector")
    dtype = arr.dtype if start is None else np.result_type(arr, start)
    arr = arr.astype(dtype, copy=False)
    if dim == 0 or not arr.any():
        e0 = np.zeros(max(dim, 1), dtype=dtype)
        e0[0] = 1.0
        return SpectralReport(0.0, (e0, e0.copy()), 0, 0.0)
    ah = arr.conj().T
    v = np.ones(dim, dtype) if start is None else start.astype(dtype, copy=False)
    v = v / np.linalg.norm(v)
    basis_tried = 0
    lam_prev2 = lam_prev = None
    aitken_hits = 0
    sigma = 0.0
    u = v.copy()
    residual = 0.0
    for it in range(1, max_iter + 1):
        w = arr @ v
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            # start vector in the kernel; walk the standard basis
            if basis_tried >= dim:
                u = np.zeros(dim, dtype=dtype)
                u[0] = 1.0
                return SpectralReport(0.0, (u, u.copy()), it, 0.0)
            v = np.zeros(dim, dtype=dtype)
            v[basis_tried] = 1.0
            basis_tried += 1
            continue
        u = w / sigma
        z = ah @ u
        residual = float(np.linalg.norm(z - sigma * v))
        if residual <= tol * sigma:
            return SpectralReport(sigma, (u, v), it, residual)
        lam = sigma * sigma
        if lam_prev2 is not None:
            # Rayleigh quotients of A^H A are nondecreasing up to roundoff;
            # the Aitken gap estimates how much of lambda is still to come
            noise = 1e-15 * lam
            d1 = lam - lam_prev
            d0 = lam_prev - lam_prev2
            if d1 >= -noise and d0 >= d1 - noise:
                d1 = max(d1, 0.0)
                d0 = max(d0, d1)
                gap = 0.0 if d1 == 0.0 else (
                    d1 * d1 / (d0 - d1) if d0 > d1 else np.inf
                )
                # certified bound on the value error, with a roundoff floor
                value_err = gap / (2.0 * sigma) + 1e-15 * sigma
                if value_err <= 0.5 * tol * sigma:
                    aitken_hits += 1
                    if aitken_hits >= 3 and residual <= _DEGENERATE_RESIDUAL * sigma:
                        return SpectralReport(sigma, (u, v), it, value_err)
                else:
                    aitken_hits = 0
            else:
                aitken_hits = 0
        lam_prev2, lam_prev = lam_prev, lam
        nz = np.linalg.norm(z)
        if nz == 0.0:
            # u - v pair is exact up to roundoff
            return SpectralReport(sigma, (u, v), it, residual)
        v = z / nz
    raise ConvergenceError(
        f"operator norm did not certify within {max_iter} iterations "
        f"(residual {residual:.3e})",
        best=SpectralReport(sigma, (u, v), max_iter, residual),
        iterations=max_iter,
    )


def singular_values(matrix, dense_cap=SVD_DENSE_CAP):
    """All singular values, descending; dense LAPACK route below the cap."""
    arr = _as_dense(matrix)
    if arr.shape[0] > dense_cap:
        raise DomainError(
            f"singular_values capped at {dense_cap} rows, got {arr.shape[0]}"
        )
    return np.linalg.svd(arr, compute_uv=False)


@dataclass
class LowerBoundCheck:
    """op_norm >= l2_norm witness record for the contractive inclusion."""

    op_norm: float
    l2_norm: float
    ok: bool


def l2_lower_bound_check(symbol, n_max, prime_budget=None, tol=1e-10):
    """Check ||M_N(alpha)|| >= ||alpha restricted to the window||.

    The witness pair is a = conj(alpha)/||alpha|| on the window and
    b = e_1: the form then evaluates to the restricted l2 norm.
    """
    indices = truncation_indices(n_max, prime_budget)
    l2 = float(np.linalg.norm(symbol_values(symbol, indices)))
    report = operator_norm(assemble(symbol, n_max, prime_budget), tol=tol)
    return LowerBoundCheck(
        op_norm=report.norm,
        l2_norm=l2,
        ok=report.norm >= l2 - 1e-9,
    )
