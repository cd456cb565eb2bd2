"""Operator norms of dense truncated matrices, with certifying singular pairs.

The one norm routine, operator_norm, is restarted Lanczos on the normal
operator A^H A of an assembled matrix (Golub and Kahan, SIAM J. Numer.
Anal. B 2, 1965), from a fixed start: the top eigenvector of the Gram
matrix A^H A for a matrix of at most _KRYLOV = 32 rows, where a full
Lanczos basis would span the whole space, and all-ones above that.  A
Ritz estimate only says when to look: the value is returned with the
explicit residual certificate ||A^H u - sigma v|| of its pair, never on
an estimate.

The other side, a proven upper bound for callers that scale by the norm,
is bounds._norm_upper_bound: the bounds module proves every certified number.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _as_dense, _pow2_scaled
from .errors import DomainError, _real
from .operator import assemble, symbol_values

# operator_norm's default relative residual tolerance, and its iteration
# cap (read at call time)
NORM_TOL = 1e-10
NORM_MAX_ITER = 50000

# Lanczos basis size; a full basis restarts from the top Ritz vector
_KRYLOV = 32

# operator_norm iterates on A as given when ||A||_F lies in _FROB, and
# calls a start weak when its image is at most _WEAK ||A||_F; its
# docstring derives both from _SAFE
_SAFE = (2.0**-200, 2.0**200)
_FROB = (_SAFE[0] ** 0.25, _SAFE[1] ** 0.25)
_WEAK = _SAFE[0]


@dataclass
class SpectralReport:
    """Largest singular value with its certifying pair.

    converged is False when the pair did not certify: norm is then
    ||Av|| for the returned unit v, still a lower bound on ||A||.
    """

    norm: float
    leading_pair: tuple
    iterations: int
    residual: float
    converged: bool = True


def _norm(x):
    """Euclidean (Frobenius) norm of an array, as one dot product."""
    return math.sqrt(np.vdot(x, x).real)


def operator_norm(matrix, tol=NORM_TOL):
    """Largest singular value of a dense square matrix, with certificate.

    Restarted Lanczos on A^H A with full reorthogonalization (classical
    Gram-Schmidt, run twice), at most _KRYLOV basis vectors at a time.
    Deterministic: the start is chosen once, before the loop.  A matrix
    of at most _KRYLOV rows, on which a full basis would span the whole
    space, starts from the top eigenvector of its Gram matrix A^H A:
    one eigh in the matrix's own dtype, after the scaling below, not
    counted in iterations.  Its pair meets the residual test to rounding
    level, so such a matrix reports iterations = 1 unless tol is below
    what rounding allows, when the Lanczos loop below carries on from
    that vector.  A larger matrix starts from all-ones.  The residual
    certifies a singular pair, not the largest one: where all-ones is
    (nearly) orthogonal to the leading right singular vector, a smaller
    singular value can certify.

    Every cycle opens on its start vector v with the explicit pair
    u = Av/sigma, sigma = ||Av||, and returns when the residual
    ||A^H u - sigma v|| is at most tol*sigma; that residual is the one
    reported.  Otherwise the cycle extends its Krylov basis until the
    Ritz estimate beta_k |y_k| of the top Ritz pair drops to
    tol*theta/2, or the basis is full, or one product is left, and the
    next cycle opens on the top Ritz vector.  iterations counts the
    products with A^H A, at most NORM_MAX_ITER.  When the cap is hit, or
    a cycle opens on a residual no smaller than the previous cycle's (a
    tol below what rounding lets the pair reach), that cycle's pair is
    returned with converged False.
    All-ones gives way when its image is weak, at most _WEAK ||A||_F
    (the kernel included).  That image is then dropped uncounted, and
    the first cycle opens on e_k for A's largest column k, whose image
    A[:, k], of norm at least ||A||_F / sqrt(n), is read, not formed.
    The Gram start's image has norm about ||A|| >= ||A||_F / sqrt(n),
    and a restart's Ritz vector a Rayleigh quotient of at least the
    start's sigma^2, so neither is weak.  Each cycle's opening pair
    counts as one product.

    The scale is decided once, before the first product, from ||A||_F
    (as in Blue's safe Euclidean norm, ACM TOMS 4, 1978).  Outside
    _FROB = [2^-50, 2^50] a zero A reports 0, a non-finite entry is
    refused with a DomainError, and any other A moves to A 2^-e with its
    largest entry in [1/2, 1), so into _FROB; sigma and the residual are
    scaled back, and a norm past the float range is refused.  Within
    _FROB nothing overflows: each vector formed has norm at most
    2 max(||A||_F, ||A||_F^2) <= 2 _SAFE[1]^(1/2), so no square numpy
    sums comes near overflow.  A start that is not weak has
    sigma > _WEAK _FROB[0] = 2^-250, so sigma^2 and the squares at its
    pair's rounding level, (2^-53 sigma)^2 > 2^-606, stay normal.

    The iteration runs in the matrix's own dtype: a real matrix (integer
    or float entries, cast to float64) gives a float64 singular pair, a
    complex one complex128.  A^H x is formed through the transposed view,
    with no copy of the matrix.
    """
    if not 0.0 < _real(tol, "tolerance", low=-math.inf) <= 1e-4:
        raise DomainError(f"tolerance must lie in (0, 1e-4], got {tol}")
    arr = _as_dense(matrix)
    dim = arr.shape[0]
    if arr.shape != (dim, dim):
        raise DomainError(f"matrix must be square, got shape {arr.shape}")
    dtype = arr.dtype
    # inf or nan when an entry is, or when the sum of squares overflows
    frob, exp = _norm(arr), 0
    if not _FROB[0] <= frob <= _FROB[1]:
        arr, exp = _pow2_scaled(arr)
        frob = _norm(arr)
        if frob == 0.0:
            e0 = np.zeros(max(dim, 1), dtype=dtype)
            e0[0] = 1.0
            return SpectralReport(0.0, (e0, e0.copy()), 0, 0.0)
    weak = _WEAK * frob
    real = dtype.kind != "c"

    def adjoint(y):
        # A^H y through the transposed view, with no conjugated copy of A
        return arr.T @ y if real else np.conj(arr.T @ np.conj(y))

    if dim <= _KRYLOV:
        # a full basis would span the space: open on the top eigenvector
        # of the Gram matrix
        gram = arr.T @ arr if real else arr.conj().T @ arr
        v = np.linalg.eigh(gram)[1][:, -1].copy()
        w = arr @ v
    else:
        v = np.ones(dim, dtype) / np.sqrt(dim)
        w = arr @ v
        if _norm(w) <= weak:
            # a weak start, the kernel included: open on the largest column
            k = np.argmax(np.linalg.norm(arr, axis=0))
            v = np.zeros(dim, dtype=dtype)
            v[k] = 1.0
            w = arr[:, k]
    cap = min(_KRYLOV, dim)
    basis = np.empty((cap, dim), dtype=dtype)
    # the conjugated rows beside the basis: each projection is one product
    cbasis = basis if real else np.empty_like(basis)
    tri = np.zeros((cap, cap))
    max_iter = NORM_MAX_ITER
    it = 0
    sigma, u, residual, opened = 0.0, v, 0.0, np.inf

    def report(converged):
        try:
            norm, res = math.ldexp(sigma, exp), math.ldexp(residual, exp)
        except OverflowError:
            raise DomainError("operator norm exceeds the float64 range") from None
        return SpectralReport(norm, (u, v), it, res, converged)

    while it < max_iter:
        # cycle start: the explicit pair of v, whose product w opens the basis
        sigma = _norm(w)
        it += 1
        u = w / sigma
        z = adjoint(u)
        residual = _norm(z - sigma * v)
        if residual <= tol * sigma:
            return report(True)
        if it == max_iter or residual >= opened:
            # at the cap, or stalled at rounding level short of tol
            break
        opened = residual
        z *= sigma
        basis[0] = v
        if not real:
            np.conj(v, out=cbasis[0])
        for k in range(1, cap + 1):
            if k > 1:
                z = adjoint(arr @ basis[k - 1])
                it += 1
            # z = A^H A v_k, orthogonalized against the basis twice
            head, chead = basis[:k], cbasis[:k]
            for _ in range(2):
                h = chead @ z
                z -= h @ head
                tri[k - 1, k - 1] += h[-1].real
            beta = _norm(z)
            theta, y = np.linalg.eigh(tri[:k, :k])
            # the last product of the cap goes to the next cycle's pair
            if (beta * abs(y[-1, -1]) <= 0.5 * tol * theta[-1]
                    or k == cap or it == max_iter - 1):
                break
            np.divide(z, beta, out=basis[k])
            if not real:
                np.conj(basis[k], out=cbasis[k])
            tri[k - 1, k] = tri[k, k - 1] = beta
        tri[:k, :k] = 0.0
        v = y[:, -1] @ basis[:k]
        v /= _norm(v)
        w = arr @ v
    return report(False)


@dataclass
class LowerBoundCheck:
    """op_norm >= l2_norm witness record for the contractive inclusion."""

    op_norm: float
    l2_norm: float
    ok: bool


def l2_lower_bound_check(symbol, n_max, prime_budget=None):
    """Check ||M_N(alpha)|| >= ||alpha restricted to the window||.

    The witness pair is a = conj(alpha)/||alpha|| on the window and
    b = e_1: the form then evaluates to the restricted l2 norm.
    op_norm is operator_norm's value, ||Av|| for a unit v, so it is a
    lower bound on ||M_N(alpha)|| whether or not its pair certified.
    """
    matrix = assemble(symbol, n_max, prime_budget)
    l2 = float(np.linalg.norm(symbol_values(symbol, matrix.indices)))
    report = operator_norm(matrix)
    return LowerBoundCheck(
        op_norm=report.norm,
        l2_norm=l2,
        ok=report.norm >= l2 - 1e-9,
    )
