"""Weak-product (projective tensor) norm under Dirichlet convolution.

On a truncation window the norm

    ||c||_X = inf { sum_k ||a_k|| ||b_k|| : c = sum_k a_k * b_k }

becomes a constrained nuclear-norm program: a rank-one term a * b is the
matrix X(i,j) = a(i) conj(b(j)) with nuclear norm ||a|| ||b||, and the
divisor-class sums of X reproduce the convolution.  So

    ||c||_X (window N) = min { ||X||_* : sum_{ij=n} X(i,j) = c(n) },

one constraint per product class n, with c read as 0 off its support.
The classes partition the matrix entries, so the program is always
feasible, and any SVD of the optimal X converts back into a
representation of equal cost.  The X-step (affine projection) and the
Z-step (singular-value soft-thresholding) are both exact, which makes an
alternating-direction scheme the natural solver at desk scale.

The scaled dual variable of that scheme lives in the range of the
constraint adjoint, i.e. it is constant on divisor classes; reading it
off and dividing by a proven upper bound on its operator norm yields the
dual certificate beta, ||M_N(beta)|| <= 1, with |(beta, c)| -> value at
the optimum.  So every iterate brackets the value, and the solver stops
on the width of that bracket.

The solver works on the window indices S whose prime factors all divide
some point of supp(c).  The paper notes that its results hold for small
Hankel operators on the polydisk H^2(D^d); on a window this makes the
program exact on S, because ij has its primes in that set exactly when i
and j do.  The iteration is over-relaxed by the constant _RELAX = 1.6
(Boyd et al., FnTML 2011, 3.4.3), which cuts the iteration count by a
fifth to a third on the seed-7 test vector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolation
from .core import Sequence, bilinear_pair, dirichlet_convolve
from .operator import (
    _check_products,
    assemble,
    product_classes,
    symbol_values,
    truncation_indices,
)
from .sieve import factor_pairs, is_smooth_over, sieve_limit
from .spectral import _norm_upper_bound, operator_norm

# starting ADMM penalty rho: each step shrinks singular values by 1/rho
_RHO = 1.0

# xnorm brackets its value every _CHECK_EVERY iterations; each check
# costs two small SVD-sized factorizations, about two iterations
_CHECK_EVERY = 50

# over-relaxation: the Z-step reads _RELAX x + (1 - _RELAX) z in place of x
_RELAX = 1.6

# residual balancing: every _BALANCE_EVERY iterations rho is scaled by
# _BALANCE_TAU when one residual exceeds _BALANCE_MU times the other
_BALANCE_EVERY = 10
_BALANCE_MU = 10.0
_BALANCE_TAU = 2.0

# slack xnorm_certificate_check grants on both of its inequalities
CERT_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class Representation:
    """Finite list of pairs (a_k, b_k) standing for sum_k a_k * b_k."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((a, b) for a, b in self.pairs)
        for a, b in pairs:
            if not (isinstance(a, Sequence) and isinstance(b, Sequence)):
                raise DomainError("representation pairs must be Sequences")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self):
        return len(self.pairs)

    def cost(self):
        """sum_k ||a_k|| ||b_k||, an upper bound for ||value()||_X."""
        return float(sum(a.norm() * b.norm() for a, b in self.pairs))

    def value(self, window=None):
        """sum_k a_k * b_k, optionally truncated to [1, window]."""
        total = Sequence()
        for a, b in self.pairs:
            total = total + dirichlet_convolve(a, b, window=window)
        return total


def rep_cost(rep):
    """Cost of a Representation (or bare list of sequence pairs)."""
    if not isinstance(rep, Representation):
        rep = Representation(tuple(rep))
    return rep.cost()


@dataclass
class XNormConfig:
    """Alternating-direction solver knobs for xnorm.

    tol is the absolute certified gap at which the solver stops:
    ||X||_* - |(beta, c)| / ||M_N(beta)|| <= tol.
    """

    tol: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self):
        if self.tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


@dataclass
class XNormResult:
    """Primal value with the optimal window matrix and dual certificate.

    value is the nuclear norm of the exactly feasible matrix, an upper
    bound; value - primal_dual_gap = |(certificate, c)| is a lower bound,
    since the certificate is scaled by a proven upper bound on its
    operator norm.  converged is False when ADMM stopped at its
    iteration cap before the gap reached the tolerance.
    """

    value: float
    matrix: np.ndarray
    certificate: Sequence
    primal_dual_gap: float
    iterations: int
    converged: bool = True

    def to_json(self):
        return {
            "value": self.value,
            "gap": self.primal_dual_gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "certificate": [[n, v.real, v.imag] for n, v in self.certificate.items()],
        }


def _check_representable(seq, classes, n_max, name):
    """DomainError unless every support point of seq is a class of the window."""
    support = np.array(seq.support, dtype=np.int64)
    outside = support[~np.isin(support, classes.uniq, assume_unique=True)]
    if outside.size:
        raise DomainError(
            f"{name}({outside[0]}) is not representable as a product of two "
            f"window indices <= {n_max}"
        )


def xnorm(c, n_max, config=None, prime_budget=None):
    """Window X-norm of c with matrix, certificate, and gap.

    The window runs over indices 1..N (d-smooth under a budget); supp(c)
    may reach anywhere in the product set of the window, in particular
    up to N^2, as long as every support point is a product of two window
    indices.  Larger windows only add decompositions, so the value is
    nonincreasing in N.

    The program is solved on the window indices S whose primes all lie
    in the set P of primes dividing supp(c), and the matrix is padded
    with exact zeros back to N x N.  This reduction is exact (the
    polydisk remark of the paper): ij is P-smooth exactly when i and j
    are, so every class of a P-smooth n lies in S x S and no other class
    meets it; compressing a feasible X to S x S keeps it feasible without
    raising ||X||_*, and M_N(beta) for beta on S-products is M_S(beta)
    padded with zeros.

    Every _CHECK_EVERY iterations, and at the cap, the solver brackets
    the value: the projected iterate X is exactly feasible, so ||X||_*
    is an upper bound, and the class means beta of the scaled dual give
    the lower bound |(beta, c)| / ||M_N(beta)|| with a proven upper bound
    in the denominator (M_0* = X).  It stops once the bracket is at most
    config.tol wide.  The penalty rho starts at _RHO and is rebalanced
    every _BALANCE_EVERY iterations (Boyd et al., FnTML 2011, 3.4.1);
    the Z-step reads the iterate over-relaxed by _RELAX (ibid., 3.4.3).
    """
    cfg = config or XNormConfig()
    window = np.array(truncation_indices(n_max, prime_budget), dtype=np.int64)
    # the matrix is returned on the full window, which must fit the sieve
    _check_products(window)
    size = window.size
    # a support point past the sieve is no window product: the
    # representability check below refuses it
    limit = sieve_limit()
    primes = {p for n in c.support if n <= limit for p, _ in factor_pairs(n)}
    rows = np.flatnonzero(is_smooth_over(window, primes))
    classes = product_classes(window[rows].tolist())
    _check_representable(c, classes, n_max, "c")

    matrix = np.zeros((size, size), dtype=np.complex128)
    if not c:
        matrix.setflags(write=False)
        return XNormResult(
            value=0.0,
            matrix=matrix,
            certificate=Sequence(),
            primal_dual_gap=0.0,
            iterations=0,
            converged=True,
        )

    labels = classes.labels
    flat = labels.ravel()
    counts = np.bincount(flat)
    target = c.values(classes.uniq)
    # class n collects the real and imaginary parts of a matrix, read as
    # interleaved float64 pairs, in slots 2n and 2n + 1
    pair_labels = (2 * flat[:, None] + np.arange(2)).ravel()

    def class_sums(mat):
        # every label occurs, so the bincount has one (re, im) pair per
        # class; each class is summed in the same order as per component
        sums = np.bincount(pair_labels, mat.view(np.float64).ravel())
        return sums.view(np.complex128)

    def project_affine(mat):
        return mat + ((target - class_sums(mat)) / counts)[labels]

    def bracket(x, u):
        # the scaled dual is constant on product classes; read it off, flip
        # the conjugation to match the bilinear pairing, and divide by a
        # proven bound so that ||M_N(beta)|| <= 1
        means = class_sums(u.conj()) / counts
        bound = _norm_upper_bound(means[labels])
        beta = means / bound if bound > 0.0 else means
        upper = float(np.linalg.svd(x, compute_uv=False).sum())
        return upper, float(abs(np.dot(beta, target))), beta

    rho = _RHO
    z = np.zeros(labels.shape, dtype=np.complex128)
    u = np.zeros_like(z)
    converged = False
    for it in range(1, cfg.max_iter + 1):
        x = project_affine(z - u)
        x_hat = _RELAX * x + (1.0 - _RELAX) * z
        uu, s, vh = np.linalg.svd(x_hat + u, full_matrices=False)
        s = np.maximum(s - 1.0 / rho, 0.0)
        z_new = (uu * s) @ vh
        u += x_hat - z_new
        if it % _BALANCE_EVERY == 0:
            # the scaled dual u = y / rho follows rho
            primal_res = np.linalg.norm(x - z_new)
            dual_res = rho * np.linalg.norm(z_new - z)
            if primal_res > _BALANCE_MU * dual_res:
                rho *= _BALANCE_TAU
                u /= _BALANCE_TAU
            elif dual_res > _BALANCE_MU * primal_res:
                rho /= _BALANCE_TAU
                u *= _BALANCE_TAU
        z = z_new
        if it % _CHECK_EVERY == 0 or it == cfg.max_iter:
            upper, lower, beta = bracket(x, u)
            if upper - lower <= cfg.tol:
                converged = True
                break

    matrix[np.ix_(rows, rows)] = x
    matrix.setflags(write=False)
    return XNormResult(
        value=upper,
        matrix=matrix,
        certificate=Sequence(zip(classes.uniq.tolist(), beta)),
        primal_dual_gap=max(upper - lower, 0.0),
        iterations=it,
        converged=converged,
    )


def representation_from_matrix(matrix, indices=None):
    """Representation read off an SVD: a_k = sqrt(s_k) u_k, b_k = sqrt(s_k) v_k.

    The cost of the result equals the nuclear norm of the matrix (up to
    the rank cutoff, which drops singular values at or below 1e-13 times
    the largest), and its value reproduces the divisor-class sums.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"matrix must be square, got shape {mat.shape}")
    if indices is None:
        indices = tuple(range(1, mat.shape[0] + 1))
    if len(indices) != mat.shape[0]:
        raise DomainError("index map length does not match matrix size")
    uu, s, vh = np.linalg.svd(mat, full_matrices=False)
    pairs = []
    cutoff = 1e-13 * s[0] if s.size and s[0] > 0 else 0.0
    for k in range(len(s)):
        if s[k] <= cutoff:
            break
        root = math.sqrt(s[k])
        a_k = Sequence({n: root * uu[i, k] for i, n in enumerate(indices)})
        b_k = Sequence({n: root * np.conj(vh[k, i]) for i, n in enumerate(indices)})
        pairs.append((a_k, b_k))
    return Representation(tuple(pairs))


def xnorm_certificate_check(c, beta, claimed, n_max, prime_budget=None):
    """True iff beta certifies ||c||_X >= claimed - tol on the window.

    Requires ||M_N(beta)|| <= 1 + tol, checked on a proven upper bound of
    the norm, and |(beta, c)| >= claimed - tol, with tol = CERT_CHECK_TOL.
    The supports of c and beta must lie in the product set of the window
    (DomainError otherwise): the window program knows no other index.
    """
    classes = product_classes(truncation_indices(n_max, prime_budget))
    _check_representable(c, classes, n_max, "c")
    _check_representable(beta, classes, n_max, "beta")
    norm = _norm_upper_bound(beta.values(classes.uniq)[classes.labels])
    if norm > 1.0 + CERT_CHECK_TOL:
        return False
    return abs(bilinear_pair(beta, c)) >= claimed - CERT_CHECK_TOL


@dataclass
class DualityReport:
    """|(alpha, c)| against the product bound ||M_N(alpha)|| ||c||_X.

    converged is the xnorm result's flag: when False the bound rests on
    an unconverged weak-product value.
    """

    pairing: float
    bound: float
    ratio: float
    converged: bool = True


def duality_gap(symbol, c, n_max, config=None, prime_budget=None):
    """Check |(alpha, c)| <= ||M_N(alpha)|| * xnorm_N(c).

    bound multiplies a proven upper bound on ||M_N(alpha)|| by the xnorm
    value, itself an upper bound, so it is an upper bound.  ratio =
    pairing/bound is 0 when the pairing vanishes and must never exceed 1
    beyond certificate tolerance.
    """
    alpha = Sequence(zip(c.support, symbol_values(symbol, c.support).tolist()))
    pairing = abs(bilinear_pair(alpha, c))
    matrix = assemble(symbol, n_max, prime_budget).entries
    # the Lanczos value places the bound's one Cholesky shift
    try:
        estimate = operator_norm(matrix).norm
    except ConvergenceError as err:
        estimate = err.best.norm
    op = _norm_upper_bound(matrix, estimate)
    xn = xnorm(c, n_max, config=config, prime_budget=prime_budget)
    bound = op * xn.value
    if bound == 0.0:
        if pairing > 1e-12:
            raise InvariantViolation(
                f"pairing {pairing} with zero bound; duality is broken"
            )
        return DualityReport(pairing=pairing, bound=bound, ratio=0.0,
                             converged=xn.converged)
    return DualityReport(pairing=pairing, bound=bound, ratio=pairing / bound,
                         converged=xn.converged)


@dataclass(frozen=True)
class GeometricDecay:
    """Tail-certified generator a(n) = coeff * ratio^n, n >= 1.

    Provides the exact l2 norm and tail norms needed by split_sequence,
    and evaluates like a symbol fixture.
    """

    ratio: float
    coeff: complex = 1.0

    def __post_init__(self):
        r = float(self.ratio)
        if not (0.0 < r < 1.0):
            raise DomainError(f"geometric ratio must lie in (0, 1), got {r}")
        object.__setattr__(self, "ratio", r)
        object.__setattr__(self, "coeff", complex(self.coeff))

    @property
    def spec(self):
        return f"geometric:{self.ratio:g}"

    def value(self, n):
        if n < 1:
            raise DomainError(f"index must be >= 1, got {n}")
        return self.coeff * self.ratio**n

    def norm(self):
        q = self.ratio
        return abs(self.coeff) * q / math.sqrt(1.0 - q * q)

    def tail_norm(self, m):
        """||a - a^m|| for the prefix cut at m >= 0."""
        if m < 0:
            raise DomainError(f"cut point must be >= 0, got {m}")
        q = self.ratio
        return abs(self.coeff) * q ** (m + 1) / math.sqrt(1.0 - q * q)

    def prefix(self, m):
        return Sequence({n: self.value(n) for n in range(1, m + 1)})


_CUT_SEARCH_CAP = 10**7


def _cut_point(tail_norm, threshold, start):
    m = start
    while tail_norm(m) > threshold:
        m += 1
        if m > _CUT_SEARCH_CAP:
            raise DomainError(
                f"tail decays too slowly: no cut below {threshold} within "
                f"{_CUT_SEARCH_CAP} indices"
            )
    return m


def split_sequence(a, delta, window=None):
    """Split a into blocks with disjoint index windows and small norm excess.

    Finite Sequences are their own single block (their tail is exactly 0
    past the last support point, so every cut constraint is met at
    once).  Tail-certified generators follow the dyadic schedule: cut
    points m_k with tail(m_k) <= 2^-k starting from K with
    2^(-K+1) <= delta/2, continued until the blocks cover [1, window].
    The block norms then sum to less than ||a|| + delta.
    """
    if not (isinstance(delta, (int, float)) and delta > 0):
        raise DomainError(f"delta must be a positive real, got {delta!r}")
    if isinstance(a, Sequence):
        return [a] if a else []

    tail_norm = getattr(a, "tail_norm", None)
    prefix = getattr(a, "prefix", None)
    if tail_norm is None or prefix is None:
        raise DomainError(
            "split_sequence needs a finite Sequence or a generator with a "
            "certified tail bound (tail_norm/prefix)"
        )
    if window is None:
        raise DomainError("splitting a tail generator requires a window")
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")

    k = max(1, math.ceil(math.log2(4.0 / delta)))
    m_prev = _cut_point(tail_norm, 2.0**-k, 0)
    blocks = []
    head = prefix(m_prev)
    if head:
        blocks.append(head)
    while m_prev < window and tail_norm(m_prev) > 0.0:
        k += 1
        m_next = _cut_point(tail_norm, 2.0**-k, m_prev)
        if m_next > m_prev:
            piece = Sequence(
                {n: v for n, v in prefix(m_next).items() if n > m_prev}
            )
            if piece:
                blocks.append(piece)
            m_prev = m_next
    return blocks


def refine_representation(rep, eps, window):
    """Rebuild rep as a finite representation of its value on [1, window].

    Every a_k, b_k is split with a per-pair budget delta_k chosen so the
    total cost inflation stays below eps:

        delta_k = eps / (2^(k+1) (||a_k|| + ||b_k|| + 1)),

    which makes (||a_k||+delta_k)(||b_k||+delta_k) exceed ||a_k|| ||b_k||
    by at most eps 2^-(k+1).  Blocks are truncated to the window (indices
    past it cannot contribute to any product inside it).
    """
    if isinstance(rep, Representation):
        pairs = rep.pairs
    else:
        # bare pair lists may mix Sequences with tail generators, which
        # the strict Representation type cannot hold
        pairs = tuple((a, b) for a, b in rep)
    if not (isinstance(eps, (int, float)) and eps > 0):
        raise DomainError(f"eps must be a positive real, got {eps!r}")
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")

    out = []
    for k, (a_k, b_k) in enumerate(pairs, 1):
        if not (hasattr(a_k, "norm") and hasattr(b_k, "norm")):
            raise DomainError(f"pair {k} has no computable cost bound")
        weight = a_k.norm() + b_k.norm() + 1.0
        delta_k = min(1.0, eps / (2.0 ** (k + 1) * weight))
        if delta_k <= 0.0:
            raise DomainError(
                f"refinement budget underflows at pair {k}; eps={eps} is too "
                "small for floating point"
            )
        blocks_a = [blk.restrict(window) for blk in split_sequence(a_k, delta_k, window)]
        blocks_b = [blk.restrict(window) for blk in split_sequence(b_k, delta_k, window)]
        for blk_a in blocks_a:
            if not blk_a:
                continue
            for blk_b in blocks_b:
                if blk_b:
                    out.append((blk_a, blk_b))
    return Representation(tuple(out))
