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
off and rescaling to operator norm 1 yields the dual certificate beta
with |(beta, c)| = value at the optimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolation
from .core import Sequence, bilinear_pair, dirichlet_convolve
from .operator import assemble, product_classes, symbol_values, truncation_indices
from .spectral import operator_norm


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
    """Alternating-direction solver knobs for xnorm."""

    rho: float = 1.0
    tol: float = 1e-8
    max_iter: int = 20000
    cert_tol: float = 1e-10

    def __post_init__(self):
        if self.rho <= 0 or self.tol <= 0 or self.cert_tol <= 0:
            raise DomainError("rho and tolerances must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


@dataclass
class XNormResult:
    """Primal value with the optimal window matrix and dual certificate.

    converged is False when ADMM stopped at its iteration cap or when the
    certificate's operator norm did not certify (certified is False).  In
    the second case the certificate is scaled by the power iteration's
    best estimate, which may lie below its norm, so the certificate may
    be infeasible and pairing and gap rest on it.
    """

    value: float
    matrix: np.ndarray
    certificate: Sequence
    primal_dual_gap: float
    iterations: int
    converged: bool = True
    certified: bool = True

    def to_json(self):
        return {
            "value": self.value,
            "gap": self.primal_dual_gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "certified": self.certified,
            "certificate": [[n, v.real, v.imag] for n, v in self.certificate.items()],
        }


def xnorm(c, n_max, config=None, prime_budget=None):
    """Window X-norm of c with matrix, certificate, and gap.

    The window runs over indices 1..N (d-smooth under a budget); supp(c)
    may reach anywhere in the product set of the window, in particular
    up to N^2, as long as every support point is a product of two window
    indices.  Larger windows only add decompositions, so the value is
    nonincreasing in N.
    """
    cfg = config or XNormConfig()
    classes = product_classes(truncation_indices(n_max, prime_budget))
    size = len(classes.indices)
    support = np.array(c.support, dtype=np.int64)
    outside = support[~np.isin(support, classes.uniq)]
    if outside.size:
        raise DomainError(
            f"c({outside[0]}) is not representable as a product of two window "
            f"indices <= {n_max}"
        )

    if not c:
        return XNormResult(
            value=0.0,
            matrix=np.zeros((size, size), dtype=np.complex128),
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

    rho = cfg.rho
    z = np.zeros((size, size), dtype=np.complex128)
    u = np.zeros_like(z)
    converged = False
    iterations = cfg.max_iter
    for it in range(1, cfg.max_iter + 1):
        x = project_affine(z - u)
        w = x + u
        uu, s, vh = np.linalg.svd(w, full_matrices=False)
        s = np.maximum(s - 1.0 / rho, 0.0)
        z_new = (uu * s) @ vh
        dual_res = rho * float(np.linalg.norm(z_new - z))
        r = x - z_new
        primal_res = float(np.linalg.norm(r))
        z = z_new
        u += r
        if dual_res < cfg.tol and primal_res < cfg.tol:
            converged = True
            iterations = it
            break

    x = project_affine(z - u)  # exactly feasible by construction
    value = float(np.linalg.svd(x, compute_uv=False).sum())
    x.setflags(write=False)

    # the scaled dual is constant on product classes; read it off, flip
    # the conjugation to match the bilinear pairing, renormalize
    means = class_sums(u.conj()) / counts
    beta_raw = Sequence(zip(classes.uniq.tolist(), means))
    certificate = Sequence()
    certified = True
    if beta_raw:
        try:
            cert_norm = operator_norm(means[labels], tol=cfg.cert_tol).norm
        except ConvergenceError as err:
            # keep the result: scale by the best estimate, flag it unconverged
            cert_norm = err.best.norm
            certified = converged = False
        if cert_norm > 1e-300:
            certificate = (1.0 / (cert_norm * (1.0 + 1e-9))) * beta_raw
    pairing = abs(bilinear_pair(certificate, c))
    gap = abs(value - pairing)
    return XNormResult(
        value=value,
        matrix=x,
        certificate=certificate,
        primal_dual_gap=gap,
        iterations=iterations,
        converged=converged,
        certified=certified,
    )


def representation_from_matrix(matrix, indices=None, rel_cutoff=1e-13):
    """Representation read off an SVD: a_k = sqrt(s_k) u_k, b_k = sqrt(s_k) v_k.

    The cost of the result equals the nuclear norm of the matrix (up to
    the rank cutoff), and its value reproduces the divisor-class sums.
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
    cutoff = rel_cutoff * s[0] if s.size and s[0] > 0 else 0.0
    for k in range(len(s)):
        if s[k] <= cutoff:
            break
        root = math.sqrt(s[k])
        a_k = Sequence({n: root * uu[i, k] for i, n in enumerate(indices)})
        b_k = Sequence({n: root * np.conj(vh[k, i]) for i, n in enumerate(indices)})
        pairs.append((a_k, b_k))
    return Representation(tuple(pairs))


def xnorm_certificate_check(c, beta, claimed, n_max, tol=1e-6, prime_budget=None):
    """True iff beta certifies ||c||_X >= claimed - tol on the window.

    Requires ||M_N(beta)|| <= 1 + tol and |(beta, c)| >= claimed - tol.
    """
    top = n_max * n_max
    for n in beta.support:
        if n > top:
            raise DomainError(
                f"certificate index {n} outside the window [1, {top}]"
            )
    if beta:
        norm = operator_norm(assemble(beta, n_max, prime_budget), tol=1e-10).norm
    else:
        norm = 0.0
    if norm > 1.0 + tol:
        return False
    return abs(bilinear_pair(beta, c)) >= claimed - tol


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

    ratio = pairing/bound is 0 when the pairing vanishes and must never
    exceed 1 beyond certificate tolerance.
    """
    alpha = Sequence(zip(c.support, symbol_values(symbol, c.support).tolist()))
    pairing = abs(bilinear_pair(alpha, c))
    op = operator_norm(assemble(symbol, n_max, prime_budget), tol=1e-10).norm
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
    for k, (a_k, b_k) in enumerate(pairs, start=1):
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
