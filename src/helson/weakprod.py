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
representation of equal cost.

Its dual is M_0* = X on the window: max Re (beta, c) subject to
||M_N(beta)|| <= 1, a small semidefinite program in the class values
beta.  xnorm solves it by the barrier method (Boyd and Vandenberghe,
Convex Optimization, 11.3), with Newton steps on the self-concordant
barrier log det [[I, B], [B^H, I]] (ibid., 9.6) whose length a
backtracking line search picks (ibid., Algorithm 9.2), and reads a
primal X off each Newton direction (dual scaling: Benson, Ye and Zhang,
SIAM J. Optim. 10, 2000).  Every step brackets the value from both
sides, and the solver stops on the width of that bracket; the lower end
scales beta by a norm bound that the Cholesky factorization of
[[I, B], [B^H, I]] at the step's new point proves (the bounds module).

The solver works on the window indices S whose prime factors all divide
some point of supp(c).  The paper notes that its results hold for small
Hankel operators on the polydisk H^2(D^d); on a window this makes the
program exact on S, because ij has its primes in that set exactly when i
and j do.  S is the operator.Window sub-window that Window.smooth_over
picks, and its product classes carry every class sum of the solver.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _complex, _integer, _integer_array, _number_array, _real
from .core import Sequence, _index, dirichlet_convolve
from .operator import ArraySymbol, Window, assemble, bilinear_pair
from .sieve import factor_pairs
from .bounds import _block_cholesky_bounds, _norm_upper_bound
from .spectral import operator_norm

# the barrier weight t grows by this factor once a Newton step is
# centred, i.e. its Newton decrement is at most _CENTRED; over 42 random
# programs, growth 8 to 128 and centring 0.25 to 1 took 673 to 1084
# line-searched Newton steps in all, fewest at (64, 1)
_T_GROWTH = 64.0
_CENTRED = 1.0


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

    def value(self):
        """sum_k a_k * b_k: one class sum per convolution, then one for the total."""
        return Sequence._sum(dirichlet_convolve(a, b) for a, b in self.pairs)


def rep_cost(rep):
    """Cost of a Representation (or bare list of sequence pairs)."""
    if not isinstance(rep, Representation):
        rep = Representation(tuple(rep))
    return rep.cost()


@dataclass
class XNormConfig:
    """Stopping rule of xnorm.

    tol, a positive finite real, is the absolute certified gap at which
    the solver stops: ||X||_* - |(beta, c)| / ||M_N(beta)|| <= tol.
    max_iter, an integer >= 1, caps the number of Newton steps.  A bool
    is neither.
    """

    tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        _real(self.tol, "tolerance")
        _integer(self.max_iter, "max_iter", 1)


@dataclass
class XNormResult:
    """Primal value with the optimal window matrix and dual certificate.

    value is the nuclear norm of the exactly feasible matrix, an upper
    bound; value - primal_dual_gap = |(certificate, c)| is a lower bound,
    since the certificate is scaled by a proven upper bound on its
    operator norm.  iterations counts Newton steps.  converged is False
    when the solver stopped before the gap reached the tolerance: at its
    step cap, or on a step it could not factor.  Row i of matrix stands
    for index i of the window smooth_indices(N, d), the map that
    representation_from_matrix takes.
    """

    value: float
    matrix: np.ndarray
    certificate: Sequence
    primal_dual_gap: float
    iterations: int
    converged: bool = True


def xnorm(c, n_max, config=None, prime_budget=None):
    """Window X-norm of c with matrix, certificate, and gap.

    The window runs over indices 1..N (d-smooth under a budget), at most
    1024 of them; supp(c) may reach anywhere in the product set of the
    window, in particular up to N^2, as long as every support point is a
    product of two window indices, and in the sieve's range, since it is
    factored.  Larger windows only add decompositions, so the value is
    nonincreasing in N.

    The program is solved on the window indices S whose primes all lie
    in the set P of primes dividing supp(c), and the matrix is padded
    with exact zeros back to the full window, rows x rows (N x N with no
    budget).  S is generated, not sieved: the products of powers of the
    primes of P up to N, the monomials of the |P|-variable polydisk, kept
    where they lie in the window (which a prime budget may thin;
    Window.smooth_over).  This reduction is exact (the
    polydisk remark of the paper): ij is P-smooth exactly when i and j
    are, so every class of a P-smooth n lies in S x S and no other class
    meets it; compressing a feasible X to S x S keeps it feasible without
    raising ||X||_*, and M_N(beta) for beta on S-products is M_S(beta)
    padded with zeros.

    Each step maximizes t Re (beta, c) + log det F over the real and
    imaginary parts y of beta, with F = [[I, B], [B^H, I]] and
    B = beta[labels], which is positive definite exactly when ||B|| < 1.
    With lam the Newton decrement, the damped Newton step dy / (1 + lam)
    keeps F positive definite; a backtracking line search tries longer
    steps alpha dy first, alpha a power of two from the least one at or
    above 4 / (1 + lam), capped at 1, halving while alpha > 1 / (1 + lam).
    It takes the first at which F factors and the barrier objective
    t Re (beta, c) + 2 sum log L_ii, L the Cholesky factor of F, rises by
    at least alpha lam^2 / 4, and the damped step otherwise; that factor
    opens the next step.  A trial whose B has a row past the row cap, which
    proves that F cannot factor, is refused without a factorization.
    t starts at 1 and grows by _T_GROWTH whenever lam <= _CENTRED.  With W = F^-1 the gradient is
    t (Re c, -Im c) + 2 (Re g, -Im g), g the class sums of W_21, and
    minus the Hessian is the form 2 Re(d^T R d) + 2 d^H G^T d with

        R[p, q] = sum_{(a,b) in p, (j,k) in q} W_21[j, a] W_21[b, k],
        G[p, q] = sum_{(a,b) in p, (j,k) in q} W_11[j, a] W_22[b, k].

    Column q of each is the class sum of one |S| x |S| matrix, for R
    W_21[J_q, :]^T W_21[:, K_q]^T with (J_q, K_q) the pairs of class q:
    one batched product over the classes and one segmented class sum
    (Window.pair_sums), in O(m |S|^2) memory for m classes (a
    class has at most |S| pairs).

    Each step also brackets the value.  X = -(2/t) (W - W dF W)_21, dF
    the change of F along the full Newton step, has class sums c up to
    rounding; projected onto them exactly, ||X||_* is an upper bound.
    The lower bound is |(beta, c)| / s (M_0* = X), s a proven bound on
    ||M_N(beta)|| = ||B||, read at each new point off the Cholesky
    factorization of F that the line search accepted: one that runs to
    completion proves
    1 - ||B|| = lambda_min(F) >= -g trace(F), so s = 1 + 2 |S| g rounded
    up (_block_cholesky_bounds), one constant per solve.  The best of each
    is kept, and the solver stops once they are at most config.tol apart.
    The bracket opens on the projected zero matrix, exactly feasible, and
    the zero certificate, so a c whose opening bracket is already that
    narrow (c = 0, say) takes no step.  A singular or overflowing Newton system, or
    a damped step whose F does not factor, ends the solve with the best
    bracket and converged False.
    """
    cfg = config or XNormConfig()
    window = Window.truncation(n_max, prime_budget)
    size = window.indices.size
    # a support point past the largest window product is no window
    # product: the representability check below refuses it unfactored
    top = int(window.indices[-1]) ** 2
    primes = {p for n in c.support if n <= top for p, _ in factor_pairs(n)}
    rows = window.smooth_over(primes)
    classes = Window(window.indices[rows])
    outside = c._keys[~np.isin(c._keys, classes.uniq, assume_unique=True)]
    if outside.size:
        raise DomainError(
            f"c({outside[0]}) is not representable as a product of two "
            f"window indices <= {n_max}"
        )

    labels = classes.labels
    dim = rows.size
    m = classes.uniq.size
    counts = classes.counts
    target = c.values(classes.uniq)
    # the certificate divisor and the squared row norm of B that refuses F
    bound, row_cap = _block_cholesky_bounds(dim)
    beta = np.zeros(m, dtype=np.complex128)
    f = np.eye(2 * dim, dtype=np.complex128)
    hess = np.empty((2 * m, 2 * m))
    t = 1.0
    # the projected zero matrix is exactly feasible, and beta = 0 pairs to 0
    best_x = (target / counts)[labels]
    upper = float(np.linalg.svd(best_x, compute_uv=False).sum())
    best_cert, lower = beta, 0.0

    def factor(b):
        """Cholesky factor of F at the class values b, None where F does not factor."""
        block = b[labels]
        if float((block.real**2 + block.imag**2).sum(axis=1).max()) > row_cap:
            return None
        f[:dim, dim:] = block
        f[dim:, :dim] = f[:dim, dim:].conj().T
        try:
            return np.linalg.cholesky(f)
        except np.linalg.LinAlgError:
            return None

    def barrier(b, chol):
        """t Re (b, c) + log det F, with chol the Cholesky factor of F at b."""
        return t * np.dot(b, target).real + 2.0 * np.log(chol.diagonal().real).sum()

    chol = None
    it = 0
    while it < cfg.max_iter and upper - lower > cfg.tol:
        try:
            if chol is None:  # F = I at beta = 0
                chol = np.linalg.cholesky(f)
            inv_chol = np.linalg.inv(chol)
            w = inv_chol.conj().T @ inv_chol
            w11, w21, w22 = w[:dim, :dim], w[dim:, :dim], w[dim:, dim:]
            # R^T and G^T; minus the Hessian in the real coordinates
            # (Re d, Im d), filled block by block
            rt = classes.pair_sums(w21, w21)
            gt = classes.pair_sums(w11, w22)
            rt += rt.T
            gt *= 2.0
            hess[:m, :m] = rt.real + gt.real
            hess[m:, m:] = gt.real - rt.real
            hess[:m, m:] = -(rt.imag + gt.imag)
            hess[m:, :m] = hess[:m, m:].T
            v = t * target + 2.0 * classes.sums(w21)
            grad = np.concatenate([v.real, -v.imag])
            dy = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        with np.errstate(over="ignore"):
            lam2 = float(grad @ dy)
        if not (0.0 <= lam2 < math.inf):
            break
        it += 1
        step = dy[:m] + 1j * dy[m:]
        d_b = step[labels]
        x = (-2.0 / t) * (w21 - w22 @ d_b.conj().T @ w11 - w21 @ d_b @ w21)
        x += ((target - classes.sums(x)) / counts)[labels]
        nuclear = float(np.linalg.svd(x, compute_uv=False).sum())
        if nuclear < upper:
            upper, best_x = nuclear, x
        # backtrack on the power-of-two lengths down to the damped one,
        # which keeps F positive definite and is taken whenever it factors
        lam = math.sqrt(lam2)
        damped = 1.0 / (1.0 + lam)
        start = barrier(beta, chol)
        top = min(1.0, 2.0 ** math.ceil(math.log2(4.0 * damped)))
        for alpha in [a for a in (top, top / 2, top / 4) if a > damped] + [damped]:
            trial = beta + alpha * step
            chol = factor(trial)
            if chol is not None and (alpha == damped or
                                     barrier(trial, chol) >= start + alpha * lam2 / 4):
                break
        if chol is None:
            break
        beta = trial
        if lam <= _CENTRED:
            t *= _T_GROWTH
        cert = beta / bound
        pairing = float(abs(np.dot(cert, target)))
        if pairing > lower:
            lower, best_cert = pairing, cert

    matrix = np.zeros((size, size), dtype=np.complex128)
    matrix[np.ix_(rows, rows)] = best_x
    matrix.setflags(write=False)
    return XNormResult(
        value=upper,
        matrix=matrix,
        certificate=Sequence._from_arrays(classes.uniq, best_cert),
        primal_dual_gap=max(upper - lower, 0.0),
        iterations=it,
        converged=upper - lower <= cfg.tol,
    )

def representation_from_matrix(matrix, indices):
    """Representation read off an SVD: a_k = sqrt(s_k) u_k, b_k = sqrt(s_k) v_k.

    indices maps row i of the matrix to the integer it stands for; for an
    xnorm matrix it is the window smooth_indices(N, d), which under a
    prime budget is not 1..N.  The cost of the result equals the nuclear
    norm of the matrix (up to the rank cutoff, which drops singular
    values at or below 1e-13 times the largest), and its value
    reproduces the divisor-class sums.
    """
    mat = _number_array(matrix).astype(np.complex128, copy=False)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"matrix must be square, got shape {mat.shape}")
    if len(indices) != mat.shape[0]:
        raise DomainError("index map length does not match matrix size")
    keys = np.array([_index(n) for n in indices], dtype=np.int64)
    uu, s, vh = np.linalg.svd(mat, full_matrices=False)
    cutoff = 1e-13 * s[0] if s.size and s[0] > 0 else 0.0
    roots = np.sqrt(s[s > cutoff])
    return Representation(tuple(
        (Sequence._from_arrays(keys, root * uu[:, k]),
         Sequence._from_arrays(keys, root * vh[k].conj()))
        for k, root in enumerate(roots.tolist())
    ))


@dataclass
class DualityReport:
    """|(alpha, c)| against the product bound ||M_N(alpha)|| ||c||_X.

    iterations and converged are the xnorm result's Newton step count
    and flag: when False the bound rests on an unconverged weak-product
    value.
    """

    pairing: float
    bound: float
    ratio: float
    iterations: int
    converged: bool = True


def duality_gap(symbol, c, n_max, config=None, prime_budget=None):
    """Check |(alpha, c)| <= ||M_N(alpha)|| * xnorm_N(c).

    bound multiplies a proven upper bound on ||M_N(alpha)|| by the xnorm
    value, itself an upper bound, so it is an upper bound.  ratio =
    pairing/bound must never exceed 1 beyond certificate tolerance.  A
    zero bound means alpha vanishes on every window product, and xnorm
    refuses a c supported off them, so the pairing is then exactly 0 and
    so is ratio.
    """
    pairing = abs(bilinear_pair(symbol, c))
    matrix = assemble(symbol, n_max, prime_budget).entries
    # the Lanczos value, certified or not, places the bound's one Cholesky shift
    op = _norm_upper_bound(matrix, operator_norm(matrix).norm)
    xn = xnorm(c, n_max, config=config, prime_budget=prime_budget)
    bound = op * xn.value
    ratio = pairing / bound if bound else 0.0
    return DualityReport(pairing=pairing, bound=bound, ratio=ratio,
                         iterations=xn.iterations, converged=xn.converged)


@dataclass(frozen=True)
class GeometricDecay(ArraySymbol):
    """a(n) = coeff * ratio^n, n >= 1: an infinite sequence with a certified tail.

    Evaluates like a symbol fixture, and carries the exact l2 norm and
    the tail norms that split_sequence cuts it by.
    """

    ratio: float
    coeff: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ratio", _real(self.ratio, "geometric ratio", 1.0))
        object.__setattr__(self, "coeff", _complex(self.coeff, "geometric coefficient"))
        if not math.isfinite(self.norm()):
            raise DomainError(f"geometric norm must be finite, got coeff {self.coeff}")

    @property
    def spec(self):
        return f"geometric:{self.ratio:g}"

    def values(self, ns):
        # float_power rounds each power as Python's ratio ** n does
        return self.coeff * np.float_power(self.ratio, _integer_array(ns, 1))

    def norm(self):
        return self.tail_norm(0)

    def tail_norm(self, m):
        """||a - a^m|| for the prefix cut at m >= 0."""
        q = self.ratio
        # 1 - q is exact for q >= 1/2, where 1 - q q cancels as q -> 1
        return (abs(self.coeff) * q ** (_integer(m, "cut point", 0) + 1)
                / math.sqrt((1.0 - q) * (1.0 + q)))

    def prefix(self, m):
        ns = np.arange(1, _integer(m, "cut point", 0) + 1, dtype=np.int64)
        return Sequence._from_arrays(ns, self.values(ns))

    def _cut_points(self, delta, window):
        """0 and the distinct dyadic cut points m_k of split_sequence, ascending.

        From K with 2^(-K+1) <= delta/2 on, m_k is the least m >= m_(k-1)
        with tail_norm(m) = norm() ratio^m <= 2^-k.  The estimate m >=
        log(2^-k / norm()) / log(ratio) takes log 2^-k as -k log 2, finite
        where 2^-k underflows to 0 past k = 1074 (the cut is then where the
        tail underflows).  tail_norm is nonincreasing but rounds in steps
        (coarse ones where its power is subnormal), so the estimate is
        bracketed by doubling steps and bisected.  The schedule stops once
        a cut reaches the window or the tail is exactly 0.
        """
        cuts = [0]
        for k in itertools.count(max(1, math.ceil(math.log2(4.0 / delta)))):
            m, threshold = cuts[-1], 2.0**-k
            if m >= window or self.tail_norm(m) == 0.0:
                return cuts
            if self.tail_norm(m) > threshold:
                estimate = (-k * math.log(2.0) - math.log(self.norm())) / math.log(self.ratio)
                lo, hi, step = m, max(m + 1, math.ceil(estimate)), 1
                while self.tail_norm(hi) > threshold:
                    lo, hi, step = hi, hi + step, 2 * step
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (mid, hi) if self.tail_norm(mid) > threshold else (lo, mid)
                cuts.append(hi)


def split_sequence(a, delta, window=None):
    """Split a into blocks with disjoint index windows and small norm excess.

    A finite Sequence is its own single block (its tail is exactly 0
    past the last support point, so every cut constraint is met at
    once).  A GeometricDecay is cut on the dyadic schedule of its
    _cut_points, and its blocks are its entries on (m_(k-1), m_k], the
    last one cut off at the window, from one values call; a block with
    no nonzero entry is dropped.  The block norms then sum to less than
    ||a|| + delta.
    """
    delta = _real(delta, "delta")
    if isinstance(a, Sequence):
        return [a] if a else []
    if not isinstance(a, GeometricDecay):
        raise DomainError("split_sequence needs a finite Sequence or a GeometricDecay, "
                          f"got {type(a).__name__}")
    window = _integer(window, "window", 1)

    cuts = a._cut_points(delta, window)
    # index n sits at position n - 1, so block (lo, hi] is the slice [lo:hi]
    ns = np.arange(1, min(cuts[-1], window) + 1, dtype=np.int64)
    vals = a.values(ns)
    blocks = (Sequence._from_arrays(ns[lo:hi], vals[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))
    return [block for block in blocks if block]


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
        # bare pair lists may mix Sequences with GeometricDecays, which
        # the strict Representation type cannot hold
        pairs = tuple((a, b) for a, b in rep)
    eps = _real(eps, "eps")
    window = _integer(window, "window", 1)

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
