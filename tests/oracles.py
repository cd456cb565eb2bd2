"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's solvers so that agreement is a
genuine cross-check:

* xnorm_oracle: alternating ridge minimization over explicit rank-R
  representations a_k * b_k with a penalty continuation on the class
  constraints and an exact least-squares feasibility polish.  Returns
  the best representation cost over random restarts.
* simplex_grid_search: dense sweep of the weight simplex at a fixed
  resolution, evaluating the objective with numpy's SVD.
* primes_upto, trial_factor, weighted_degree_reference,
  max_prime_index_reference: scalar multiplicative bookkeeping by a
  sieve of Eratosthenes and trial division, with no smallest-prime-factor
  table and no array walk.
* xnorm_certificate_check: the dual certificate of an xnorm value,
  checked on the dense SVD of M_N(beta) built entry by entry.
* hessian_reference: the class-pair sums R and G of xnorm's Newton
  system, bincounted term by term from the S^4 products W[j, a] W[b, k].
* wide_range_matrices: a hypothesis strategy for square real or complex
  matrices whose entries span many binades, for the scale tests of the
  norm routines.
* norm_at_most: the exact decision ||A|| <= s in rational arithmetic,
  against which the proven bounds are checked to their last bit.
"""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from helson import DomainError

# slack xnorm_certificate_check grants on both of its inequalities
CERT_CHECK_TOL = 1e-6


def _classes(n_max):
    classes = {}
    for i in range(1, n_max + 1):
        for j in range(1, n_max + 1):
            classes.setdefault(i * j, []).append((i - 1, j - 1))
    return classes


def _class_pairs(classes, names):
    """Flat (row, i, j) arrays: window pair (i, j) lies in class names[row]."""
    triples = [(row, i, j) for row, n in enumerate(names) for i, j in classes[n]]
    return tuple(np.array(col, dtype=np.intp) for col in zip(*triples))


def _phi_a(b_mats, pairs, n_names, n_max, rank):
    # class sums are linear in vec(A): row n collects conj(B[j]) onto A[i];
    # one stacked matrix per restart, and no (row, i) pair repeats
    rows, ii, jj = pairs
    phi = np.zeros((len(b_mats), n_names, n_max, rank), dtype=complex)
    phi[:, rows, ii, :] += np.conj(b_mats[:, jj, :])
    return phi.reshape(len(b_mats), n_names, n_max * rank)


def _phi_b(a_mats, pairs, n_names, n_max, rank):
    # same sums read as linear in vec(conj(B))
    rows, ii, jj = pairs
    phi = np.zeros((len(a_mats), n_names, n_max, rank), dtype=complex)
    phi[:, rows, jj, :] += a_mats[:, ii, :]
    return phi.reshape(len(a_mats), n_names, n_max * rank)


def _ridge(phi, target, mu):
    # min mu/2 ||phi x - target||^2 + 1/2 ||x||^2, per stacked phi
    phi_h = np.conj(phi).transpose(0, 2, 1)
    gram = phi_h @ phi + (1.0 / mu) * np.eye(phi.shape[2])
    return np.linalg.solve(gram, (phi_h @ target)[..., None])[..., 0]


def xnorm_oracle(entries, n_max, rank=4, restarts=50, seed=0, sweeps=120):
    """Best cost sum ||a_k|| ||b_k|| over rank-limited representations.

    entries: dict n -> complex with every n a product of window indices.
    The restarts run as one batch: the sweeps of every restart share the
    penalty schedule, so each half-sweep is one stacked solve.
    """
    classes = _classes(n_max)
    names = sorted(classes)
    pairs = _class_pairs(classes, names)
    target = np.array([complex(entries.get(n, 0.0)) for n in names])
    scale = max(1.0, float(np.abs(target).max()))
    rng = np.random.default_rng(seed)
    b_mats = np.empty((restarts, n_max, rank), dtype=complex)
    for b_mat in b_mats:
        b_mat[:] = rng.standard_normal((n_max, rank)) + 1j * rng.standard_normal(
            (n_max, rank)
        )
        b_mat /= max(np.linalg.norm(b_mat), 1e-12)
    mu = 1.0
    for _ in range(sweeps):
        a_vecs = _ridge(_phi_a(b_mats, pairs, len(names), n_max, rank), target, mu)
        a_mats = a_vecs.reshape(restarts, n_max, rank)
        b_vecs = _ridge(_phi_b(a_mats, pairs, len(names), n_max, rank), target, mu)
        b_mats = np.conj(b_vecs.reshape(restarts, n_max, rank))
        mu = min(mu * 1.35, 1e12)
    best = np.inf
    for phi, b_mat in zip(_phi_a(b_mats, pairs, len(names), n_max, rank), b_mats):
        # exact min-norm feasibility polish for A at the final B
        a_vec, *_ = np.linalg.lstsq(phi, target, rcond=None)
        a_mat = a_vec.reshape(n_max, rank)
        x_mat = a_mat @ np.conj(b_mat.T)
        feasibility = max(
            abs(sum(x_mat[i, j] for i, j in classes[n]) - complex(entries.get(n, 0.0)))
            for n in names
        )
        if feasibility > 1e-8 * scale:
            continue
        cost = sum(
            np.linalg.norm(a_mat[:, k]) * np.linalg.norm(b_mat[:, k])
            for k in range(rank)
        )
        best = min(best, float(cost))
    return best


def simplex_grid_search(target, family, resolution=0.01):
    """Dense sweep of the weight simplex; returns (best value, best weights).

    target: dense matrix; family: list of dense matrices.  Weights are
    enumerated on the lattice {0, resolution, 2*resolution, ...} summing
    to 1.
    """
    k = len(family)
    steps = int(round(1.0 / resolution))
    best_val = np.inf
    best_w = None
    stack = np.stack(family)
    for parts in itertools.combinations_with_replacement(range(k), steps):
        counts = np.bincount(np.array(parts), minlength=k)
        weights = counts / float(steps)
        diff = target - np.tensordot(weights, stack, axes=1)
        val = float(np.linalg.norm(diff, 2))
        if val < best_val:
            best_val = val
            best_w = weights
    return best_val, best_w


def primes_upto(n_max):
    """Ascending list of the primes <= n_max (sieve of Eratosthenes)."""
    flags = bytearray([1]) * (n_max + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n_max) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n_max + 1, p)))
    return list(itertools.compress(range(n_max + 1), flags))


def trial_factor(n, primes):
    """[(j, e), ...] with n = prod primes[j-1]**e, j ascending.

    Trial division by primes up to sqrt(n); primes must reach n.
    """
    out = []
    for j, p in enumerate(primes, start=1):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((j, e))
    if n > 1:
        out.append((bisect.bisect_left(primes, n) + 1, 1))
    return out


def weighted_degree_reference(n, primes):
    """omega(n) = sum_j j*kappa_j by trial division."""
    return sum(j * e for j, e in trial_factor(n, primes))


def max_prime_index_reference(n, primes):
    """Index j of the largest prime factor p_j of n; 0 for n = 1."""
    factors = trial_factor(n, primes)
    return factors[-1][0] if factors else 0


def xnorm_certificate_check(c, beta, claimed, n_max, prime_budget=None):
    """True iff beta certifies ||c||_X >= claimed - tol on the window.

    Requires ||M_N(beta)|| <= 1 + tol, on the dense SVD, and
    |(beta, c)| >= claimed - tol, with tol = CERT_CHECK_TOL.  The window
    is 1..N, or its integers with every prime among the first d under a
    budget d.  The supports of c and beta must lie in the product set of
    the window (DomainError otherwise): the window program knows no
    other index.
    """
    primes = primes_upto(n_max)
    window = [n for n in range(1, n_max + 1)
              if prime_budget is None or max_prime_index_reference(n, primes) <= prime_budget]
    products = {i * j for i in window for j in window}
    for seq in (c, beta):
        outside = sorted(set(seq.support) - products)
        if outside:
            raise DomainError(f"{outside[0]} is no product of two window indices")
    m = np.array([[beta[i * j] for j in window] for i in window], dtype=complex)
    if np.linalg.svd(m, compute_uv=False)[0] > 1.0 + CERT_CHECK_TOL:
        return False
    pairing = abs(sum(v * c[n] for n, v in beta.items()))
    return pairing >= claimed - CERT_CHECK_TOL


def hessian_reference(w11, w21, w22, labels):
    """The class-pair sums (R, G) of xnorm's Newton system, term by term.

    R[p, q] = sum over (a, b) in class p, (j, k) in class q of
    W_21[j, a] W_21[b, k], and G[p, q] the same with W_11[j, a] W_22[b, k]:
    every product of the S^4 tensor T[a, j, b, k] is bincounted into its
    class pair (labels[a, b], labels[j, k]).  The tensor is formed one
    index a at a time, so memory stays O(S^3).
    """
    m = int(labels.max()) + 1

    def pair_sums(x, y):
        out = np.zeros(m * m, dtype=complex)
        for a in range(labels.shape[0]):
            # tensor[j, b, k] = x[j, a] y[b, k], in slot labels[a, b] m + labels[j, k]
            tensor = np.multiply.outer(x[:, a], y)
            slots = (m * labels[a][None, :, None] + labels[:, None, :]).ravel()
            out += np.bincount(slots, tensor.real.ravel(), minlength=m * m)
            out += 1j * np.bincount(slots, tensor.imag.ravel(), minlength=m * m)
        return out.reshape(m, m)

    return pair_sums(w21, w21), pair_sums(w11, w22)


@st.composite
def wide_range_matrices(draw, max_dim=12, binades=(-60, 60)):
    """Square float64 or complex128 matrices with signed, log-uniform parts.

    Every real and imaginary part has modulus in [2^lo, 2^hi) for
    binades = (lo, hi), so no entry is zero and the entries of one matrix
    may lie 2^(hi - lo) apart.
    """
    dim = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part():
        shape = (dim, dim)
        mantissas = rng.uniform(1.0, 2.0, shape) * rng.choice((-1.0, 1.0), shape)
        return np.ldexp(mantissas, rng.integers(*binades, shape))

    return part() + 1j * part() if draw(st.booleans()) else part()


def _psd(m):
    """True iff the symmetric integer matrix m (list of lists) is positive semidefinite.

    Fraction-free symmetric elimination (Bareiss): after pivots on an
    index set P every entry is the minor of m on P plus its row and
    column, and the previous pivot divides each update exactly.  A
    negative pivot refutes; a zero pivot needs a zero remaining row,
    which is then dropped.
    """
    m = [row[:] for row in m]
    prev = 1
    while m:
        pivot, head = m[0][0], m[0][1:]
        if pivot < 0 or pivot == 0 and any(head):
            return False
        m = [[(pivot * x - r[0] * y) // prev for x, y in zip(r[1:], head)]
             for r in m[1:]] if pivot else [r[1:] for r in m[1:]]
        prev = pivot or prev
    return True


def norm_at_most(a, s):
    """True iff ||A|| <= s exactly, for a float64 or complex128 A and a float s.

    Every float is a dyadic rational, so with one power of two 2^e that
    clears every denominator, s >= ||A|| holds exactly when
    (2^e s)^2 I - Z^T Z, Z = 2^e A, an integer matrix, is positive
    semidefinite (_psd).  A complex A = X + iY is decided on its real
    embedding [[X, -Y], [Y, X]], whose singular values are those of A,
    each twice.  Uses only the standard library past reading the entries.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        a = np.block([[a.real, -a.imag], [a.imag, a.real]])
    s = Fraction(float(s))
    if s < 0:
        return False
    entries = [[Fraction(float(x)) for x in row] for row in a]
    scale = max([s.denominator] + [x.denominator for row in entries for x in row])
    z = [[int(x * scale) for x in row] for row in entries]
    top = int(s * scale) ** 2
    cols = a.shape[1]
    gram = [[sum(row[i] * row[j] for row in z) for j in range(cols)] for i in range(cols)]
    return _psd([[(top if i == j else 0) - gram[i][j] for j in range(cols)]
                 for i in range(cols)])
