"""Truncated multiplicative Hankel matrices M(alpha) = {alpha(nm)}.

The entry at row index n and column index m depends only on the product
nm, which makes every assembled matrix symmetric (not Hermitian unless
alpha is real).  Under a prime budget d the rows and columns run over
the d-smooth integers <= N, in ascending order, with the index map kept
on the matrix.  Window is the one place a window is built: its indices,
the cap of DENSE_CAP rows, its product classes and its polydisk
sub-windows.  Entries are float64 when every value alpha takes on the
window's products is real and complex128 otherwise.

assemble evaluates alpha once per distinct product.  On a window 1..N
row n is alpha at n, 2n, ..., Nn: a stride-n slice of one table over
[0, N^2], with no N^2 index array.  A sparse prime-budget window sorts
its products into the Window's classes and gathers the values through
them.

assemble is the one route to matrix entries.  A dilated truncation needs
no second one: the weighted degree is additive over products, so
M_N(alpha_r) = D_r M_N(alpha) D_r with D_r = diag(r^omega(n)) on the
index map, a diagonal scaling of the assembled M_N(alpha).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, _complex, _integer, _integer_array, _number_array
from . import sieve
from .core import Sequence, _dot, dilate, dirichlet_convolve

# a dense window (assemble, xnorm) has at most this many rows, since its
# matrices take O(rows^2) memory; its products are evaluated, never
# factored, so they may pass the sieve's range
DENSE_CAP = 1024


def symbol_values(symbol, ns):
    """Evaluate a symbol source on an integer array; the one evaluation path.

    Returns a complex128 array shaped like ns; a non-empty ns whose dtype
    is not integer raises DomainError, and so does a value that is not
    finite (an overflowing power, say), naming the first such index.
    Sequences and the built-in fixtures expose ``values(ns)`` and are
    evaluated in one vectorized call.  Any other object with a pure
    ``value(n)`` method is evaluated index by index, and so is an
    instance whose ``value`` was replaced on the instance (a counting or
    logging wrapper): the replacement is never bypassed.  Each such
    value passes _complex, so a bool, string or None is refused.
    """
    ns = _integer_array(ns)
    values = getattr(symbol, "values", None)
    value = getattr(symbol, "value", None)
    if values is None and value is None:
        raise DomainError(
            "symbol must be a Sequence or expose values(ns) or value(n), "
            f"got {type(symbol).__name__}"
        )
    name = getattr(symbol, "spec", type(symbol).__name__)
    # numpy's overflow warnings give way to the refusal below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if values is not None and "value" not in getattr(symbol, "__dict__", ()):
            out = np.asarray(values(ns), dtype=np.complex128)
        else:
            what = f"value of symbol {name}"
            out = np.fromiter((_complex(value(n), what, finite=False)
                               for n in ns.ravel().tolist()),
                              dtype=np.complex128, count=ns.size).reshape(ns.shape)
    finite = np.isfinite(out)
    if not finite.all():
        first = int(ns.ravel()[np.argmin(finite.ravel())])
        raise DomainError(f"symbol {name} is not finite at index {first}")
    return out


class ArraySymbol:
    """Base of the built-in symbols: subclasses define ``values(ns)``.

    The scalar ``value(n)`` is ``values`` on a one-element array, so the
    two can never disagree: a non-integer n raises DomainError on both.
    """

    def value(self, n):
        return complex(self.values([n])[0])


@dataclass(frozen=True)
class HelsonMatrix:
    """Dense truncation of M(alpha) with its index map.

    Entries are float64 for integer or real input and complex128 for
    complex; any other dtype, or an index map that is no integer array,
    raises DomainError.
    """

    entries: np.ndarray
    indices: tuple

    def __post_init__(self):
        entries = _number_array(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError(f"matrix must be square, got shape {entries.shape}")
        if entries.shape[0] != len(self.indices):
            raise DomainError("index map length does not match matrix size")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "indices", tuple(_integer_array(self.indices).tolist()))

    @property
    def size(self):
        return len(self.indices)


class Window:
    """A truncation window: ascending int64 indices and their product classes.

    The classes {(i, j): n_i n_j = n} are built on first use: ``uniq``
    holds the distinct products in ascending order, ``labels[i, j]`` the
    position of n_i * n_j in it and ``counts`` the class sizes.  The
    products are evaluated, never factored.  The entries of M(alpha) are
    constant on each class, and the weak-product constraints and Newton
    system are class sums.
    """

    def __init__(self, indices):
        self.indices = np.asarray(indices, dtype=np.int64)

    @classmethod
    def truncation(cls, n_max, prime_budget=None):
        """The window 1..N, d-smooth under a budget; DomainError past DENSE_CAP rows."""
        indices = sieve.smooth_indices(_integer(n_max, "truncation size", 1), prime_budget)
        rows = len(indices)
        if rows > DENSE_CAP:
            raise DomainError(f"dense assembly capped at {DENSE_CAP} rows, window has {rows}")
        return cls(indices)

    def smooth_over(self, primes):
        """Positions of the indices whose prime factors all lie in primes.

        Those indices are the monomials p^kappa <= n_max of the polydisk in
        the variables primes: starting from [1], each prime multiplies in
        its powers up to n_max.
        """
        n_max = int(self.indices[-1])
        out = np.ones(1, dtype=np.int64)
        for p in set(primes):
            powers = [1]
            while powers[-1] * p <= n_max:
                powers.append(powers[-1] * p)
            out = np.multiply.outer(out, powers).ravel()
            out = out[out <= n_max]
        return np.flatnonzero(np.isin(self.indices, out))

    @cached_property
    def _classes(self):
        # n_i n_j = n_j n_i: the classes of the upper triangle i <= j,
        # mirrored; each class holds at most one square n_i^2, its one
        # pair counted once, and every other pair twice
        idx = self.indices
        upper = np.less_equal.outer(idx, idx)
        uniq, half, counts = np.unique(np.multiply.outer(idx, idx)[upper],
                                       return_inverse=True, return_counts=True)
        labels = np.empty((idx.size, idx.size), dtype=half.dtype)
        labels[upper] = half
        labels.T[upper] = half
        counts *= 2
        counts[labels.diagonal()] -= 1
        return uniq, labels, counts

    uniq = property(lambda self: self._classes[0])
    labels = property(lambda self: self._classes[1])
    counts = property(lambda self: self._classes[2])

    @cached_property
    def _sorted(self):
        """(order, starts, rows, cols), built on first use; assembly never does.

        order lists the entries of an S x S matrix class by class,
        row-major within a class, and class q starts at starts[q] in it;
        class q holds the pairs (rows[q, l], cols[q, l]), padded with the
        index S, which pair_sums points at a zero row.
        """
        dim, flat = self.labels.shape[0], self.labels.ravel()
        order = np.argsort(flat, kind="stable")
        starts = np.cumsum(self.counts) - self.counts
        slot = np.arange(order.size) - np.repeat(starts, self.counts)
        rows = np.full((self.uniq.size, int(self.counts.max())), dim)
        cols = rows.copy()
        rows[flat[order], slot], cols[flat[order], slot] = divmod(order, dim)
        return order, starts, rows, cols

    def sums(self, mat):
        """Class sums of an S x S matrix, or of each matrix in a stack.

        Every class has a member, so no segment of the reduction is empty.
        """
        order, starts, _, _ = self._sorted
        flat = mat.reshape(*mat.shape[:-2], -1)
        return np.add.reduceat(np.take(flat, order, axis=-1), starts, axis=-1)

    def pair_sums(self, a, b):
        """P[q, p] = sum over (x, y) in class p, (j, k) in class q of a[j, x] b[y, k].

        Y_q = a[J_q, :]^T b[:, K_q]^T is one batched product over the
        classes q, and row q of P is the class sum of Y_q: no S^4 array
        is formed, and the m products Y_q take O(m S^2) memory.
        """
        _, _, rows, cols = self._sorted
        zero = np.zeros((1, a.shape[1]), dtype=a.dtype)
        left = np.concatenate((a, zero))[rows].transpose(0, 2, 1)
        right = np.concatenate((b.T, zero))[cols]
        return self.sums(left @ right)


def _real_if_real(vals):
    return vals.real if not vals.imag.any() else vals


def _strided_rows(symbol, dim):
    """Entries of M(alpha) on the window 1..dim, with no dim^2 index array.

    Row n holds alpha at the products n, 2n, ..., dim*n, a stride-n slice
    of a table over [0, dim^2]; the distinct products are marked by the
    same slices, from n^2 on (the rest of each row is an earlier column),
    and each is evaluated once.
    """
    top = dim * dim
    mark = np.zeros(top + 1, dtype=bool)
    for n in range(1, dim + 1):
        mark[n * n : n * dim + 1 : n] = True
    uniq = np.flatnonzero(mark)
    vals = _real_if_real(symbol_values(symbol, uniq))
    table = np.empty(top + 1, dtype=vals.dtype)
    table[uniq] = vals
    entries = np.empty((dim, dim), dtype=vals.dtype)
    for n in range(1, dim + 1):
        entries[n - 1] = table[n : n * dim + 1 : n]
    return entries


def assemble(symbol, n_max, prime_budget=None):
    """Dense truncated matrix with entry (n, m) = alpha(nm).

    Each distinct product nm is evaluated once; the result is symmetric
    by construction because the entry depends only on the product.  The
    entries are float64 when every distinct value is real.  A window
    1..N (no budget, or one covering every prime <= N) takes the strided
    rows of the module docstring, a sparse one its Window's product classes.
    """
    window = Window.truncation(n_max, prime_budget)
    dim = window.indices.size
    if window.indices[-1] == dim:
        entries = _strided_rows(symbol, dim)
    else:
        entries = _real_if_real(symbol_values(symbol, window.uniq))[window.labels]
    return HelsonMatrix(entries=entries, indices=window.indices.tolist())


def bilinear_pair(symbol, b):
    """(alpha, b) = sum_n alpha(n) b(n) over b's support; no conjugation.

    alpha is any symbol source that symbol_values takes, b a Sequence.
    """
    return _dot(symbol_values(symbol, b._keys), b._vals)


def form(symbol, a, b):
    """Sesquilinear form <M(alpha) a, b> = sum a(n) conj(b(m)) alpha(nm).

    Grouping the pairs (n, m) by their product turns the double sum into
    the pairing (alpha, a * b), so alpha is evaluated once per distinct
    product of the convolution's support.
    """
    return bilinear_pair(symbol, dirichlet_convolve(a, b))


def dilate_symbol(symbol, r, n_max):
    """alpha_r as a concrete Sequence on the window [1, N^2].

    Satisfies assemble(alpha_r, N) = D_r assemble(alpha, N) D_r with D_r
    the diagonal matrix of dilation weights, since the weighted degree is
    additive over products.  This weights the symbol itself, so it is an
    independent route to the scaled matrices that approx builds.  The
    sieve refuses an N^2 past its range before [1, N^2] is allocated.
    """
    top = _integer(n_max, "truncation size", 1) ** 2
    sieve.weighted_degree(top)
    if isinstance(symbol, Sequence):
        return dilate(r, symbol.restrict(top))
    space = np.arange(1, top + 1, dtype=np.int64)
    return dilate(r, Sequence._from_arrays(space, symbol_values(symbol, space)))

