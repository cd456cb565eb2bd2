"""Truncated multiplicative Hankel matrices M(alpha) = {alpha(nm)}.

The entry at row index n and column index m depends only on the product
nm, which makes every assembled matrix symmetric (not Hermitian unless
alpha is real).  Under a prime budget d the rows and columns run over
the d-smooth integers <= N, in ascending order, with the index map kept
on the matrix.  Entries are float64 when every value alpha takes on the
window's products is real and complex128 otherwise.

assemble evaluates alpha once per distinct product.  On a window 1..N
row n is alpha at n, 2n, ..., Nn: a stride-n slice of one table over
[0, N^2], with no N^2 index array.  A sparse prime-budget window sorts
its products into classes and gathers the values through them.

assemble is the one route to matrix entries.  A dilated truncation needs
no second one: the weighted degree is additive over products, so
M_N(alpha_r) = D_r M_N(alpha) D_r with D_r = diag(r^omega(n)) on the
index map, a diagonal scaling of the assembled M_N(alpha).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import sieve
from .core import Sequence, _dot, dilate, dirichlet_convolve

# dense assembly refuses above this many rows (assembly is O(N^2) memory);
# the products of a 1..N window are evaluated, never factored, and stay
# at most DENSE_CAP^2 = sieve.MAX_INDEX
DENSE_CAP = 1024


def symbol_values(symbol, ns):
    """Evaluate a symbol source on an integer array; the one evaluation path.

    Returns a complex128 array shaped like ns; a non-empty ns whose dtype
    is not integer raises DomainError.  Sequences and the
    built-in fixtures expose ``values(ns)`` and are evaluated in one
    vectorized call.  Any other object with a pure ``value(n)`` method
    (e.g. GeometricDecay) is evaluated index by index, and so is an
    instance whose ``value`` was replaced on the instance (a counting or
    logging wrapper): the replacement is never bypassed.
    """
    ns = sieve._integer_array(ns)
    values = getattr(symbol, "values", None)
    if values is not None and "value" not in getattr(symbol, "__dict__", ()):
        return np.asarray(values(ns), dtype=np.complex128)
    value = getattr(symbol, "value", None)
    if value is None:
        raise DomainError(
            "symbol must be a Sequence or expose values(ns) or value(n), "
            f"got {type(symbol).__name__}"
        )
    out = np.fromiter((complex(value(n)) for n in ns.ravel().tolist()),
                      dtype=np.complex128, count=ns.size)
    return out.reshape(ns.shape)


class ArraySymbol:
    """Base of the built-in symbols: subclasses define ``values(ns)``.

    The scalar ``value(n)`` is ``values`` on a one-element array, so the
    two can never disagree: a non-integer n raises DomainError on both.
    """

    def value(self, n):
        return complex(self.values([n])[0])


def _float_array(x):
    """x as float64 when its dtype is real or integer, else as complex128."""
    arr = np.asarray(x)
    return arr.astype(np.float64 if arr.dtype.kind in "biuf" else np.complex128,
                      copy=False)


@dataclass(frozen=True)
class HelsonMatrix:
    """Dense truncation of M(alpha) with its index map.

    Entries are float64 for a real symbol (integer or real input is cast
    to float64) and complex128 otherwise.
    """

    entries: np.ndarray
    indices: tuple

    def __post_init__(self):
        entries = _float_array(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError(f"matrix must be square, got shape {entries.shape}")
        if entries.shape[0] != len(self.indices):
            raise DomainError("index map length does not match matrix size")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "indices", tuple(int(n) for n in self.indices))

    @property
    def size(self):
        return len(self.indices)


def truncation_indices(n_max, prime_budget=None):
    """Row/column indices of the truncation window: 1..N, d-smooth under a budget."""
    if n_max < 1:
        raise DomainError(f"truncation size must be >= 1, got {n_max}")
    return sieve.smooth_indices(n_max, prime_budget)


def _check_products(indices):
    limit = sieve.sieve_limit()
    top = indices[-1] * indices[-1]
    if top > limit:
        raise DomainError(
            f"matrix window needs index {top} = {indices[-1]}^2 "
            f"above sieve limit {limit}"
        )


@dataclass(frozen=True)
class ProductClasses:
    """The positions of a window grouped by product: {(i, j): n_i n_j = n}.

    ``uniq`` holds the distinct products in ascending order and
    ``labels[i, j]`` is the position of n_i * n_j in it.  The entries of
    M(alpha) are constant on each class, and the weak-product constraints
    are sums over the classes.
    """

    uniq: np.ndarray
    labels: np.ndarray


def product_classes(indices):
    """ProductClasses of a window; its products are evaluated, never factored."""
    idx = np.asarray(indices, dtype=np.int64)
    prod = idx[:, None] * idx[None, :]
    uniq, labels = np.unique(prod, return_inverse=True)
    return ProductClasses(uniq, labels.reshape(prod.shape))


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
    rows of the module docstring, a sparse one its product classes.
    """
    indices = truncation_indices(n_max, prime_budget)
    dim = len(indices)
    if dim > DENSE_CAP:
        raise DomainError(
            f"dense assembly capped at {DENSE_CAP} rows, window has {dim}"
        )
    if indices[-1] == dim:
        entries = _strided_rows(symbol, dim)
    else:
        classes = product_classes(indices)
        entries = _real_if_real(symbol_values(symbol, classes.uniq))[classes.labels]
    return HelsonMatrix(entries=entries, indices=indices)


def form(symbol, a, b):
    """Sesquilinear form <M(alpha) a, b> = sum a(n) conj(b(m)) alpha(nm).

    Grouping the pairs (n, m) by their product turns the double sum into
    the pairing (alpha, a * b), so alpha is evaluated once per distinct
    product of the convolution's support.
    """
    conv = dirichlet_convolve(a, b)
    return _dot(symbol_values(symbol, conv._keys), conv._vals)


def dilate_symbol(symbol, r, n_max):
    """alpha_r as a concrete Sequence on the window [1, N^2].

    Satisfies assemble(alpha_r, N) = D_r assemble(alpha, N) D_r with D_r
    the diagonal matrix of dilation weights, since the weighted degree is
    additive over products.  This weights the symbol itself, so it is an
    independent route to the scaled matrices that approx builds.
    """
    _check_products(truncation_indices(n_max))
    top = n_max * n_max
    if isinstance(symbol, Sequence):
        return dilate(r, symbol.restrict(top))
    space = np.arange(1, top + 1, dtype=np.int64)
    return dilate(r, Sequence._from_arrays(space, symbol_values(symbol, space)))


def matrix_to_csv(matrix):
    """Row-major CSV with "re,im" per cell (flattened to re<j>,im<j> columns)."""
    size = matrix.size
    lines = [",".join(f"re{j},im{j}" for j in range(size))]
    for row in matrix.entries:
        lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"
