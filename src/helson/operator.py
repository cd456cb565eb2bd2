"""Truncated multiplicative Hankel matrices M(alpha) = {alpha(nm)}.

The entry at row index n and column index m depends only on the product
nm, which makes every assembled matrix symmetric (not Hermitian unless
alpha is real).  Under a prime budget d the rows and columns run over
the d-smooth integers <= N, in ascending order, with the index map kept
on the matrix.  Entries are float64 when every value alpha takes on the
window's products is real and complex128 otherwise.

assemble is the one route to matrix entries.  A dilated truncation needs
no second one: the weighted degree is additive over products, so
M_N(alpha_r) = D_r M_N(alpha) D_r with D_r = diag(r^omega(n)) on the
index map, a diagonal scaling of the assembled M_N(alpha).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import sieve
from .core import Sequence, dilation_weight

# dense assembly refuses above this many rows (assembly is O(N^2) memory);
# under the default sieve limit 2^20 the N^2 <= limit check stops at the
# same N = 1024
DENSE_CAP = 1024


def symbol_values(symbol, ns):
    """Evaluate a symbol source on an integer array; the one evaluation path.

    Returns a complex128 array shaped like ns.  Sequences and the
    built-in fixtures expose ``values(ns)`` and are evaluated in one
    vectorized call.  Any other object with a pure ``value(n)`` method
    (e.g. GeometricDecay) is evaluated index by index, and so is an
    instance whose ``value`` was replaced on the instance (a counting or
    logging wrapper): the replacement is never bypassed.
    """
    ns = np.asarray(ns, dtype=np.int64)
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


def symbol_value(symbol, n):
    """Evaluate a symbol source at one index: symbol_values on [n]."""
    return complex(symbol_values(symbol, [n])[0])


class ArraySymbol:
    """Base of the built-in symbols: subclasses define ``values(ns)``.

    The scalar ``value(n)`` is ``values`` on a one-element array, so the
    two can never disagree.
    """

    def value(self, n):
        return complex(self.values(np.array([n], dtype=np.int64))[0])


def symbol_label(symbol):
    """Provenance tag recorded on assembled matrices."""
    spec = getattr(symbol, "spec", None)
    if spec is not None:
        return str(spec)
    if isinstance(symbol, Sequence):
        return f"sequence:{len(symbol)}"
    return type(symbol).__name__


def _float_array(x):
    """x as float64 when its dtype is real or integer, else as complex128."""
    arr = np.asarray(x)
    return arr.astype(np.float64 if arr.dtype.kind in "biuf" else np.complex128,
                      copy=False)


@dataclass(frozen=True)
class HelsonMatrix:
    """Dense truncation of M(alpha) with its index map and provenance.

    Entries are float64 for a real symbol (integer or real input is cast
    to float64) and complex128 otherwise.
    """

    entries: np.ndarray
    indices: tuple
    symbol_id: str
    prime_budget: object = None

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

    @property
    def n_max(self):
        return self.indices[-1] if self.indices else 0


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
    ``labels[i, j]`` is the position of indices[i] * indices[j] in it.
    The entries of M(alpha) are constant on each class, and the
    weak-product constraints are sums over the classes.
    """

    indices: tuple
    uniq: np.ndarray
    labels: np.ndarray


# a window whose largest product n_max^2 is at most this many times its
# dim^2 products is ranked through a table over [0, n_max^2]
_TABLE_FACTOR = 4


def product_classes(indices):
    """ProductClasses of a window; refuses products past the sieve limit."""
    _check_products(indices)
    idx = np.asarray(indices, dtype=np.int64)
    prod = idx[:, None] * idx[None, :]
    top = int(idx.max()) ** 2
    # The table ranks without a sort (4-6x faster than np.unique on 1..N
    # for N = 256..1024) but spans [0, n_max^2]; prime-budget windows are
    # sparse there (n_max^2 / dim^2 from 58 to ~29000 at N = 2048), so
    # they keep np.unique.  The benchmark's norm-ladder runs the table,
    # approx-smooth both paths.
    if top <= _TABLE_FACTOR * prod.size:
        mark = np.zeros(top + 1, dtype=bool)
        mark[prod] = True
        uniq = np.flatnonzero(mark)
        rank = np.empty(top + 1, dtype=np.intp)
        rank[uniq] = np.arange(uniq.size)
        labels = rank[prod]
    else:
        uniq, labels = np.unique(prod, return_inverse=True)
        labels = labels.reshape(prod.shape)
    return ProductClasses(tuple(indices), uniq, labels)


def assemble(symbol, n_max, prime_budget=None, dense_cap=DENSE_CAP):
    """Dense truncated matrix with entry (n, m) = alpha(nm).

    Each distinct product nm is evaluated once; the result is symmetric
    by construction because the entry depends only on the product.  The
    entries are float64 when every distinct value is real.
    """
    indices = truncation_indices(n_max, prime_budget)
    if len(indices) > dense_cap:
        raise DomainError(
            f"dense assembly capped at {dense_cap} rows, window has {len(indices)}"
        )
    classes = product_classes(indices)
    vals = symbol_values(symbol, classes.uniq)
    if not vals.imag.any():
        vals = vals.real
    return HelsonMatrix(
        entries=vals[classes.labels],
        indices=indices,
        symbol_id=symbol_label(symbol),
        prime_budget=prime_budget,
    )


def form(symbol, a, b):
    """Sesquilinear form <M(alpha) a, b> = sum a(n) conj(b(m)) alpha(nm).

    Equals the bilinear pairing of alpha against a * b; with assertions
    enabled the two routes are computed and compared.
    """
    limit = sieve.sieve_limit()
    products, weights = [], []
    for n, av in a.items():
        for m, bv in b.items():
            p = n * m
            if p > limit:
                raise DomainError(f"form index {n}*{m} exceeds sieve limit {limit}")
            products.append(p)
            weights.append(av * bv.conjugate())
    alpha = symbol_values(symbol, products).tolist()
    total = sum((w * x for w, x in zip(weights, alpha)), 0j)
    if __debug__ and a and b:
        from .core import dirichlet_convolve, bilinear_pair

        conv = dirichlet_convolve(a, b)
        alpha = Sequence(zip(conv.support, symbol_values(symbol, conv.support).tolist()))
        check = bilinear_pair(alpha, conv)
        assert abs(total - check) <= 1e-9 * (1.0 + abs(total)), (
            f"form/pairing mismatch: {total} vs {check}"
        )
    return complex(total)


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
        space = np.array([n for n in symbol.support if n <= top], dtype=np.int64)
    else:
        space = np.arange(1, top + 1, dtype=np.int64)
    values = dilation_weight(r, space) * symbol_values(symbol, space)
    return Sequence(zip(space.tolist(), values.tolist()))


def matrix_header(matrix):
    """JSON-ready truncation metadata carried next to CSV exports."""
    return {
        "N": matrix.n_max,
        "symbol_id": matrix.symbol_id,
        "prime_budget": matrix.prime_budget,
        "indices": list(matrix.indices),
    }


def matrix_to_csv(matrix):
    """Row-major CSV with "re,im" per cell (flattened to re<j>,im<j> columns)."""
    size = matrix.size
    lines = [",".join(f"re{j},im{j}" for j in range(size))]
    for row in matrix.entries:
        lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"


def save_matrix(matrix, csv_path, header_path=None):
    """Write the CSV body and its JSON header (default: csv_path + '.json')."""
    if header_path is None:
        header_path = str(csv_path) + ".json"
    with open(csv_path, "w") as fh:
        fh.write(matrix_to_csv(matrix))
    with open(header_path, "w") as fh:
        json.dump(matrix_header(matrix), fh, indent=2)
        fh.write("\n")
