"""Sequences on the positive integers and their multiplicative calculus.

A Sequence is a finitely supported map n -> complex, n >= 1, stored as
two arrays: its ascending int64 support and the nonzero values there.
The multiplicative structure enters through the exponent tuple kappa of
sieve.factorize, Dirichlet convolution with a conjugated second factor,

    (a * b)(n) = sum_{k | n} a(k) conj(b(n/k)),

the bilinear pairing (a, b) = sum a(n) b(n) (no conjugation;
operator.bilinear_pair, which takes any symbol for a), and the
dilation semigroup acting by the diagonal weights r^omega(n) where
omega(n) = sum_j j*kappa_j is the weighted degree of the factorization.

Every Sequence is built by one class sum (np.unique, then bincount); a
convolution is that sum over the products of two supports.  The product
classes {(i, j): n_i n_j = n} of a window, which assembly and xnorm
share, are operator.ProductClasses.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import sieve


def _as_complex(v):
    v = complex(v)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise DomainError(f"sequence values must be finite, got {v}")
    return v


def _index(n):
    """n as an int in [1, 2^63), the range of an int64 index."""
    try:
        m = int(n)
    except (TypeError, ValueError):
        m = None
    if m is None or m != n or isinstance(n, (float, complex, bool, np.bool_)):
        raise DomainError(f"sequence index must be an integer, got {n!r}")
    if m < 1:
        raise DomainError(f"sequence index must be >= 1, got {m}")
    if m >= 1 << 63:
        raise DomainError(f"sequence index must be below 2^63, got {m}")
    return m


def _normalised(keys, vals):
    """Distinct keys ascending with their values summed in order, finite, nonzero."""
    bad = vals[~np.isfinite(vals)]
    if bad.size:
        raise DomainError(f"sequence values must be finite, got {complex(bad[0])}")
    keys, labels = np.unique(keys, return_inverse=True)
    sums = np.bincount(labels, vals.real, keys.size) + 1j * np.bincount(
        labels, vals.imag, keys.size)
    return keys[sums != 0], sums[sums != 0]


def _mul(x, y):
    """x * y elementwise, rounded as Python's complex product (nothing fused)."""
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _dot(x, y):
    """sum_n x(n) y(n) over aligned arrays, added one term at a time in order."""
    return sum(_mul(x, y).tolist(), 0j)


class Sequence:
    """Finitely supported complex sequence over integer indices n >= 1.

    Entries iterate in ascending index order, so every reduction built on
    a Sequence is reproducible.  Exact zeros are not stored.
    """

    __slots__ = ("_keys", "_vals")

    def __init__(self, entries=None):
        pairs = list(entries.items() if isinstance(entries, dict) else entries or ())
        self._keys, self._vals = _normalised(
            np.array([_index(n) for n, _ in pairs], dtype=np.int64),
            np.array([v for _, v in pairs], dtype=np.complex128))

    @classmethod
    def _from_arrays(cls, keys, vals):
        """A Sequence from int64 indices >= 1, unchecked, and their values."""
        seq = cls.__new__(cls)
        seq._keys, seq._vals = _normalised(keys, vals)
        return seq

    @classmethod
    def _sum(cls, parts):
        """The sum of Sequences, as one class sum over their entries in order."""
        parts = [cls(), *parts]
        return cls._from_arrays(np.concatenate([p._keys for p in parts]),
                                np.concatenate([p._vals for p in parts]))

    @classmethod
    def delta(cls, n, value=1.0):
        """The unit mass at index n."""
        return cls({n: value})

    @property
    def support(self):
        return tuple(self._keys.tolist())

    @property
    def max_index(self):
        return int(self._keys[-1]) if self._keys.size else 0

    def items(self):
        return list(zip(self._keys.tolist(), self._vals.tolist()))

    def __getitem__(self, n):
        i = self._keys.searchsorted(n)
        if i < self._keys.size and self._keys[i] == n:
            return complex(self._vals[i])
        return 0j

    def values(self, ns):
        """Entries at an integer array of indices; off the support they read 0."""
        ns = sieve._integer_array(ns)
        out = np.zeros(ns.shape, dtype=np.complex128)
        if self._keys.size:
            pos = np.minimum(self._keys.searchsorted(ns), self._keys.size - 1)
            hit = self._keys[pos] == ns
            out[hit] = self._vals[pos[hit]]
        return out

    def __len__(self):
        return self._keys.size

    def __bool__(self):
        return bool(self._keys.size)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return (np.array_equal(self._keys, other._keys)
                and np.array_equal(self._vals, other._vals))

    def __hash__(self):
        # sums start from +0.0, so equal Sequences store equal bytes
        return hash((self._keys.tobytes(), self._vals.tobytes()))

    def __add__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return Sequence._sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        return Sequence._from_arrays(self._keys, _mul(_as_complex(scalar), self._vals))

    __rmul__ = __mul__

    def conjugate(self):
        return Sequence._from_arrays(self._keys, self._vals.conj())

    def norm(self):
        """l2 norm over the support; squares that overflow are summed scaled."""
        with np.errstate(over="ignore", invalid="ignore"):
            total = _dot(self._vals, self._vals.conj()).real
        if total < math.inf:
            return math.sqrt(total)
        mags = np.abs(self._vals)
        scale = float(mags.max())
        return scale * math.sqrt(np.dot(mags / scale, mags / scale))

    def restrict(self, window):
        """Entries with index <= window."""
        if window < 0:
            raise DomainError(f"window must be >= 0, got {window}")
        keep = self._keys <= window
        return Sequence._from_arrays(self._keys[keep], self._vals[keep])

    def __repr__(self):
        body = ", ".join(f"{n}: {v}" for n, v in self.items()[:6])
        tail = ", ..." if len(self) > 6 else ""
        return f"Sequence({{{body}{tail}}})"


def filter_smooth(a, prime_budget):
    """Drop entries whose index is not d-smooth."""
    if prime_budget is None:
        return a
    keep = sieve.is_smooth(a._keys, prime_budget)
    return Sequence._from_arrays(a._keys[keep], a._vals[keep])


def dirichlet_convolve(a, b):
    """(a * b)(n) = sum_{k|n} a(k) conj(b(n/k)).

    Linear in a, conjugate-linear in b.  The coefficient at n is the sum
    of a(i) conj(b(j)) over its product class {(i, j): ij = n}, taken in
    the order (i, j) ascending.  A product above the sieve limit raises a
    domain error.
    """
    limit = sieve.sieve_limit()
    ak, av, bk, bv = a._keys, a._vals, b._keys, b._vals
    if not (ak.size and bk.size):
        return Sequence()
    # the largest product, in Python ints, is checked before any int64
    # product is formed, so none can wrap
    top = int(ak[-1]) * int(bk[-1])
    if top > limit:
        raise DomainError(f"convolution index {top} exceeds sieve limit {limit}")
    prod = np.multiply.outer(ak, bk).ravel()
    terms = _mul(av[:, None], bv.conj()).ravel()
    return Sequence._from_arrays(prod, terms)


def _rvalue(r):
    """The dilation parameter r as a float, strictly inside (0, 1)."""
    r = float(r)
    if not (0.0 < r < 1.0):
        raise DomainError(f"dilation parameter must satisfy 0 < r < 1, got {r}")
    return r


def dilation_weight(r, n):
    """r^omega(n) where omega is the weighted degree; 1 exactly when n = 1.

    n may be an integer or an integer array; the result has its shape.
    """
    r = _rvalue(r)
    omega = np.asarray(sieve.weighted_degree(n))
    # one Python power per distinct degree, gathered, so each weight is
    # bit for bit r ** weighted_degree(n)
    powers = np.array([r**k for k in range(int(omega.max(initial=0)) + 1)])
    return powers[omega]


def dilate(r, a):
    """(D_r a)(n) = r^omega(n) a(n); contractive, and D_r(a*b) = D_ra * D_rb."""
    return Sequence._from_arrays(a._keys, dilation_weight(r, a._keys) * a._vals)


@dataclass(frozen=True)
class HSSum:
    """Two routes to sum_kappa r^(2 omega(kappa)) = prod_j 1/(1 - r^(2j))."""

    partial_sum: float
    product_form: float
    terms_used: int


# dilation_hs_sum refuses an r whose estimated level count passes this
HS_MAX_TERMS = 50000

_PARTITIONS = [1]
# math.log of each cached partition count
_LOG_PARTITIONS = np.zeros(1)


def _log_partition_counts(upto):
    """log p(w) for w = 0..upto at least, from the exact counts p(w)."""
    global _LOG_PARTITIONS
    # Euler's pentagonal-number recurrence, exact integers
    while len(_PARTITIONS) <= upto:
        w = len(_PARTITIONS)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > w:
                break
            sign = 1 if k % 2 else -1
            total += sign * _PARTITIONS[w - g1]
            if g2 <= w:
                total += sign * _PARTITIONS[w - g2]
            k += 1
        _PARTITIONS.append(total)
    done = _LOG_PARTITIONS.size
    if done < len(_PARTITIONS):
        more = [math.log(count) for count in _PARTITIONS[done:]]
        _LOG_PARTITIONS = np.concatenate((_LOG_PARTITIONS, more))
    return _LOG_PARTITIONS


def dilation_hs_sum(r, tolerance):
    """Hilbert-Schmidt sum of D_r by two independent routes.

    partial_sum accumulates sum_kappa r^(2 omega) grouped by weighted
    degree w (each level contributes p(w) * r^(2w) with p the partition
    count), stopping once the remaining tail is below tolerance relative
    to the running sum.  product_form multiplies 1/(1 - r^(2j)) until the
    change still ahead of the partial product is below tolerance.
    terms_used counts the weighted-degree levels consumed.  An r whose
    estimated level count passes HS_MAX_TERMS is refused before any level
    is summed.
    """
    r = _rvalue(r)
    tolerance = float(tolerance)
    if not (0.0 < tolerance < 1.0):
        raise DomainError(f"tolerance must lie in (0, 1), got {tolerance}")
    q = r * r

    # p(w) grows like exp(pi*sqrt(2w/3)), so the level where terms sink
    # below the target solves a*s^2 - b*s - L = 0 in s = sqrt(w); reject
    # hopeless r before doing any work
    margin = 0.5 * (1.0 - math.sqrt(q))
    a = -math.log(q)
    b = math.pi * math.sqrt(2.0 / 3.0)
    log_sum_est = (math.pi * math.pi / 6.0) / (1.0 - q)
    big_l = log_sum_est - math.log(tolerance * margin)
    s = (b + math.sqrt(b * b + 4.0 * a * big_l)) / (2.0 * a)
    if s * s > HS_MAX_TERMS:
        raise DomainError(
            f"r={r} needs about {int(s * s)} weighted-degree levels, "
            f"cap is {HS_MAX_TERMS}"
        )

    product = 1.0
    j = 1
    while True:
        qj = q**j
        product *= 1.0 / (1.0 - qj)
        # everything still ahead changes log(product) by at most this
        remaining = (q * qj) / ((1.0 - q) * (1.0 - q * qj))
        if remaining < tolerance:
            break
        j += 1

    # the levels go in chunks: every level already counted, else about
    # an eighth more, so no count is made far past the stop.  Each chunk
    # is one np.exp and one running sum that restarts from the last
    # total, so the terms add one by one in level order however the
    # chunks fall
    total = 0.0
    w = 0
    log_q = math.log(q)
    target = tolerance * margin
    while True:
        stop = max(w + max(64, w // 8), _LOG_PARTITIONS.size)
        levels = np.arange(w, stop)
        terms = np.exp(_log_partition_counts(stop - 1)[w:stop] + levels * log_q)
        totals = np.cumsum(np.concatenate(([total], terms)))[1:]
        met = np.flatnonzero((terms <= target * totals) & (levels >= 1))
        if met.size:
            k = met[0]
            return HSSum(partial_sum=float(totals[k]), product_form=product,
                         terms_used=w + k + 1)
        total = float(totals[-1])
        w = stop


def sequence_to_triples(a):
    """JSON-ready list of [index, re, im] triples, ascending indices."""
    return [[n, v.real, v.imag] for n, v in a.items()]


def sequence_from_triples(obj):
    """Parse a JSON array of [index, re, im] triples; indices must increase."""
    if not isinstance(obj, list):
        raise DomainError("sequence file must be a JSON array of [n, re, im] triples")
    entries = {}
    last = 0
    for item in obj:
        if not (isinstance(item, list) and len(item) == 3):
            raise DomainError(f"malformed sequence triple: {item!r}")
        n, re, im = item
        if not isinstance(n, int) or isinstance(n, bool):
            raise DomainError(f"sequence index must be an integer, got {n!r}")
        if n <= last:
            raise DomainError(f"sequence indices must be strictly increasing at {n}")
        last = n
        entries[n] = complex(float(re), float(im))
    return Sequence(entries)


def save_sequence(a, path):
    with open(path, "w") as fh:
        json.dump(sequence_to_triples(a), fh)
        fh.write("\n")


def load_sequence(path):
    with open(path) as fh:
        obj = json.load(fh)
    # CLI outputs wrap the triples under a "sequence" key next to their
    # determinism header; accept both shapes
    if isinstance(obj, dict) and "sequence" in obj:
        obj = obj["sequence"]
    return sequence_from_triples(obj)
