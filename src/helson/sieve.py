"""Smallest-prime-factor sieve and multiplicative index bookkeeping.

Positive integers are identified with prime-exponent tuples through
n = prod_j p_j^(kappa_j).  One cached sieve holds the smallest-prime-factor
table spf and the ascending array of primes; the index j of a prime is
its position in that array.  Every multiplicative query on indices
(weighted degree, largest prime index, smoothness) is one lockstep walk
over spf that strips the smallest prime factor from every entry still
above 1, so an integer and an integer array take the same route.

Every index query lies in [1, MAX_INDEX], checked before any table is
touched.  The tables are built on demand: they cover the power of two
at or above the largest index queried so far, and are rebuilt larger
only when a later query needs it, so a process that factors nothing
builds nothing.
"""

import math

import numpy as np

from .errors import DomainError

# the range of every index query, read at call time
MAX_INDEX = 1 << 20

_state = None  # (size, spf, primes): spf covers [0, size], size a power of two


def _build(size):
    spf = np.zeros(size + 1, dtype=np.int32)
    for p in range(2, math.isqrt(size) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    unset = spf == 0
    spf[unset] = np.arange(size + 1, dtype=np.int32)[unset]
    spf[1] = 1
    candidates = np.arange(2, size + 1, dtype=np.int32)
    primes = candidates[spf[2:] == candidates]
    return size, spf, primes


def _ensure(top):
    """The tables, grown if needed to the power of two covering top."""
    global _state
    if _state is None or _state[0] < top:
        _state = _build(1 << (top - 1).bit_length())
    return _state


def sieve_limit():
    """Largest index the sieve factors: MAX_INDEX.  Builds nothing."""
    return MAX_INDEX


def _check_index(n):
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"index must be an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1 or n > MAX_INDEX:
        raise DomainError(f"index {n} outside [1, sieve limit {MAX_INDEX}]")
    _ensure(n)
    return n


def _integer_array(ns):
    """ns as an int64 array; DomainError unless its dtype is integer.

    An empty input passes whatever its dtype, so () and [] are valid.
    """
    arr = np.asarray(ns)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise DomainError(f"indices must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _indices(n):
    """Validated indices as a flat int64 copy, and the shape of n."""
    arr = _integer_array(n)
    top = int(arr.max()) if arr.size else 1
    if arr.size and (arr.min() < 1 or top > MAX_INDEX):
        raise DomainError(f"indices must lie in [1, sieve limit {MAX_INDEX}]")
    _ensure(top)
    return arr.flatten(), arr.shape


def _prime_walk(rest):
    """Yield (positions, j) once per pass of the lockstep walk over spf.

    Each pass strips the smallest prime factor p_j from every entry of
    rest still above 1, in place, so a position sees the primes of its
    factorization in ascending order, repeated by multiplicity, and the
    number of passes is the largest Omega(n) in rest.
    """
    _, spf, primes = _state
    live = np.flatnonzero(rest > 1)
    while live.size:
        p = spf[rest[live]]
        yield live, np.searchsorted(primes, p) + 1
        rest[live] //= p
        live = live[rest[live] > 1]


def _shaped(flat, shape):
    """flat in the caller's shape; an integer in gives a Python scalar out."""
    return flat.reshape(shape) if shape else flat.item()


def factor_pairs(n):
    """Prime factorization of n as ((p, e), ...) with p ascending."""
    n = _check_index(n)
    _, spf, _ = _state
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def prime_index(p):
    """Position of the prime p in the ascending prime list (1-based)."""
    p = _check_index(p)
    primes = _state[2]
    j = int(np.searchsorted(primes, p))
    if j == len(primes) or primes[j] != p:
        raise DomainError(f"{p} is not a prime below the sieve limit")
    return j + 1


def weighted_degree(n):
    """omega(n) = sum_j j*kappa_j over the factorization n = prod p_j^kappa_j.

    n is an integer or an integer array; the result has its shape (an
    int for an integer).  Completely additive: weighted_degree(a*b)
    equals the sum of the parts.
    """
    rest, shape = _indices(n)
    total = np.zeros(rest.size, dtype=np.int64)
    for live, j in _prime_walk(rest):
        total[live] += j
    return _shaped(total, shape)


def max_prime_index(n):
    """Index j of the largest prime factor p_j of n; 0 for n = 1.

    Elementwise on an integer array, like weighted_degree.
    """
    rest, shape = _indices(n)
    top = np.zeros(rest.size, dtype=np.int64)
    for live, j in _prime_walk(rest):
        top[live] = j  # primes arrive ascending: the last one is the largest
    return _shaped(top, shape)


def is_smooth(n, d):
    """True where every prime factor of n is among the first d primes.

    d = None admits every index in range.  Elementwise on an integer
    array, like weighted_degree.
    """
    if d is not None and d < 1:
        raise DomainError(f"prime budget must be >= 1, got {d}")
    return max_prime_index(n) <= (math.inf if d is None else d)


def is_smooth_over(n, primes):
    """True where every prime factor of n lies in the collection primes.

    1 has no prime factor, so it is smooth over any set, the empty one
    included.  Elementwise on an integer array, like weighted_degree.
    """
    rest, shape = _indices(n)
    allowed = list(primes)
    keep = np.ones(rest.size, dtype=bool)
    for live, j in _prime_walk(rest):
        keep[live] &= np.isin(_state[2][j - 1], allowed)
    return _shaped(keep, shape)


def smooth_indices(n_max, prime_budget=None):
    """Indices 1..n_max, filtered to d-smooth values when a budget is set."""
    n_max = _check_index(n_max)
    if prime_budget is None:
        return list(range(1, n_max + 1))
    ns = np.arange(1, n_max + 1)
    return ns[is_smooth(ns, prime_budget)].tolist()
