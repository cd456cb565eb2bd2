"""Smallest-prime-factor sieve and multiplicative index bookkeeping.

Positive integers are identified with prime-exponent tuples through
n = prod_j p_j^(kappa_j).  One cached sieve holds the smallest-prime-factor
table spf, the ascending array of primes (the index j of a prime is its
position there), and two tables filled from spf by one recurrence over
p = spf[n] (Gries and Misra, CACM 21(12), 1978): the weighted degree
omega[n] = omega[n // p] + j(p) and the largest prime index
gpi[n] = max(gpi[n // p], j(p)).  Since n // p <= n / 2, the dyadic block
[2^k, 2^(k+1)) reads only earlier blocks, so each block is one vectorized
step.  Every multiplicative query on indices (weighted degree, largest
prime index, d-smoothness over the first d primes) is then one gather,
so an integer and an integer array take the same route.  A prime's own
index is its largest prime index, which factorize reads after the spf
walk of factor_pairs.  Smoothness over an arbitrary prime
set is no sieve query: weakprod generates those indices directly, as
products of prime powers.

Every index query lies in [1, MAX_INDEX], which _indices alone checks,
before any table is touched; products of indices (a window's, a
convolution's) are never factored and may lie past it.  The tables are
built on demand: they cover the power of two at or above the largest
index queried so far, and are rebuilt larger, all together, only when a
later query needs it, so a process that factors nothing builds nothing.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, _integer, _integer_array

# the range of every index query, read at call time
MAX_INDEX = 1 << 20


class _Tables(NamedTuple):
    size: int  # a power of two; every table below but primes covers [0, size]
    spf: np.ndarray
    primes: np.ndarray
    omega: np.ndarray
    gpi: np.ndarray


_state = None  # the _Tables, built on demand


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
    omega = np.zeros(size + 1, dtype=np.int32)
    gpi = np.zeros(size + 1, dtype=np.int32)
    # a prime's entry is its index j(p) before the recurrence and after
    # it, so gpi[spf] is j(spf) in every block
    gpi[primes] = np.arange(1, primes.size + 1, dtype=np.int32)
    # block [lo, hi) reads rest = n // p <= n / 2 < lo, so a table filled
    # block by block from table[1] reads only finished entries
    lo = 2
    while lo <= size:
        hi = min(2 * lo, size + 1)
        p = spf[lo:hi]
        rest = np.arange(lo, hi, dtype=np.int32) // p
        j = gpi[p]
        np.add(omega[rest], j, out=omega[lo:hi])
        np.maximum(gpi[rest], j, out=gpi[lo:hi])
        lo = hi
    return _Tables(size, spf, primes, omega, gpi)


def _ensure(top):
    """The tables, grown if needed to the power of two covering top."""
    global _state
    if _state is None or _state.size < top:
        _state = _build(1 << (top - 1).bit_length())
    return _state


def sieve_limit():
    """Largest index the sieve factors: MAX_INDEX.  Builds nothing."""
    return MAX_INDEX


def _indices(n):
    """n as a validated int64 array of its shape, with the tables covering it."""
    arr = _integer_array(n)
    top = int(arr.max(initial=1))
    if arr.min(initial=1) < 1 or top > MAX_INDEX:
        raise DomainError(f"indices must lie in [1, sieve limit {MAX_INDEX}]")
    return arr, _ensure(top)


def _gather(table, arr):
    """table[arr] in arr's shape; a 0-d arr gives a Python scalar out."""
    out = table[arr]
    return out if arr.ndim else out.item()


def factor_pairs(n):
    """Prime factorization of n as ((p, e), ...) with p ascending."""
    n = _integer(n, "index")
    spf = _indices(n)[1].spf
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def factorize(n):
    """Exponent tuple kappa with n = prod_j p_j^(kappa_j); () for 1.

    The tuple ends at the index of the largest prime factor, so it has
    no trailing zeros.  Each prime's index j(p) is its gpi entry.
    """
    pairs = factor_pairs(n)
    exps = [0] * int(_state.gpi[n])
    for p, e in pairs:
        exps[_state.gpi[p] - 1] = e
    return tuple(exps)


def weighted_degree(n):
    """omega(n) = sum_j j*kappa_j over the factorization n = prod p_j^kappa_j.

    n is an integer or an integer array; the result has its shape (an
    int for an integer).  Completely additive: weighted_degree(a*b)
    equals the sum of the parts.
    """
    arr, tables = _indices(n)
    return _gather(tables.omega, arr)


def max_prime_index(n):
    """Index j of the largest prime factor p_j of n; 0 for n = 1.

    Elementwise on an integer array, like weighted_degree.
    """
    arr, tables = _indices(n)
    return _gather(tables.gpi, arr)


def is_smooth(n, d):
    """True where every prime factor of n is among the first d primes.

    d = None admits every index in range.  Elementwise on an integer
    array, like weighted_degree.
    """
    bound = math.inf if d is None else _integer(d, "prime budget", 1)
    return max_prime_index(n) <= bound


def smooth_indices(n_max, prime_budget=None):
    """Indices 1..n_max, filtered to d-smooth values when a budget is set."""
    n_max = _integer(n_max, "index")
    _indices(n_max)
    ns = np.arange(1, n_max + 1)
    return ns[is_smooth(ns, prime_budget)].tolist()
