"""Smallest-prime-factor sieve and multiplicative index bookkeeping.

Positive integers are identified with prime-exponent tuples through
n = prod_j p_j^(kappa_j).  Everything downstream (weighted degrees,
divisor sums, smoothness filters) routes through one cached sieve.

The cap defaults to 2**20.  It can be overridden by the environment
variable HELSON_SIEVE_LIMIT or programmatically via set_sieve_limit();
an explicit set_sieve_limit() call wins over the environment.
"""

import math
import os

import numpy as np

from .errors import DomainError

DEFAULT_LIMIT = 1 << 20
ENV_LIMIT = "HELSON_SIEVE_LIMIT"

# hard bounds on the configurable cap; above 2**28 the spf table alone
# costs more than a gigabyte, which is past desk scale
_MIN_LIMIT = 16
_MAX_LIMIT = 1 << 28

_explicit_limit = None
_state = None  # (limit, spf, primes, prime_index)


def _requested_limit():
    if _explicit_limit is not None:
        return _explicit_limit
    raw = os.environ.get(ENV_LIMIT)
    if raw is None:
        return DEFAULT_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise DomainError(f"{ENV_LIMIT} must be an integer, got {raw!r}")
    _check_limit(limit)
    return limit


def _check_limit(limit):
    if not (_MIN_LIMIT <= limit <= _MAX_LIMIT):
        raise DomainError(
            f"sieve limit must lie in [{_MIN_LIMIT}, {_MAX_LIMIT}], got {limit}"
        )


def _build(limit):
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    unset = spf == 0
    spf[unset] = np.arange(limit + 1, dtype=np.int32)[unset]
    spf[1] = 1
    candidates = np.arange(2, limit + 1, dtype=np.int32)
    primes = candidates[spf[2:] == candidates]
    index = {int(p): j + 1 for j, p in enumerate(primes)}
    return limit, spf, primes, index


def _ensure():
    global _state
    want = _requested_limit()
    if _state is None or _state[0] != want:
        _state = _build(want)
    return _state


def set_sieve_limit(limit):
    """Set the sieve cap; pass None to fall back to the env var/default."""
    global _explicit_limit, _state
    if limit is not None:
        limit = int(limit)
        _check_limit(limit)
    _explicit_limit = limit
    _state = None


def sieve_limit():
    """Largest index the current sieve can factor."""
    return _ensure()[0]


def _check_index(n):
    limit, _, _, _ = _ensure()
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"index must be an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1 or n > limit:
        raise DomainError(f"index {n} outside [1, sieve limit {limit}]")
    return n


def factor_pairs(n):
    """Prime factorization of n as ((p, e), ...) with p ascending."""
    n = _check_index(n)
    _, spf, _, _ = _state
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def nth_prime(j):
    """The j-th prime, 1-based: nth_prime(1) = 2."""
    _, _, primes, _ = _ensure()
    if not (1 <= j <= len(primes)):
        raise DomainError(f"prime index {j} outside [1, {len(primes)}]")
    return int(primes[j - 1])


def prime_index(p):
    """Position of the prime p in the ascending prime list (1-based)."""
    _, _, _, index = _ensure()
    j = index.get(int(p))
    if j is None:
        raise DomainError(f"{p} is not a prime below the sieve limit")
    return j


def weighted_degree(n):
    """omega(n) = sum_j j*kappa_j over the factorization n = prod p_j^kappa_j.

    Completely additive: weighted_degree(a*b) equals the sum of the parts.
    """
    total = 0
    for p, e in factor_pairs(n):
        total += prime_index(p) * e
    return total


def weighted_degrees(ns):
    """omega over an integer array, by walking the spf table in lockstep.

    Each pass strips one prime factor from every entry still above 1, so
    the number of passes is the largest Omega(n) in the array.
    """
    limit, spf, primes, _ = _ensure()
    rest = np.array(ns, dtype=np.int64)
    if rest.size and (rest.min() < 1 or rest.max() > limit):
        raise DomainError(f"indices must lie in [1, sieve limit {limit}]")
    total = np.zeros(rest.shape, dtype=np.int64)
    flat_rest, flat_total = rest.reshape(-1), total.reshape(-1)
    live = np.flatnonzero(flat_rest > 1)
    while live.size:
        p = spf[flat_rest[live]]
        flat_total[live] += np.searchsorted(primes, p) + 1
        flat_rest[live] //= p
        live = live[flat_rest[live] > 1]
    return total


def divisors(n):
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factor_pairs(n):
        powers = [p**k for k in range(1, e + 1)]
        divs += [d * q for d in divs for q in powers]
    return sorted(divs)


def max_prime_index(n):
    """Index of the largest prime factor of n; 0 for n = 1."""
    pairs = factor_pairs(n)
    if not pairs:
        return 0
    return prime_index(pairs[-1][0])


def is_smooth(n, d):
    """True when every prime factor of n is among the first d primes."""
    if d is None:
        _check_index(n)
        return True
    if d < 1:
        raise DomainError(f"prime budget must be >= 1, got {d}")
    return max_prime_index(n) <= d


def smooth_indices(n_max, prime_budget=None):
    """Indices 1..n_max, filtered to d-smooth values when a budget is set."""
    n_max = _check_index(n_max)
    if prime_budget is None:
        return list(range(1, n_max + 1))
    if prime_budget < 1:
        raise DomainError(f"prime budget must be >= 1, got {prime_budget}")
    return [n for n in range(1, n_max + 1) if max_prime_index(n) <= prime_budget]
