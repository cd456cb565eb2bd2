import bisect
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from helson import (
    DomainError,
    MHilbertSymbol,
    assemble,
    factorize,
    is_smooth,
    sieve,
    sieve_limit,
)
from helson.cli import main
from helson.sieve import factor_pairs, max_prime_index, smooth_indices, weighted_degree
from helson.operator import Window


def test_factor_pairs_basics():
    assert factor_pairs(1) == ()
    assert factor_pairs(2) == ((2, 1),)
    assert factor_pairs(12) == ((2, 2), (3, 1))
    assert factor_pairs(360) == ((2, 3), (3, 2), (5, 1))


def test_factor_pairs_random_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 100000))
        prod = 1
        for p, e in factor_pairs(n):
            prod *= p**e
        assert prod == n


def test_factor_pairs_rejects_out_of_range():
    with pytest.raises(DomainError) as exc:
        factor_pairs(0)
    assert str(sieve_limit()) in str(exc.value)
    with pytest.raises(DomainError):
        factor_pairs(sieve_limit() + 1)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_a_bool_is_not_an_index(flag):
    # the array path refuses a bool dtype, and the scalar path a bool
    queries = (factor_pairs, smooth_indices, weighted_degree,
               lambda n: assemble(MHilbertSymbol(), n))
    for query in queries:
        with pytest.raises(DomainError, match="integer"):
            query(flag)


def test_nth_prime_and_index():
    # the j-th prime has index j, its own largest prime index
    for j, p in enumerate(oracles.primes_upto(1000), start=1):
        assert max_prime_index(p) == j


def test_weighted_degree_values():
    # omega(p_j^k) = j*k, completely additive
    assert weighted_degree(1) == 0
    assert weighted_degree(2) == 1
    assert weighted_degree(3) == 2
    assert weighted_degree(12) == 4
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = int(rng.integers(1, 900))
        b = int(rng.integers(1, 900))
        assert weighted_degree(a * b) == weighted_degree(a) + weighted_degree(b)


def test_is_smooth():
    assert is_smooth(8, 1)
    assert not is_smooth(3, 1)
    assert is_smooth(12, 2)
    assert not is_smooth(10, 2)
    assert is_smooth(1, 1)
    assert all(is_smooth(n, None) for n in range(1, 50))
    with pytest.raises(DomainError):
        is_smooth(8, 0)


# Smoothness over a prime set is no sieve query: xnorm generates the
# indices <= N whose primes all lie in a set as products of prime powers
# (Window.smooth_over), checked here against trial division.
def _smooth_over(primes, n_max):
    window = Window(np.arange(1, n_max + 1))
    return window.indices[window.smooth_over(primes)]


@functools.lru_cache(maxsize=1)
def _prime_sets(limit):
    """The set of prime factors of each n in [1, limit], by trial division."""
    primes = reference_primes(limit)
    return [{primes[j - 1] for j, _ in oracles.trial_factor(n, primes)}
            for n in range(1, limit + 1)]


def _smooth_over_reference(primes, n_max):
    return [n for n, own in enumerate(_prime_sets(1 << 13)[:n_max], start=1)
            if own <= set(primes)]


@pytest.mark.parametrize("primes", [(), (2,), (3,), (2, 3), (3, 5, 7), (2, 11, 13),
                                    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29), (4093,)])
def test_is_smooth_over_matches_trial_division(primes):
    expect = _smooth_over_reference(primes, 1 << 12)
    assert _smooth_over(primes, 1 << 12).tolist() == expect
    assert _smooth_over(set(primes), 1 << 12).tolist() == expect


def test_is_smooth_over_the_empty_set_keeps_only_1():
    for n_max in (1, 2, 1024):
        assert _smooth_over((), n_max).tolist() == [1]
    assert _smooth_over((2, 3), 1).tolist() == [1]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 1 << 13),
       st.lists(st.one_of(st.sampled_from(oracles.primes_upto(29)),
                          st.sampled_from(oracles.primes_upto(8209))), max_size=6))
@example(1 << 13, [])
@example(1 << 13, [8191])
@example(1 << 13, [2, 8209])
@example(8190, [8191, 3])
def test_smooth_over_matches_trial_division(n_max, primes):
    got = _smooth_over(primes, n_max)
    assert got.dtype == np.int64
    assert got.tolist() == _smooth_over_reference(primes, n_max)


def test_smooth_indices():
    assert smooth_indices(10, 1) == [1, 2, 4, 8]
    assert smooth_indices(10, 2) == [1, 2, 3, 4, 6, 8, 9]
    assert smooth_indices(5, None) == [1, 2, 3, 4, 5]
    # d-smooth sets are closed under products inside the window
    sm = set(smooth_indices(64, 2))
    for i in sm:
        for j in sm:
            if i * j <= 64:
                assert i * j in sm


def test_max_prime_index():
    assert max_prime_index(1) == 0
    assert max_prime_index(8) == 1
    assert max_prime_index(15) == 3


@functools.lru_cache(maxsize=1)
def reference_primes(limit):
    return oracles.primes_upto(limit)


def test_prime_index_on_every_prime_below_2_16():
    primes = reference_primes(sieve_limit())
    small = primes[: np.searchsorted(primes, 1 << 16, side="right")]
    assert max_prime_index(np.array(small)).tolist() == list(range(1, len(small) + 1))


def _index_arrays(data, limit):
    # shapes (), (k,) and (a, b); 1 and the sieve limit are drawn often
    shape = data.draw(array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=6))
    entries = st.one_of(st.sampled_from([1, limit]), st.integers(1, limit))
    return data.draw(arrays(np.int64, shape, elements=entries))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_queries_match_trial_division(data):
    limit = sieve_limit()
    primes = reference_primes(limit)
    ns = _index_arrays(data, limit)
    d = data.draw(st.one_of(st.none(), st.integers(1, 8)))
    want_omega = [oracles.weighted_degree_reference(n, primes) for n in ns.ravel().tolist()]
    want_top = [oracles.max_prime_index_reference(n, primes) for n in ns.ravel().tolist()]
    want_smooth = [d is None or top <= d for top in want_top]
    for got, want in ((weighted_degree(ns), want_omega),
                      (max_prime_index(ns), want_top),
                      (is_smooth(ns, d), want_smooth)):
        assert np.shape(got) == ns.shape
        assert np.ravel(got).tolist() == want
    if ns.ndim == 0:
        # an integer in gives a Python scalar out
        n = int(ns)
        assert weighted_degree(n) == want_omega[0] and type(weighted_degree(n)) is int
        assert max_prime_index(n) == want_top[0] and type(max_prime_index(n)) is int
        assert is_smooth(n, d) is want_smooth[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_walk_queries_reject_bad_indices(data):
    limit = sieve_limit()
    ns = _index_arrays(data, limit)
    kind = data.draw(st.sampled_from(["low", "high", "float"]))
    if kind == "float":
        # integral values do not rescue a non-integer dtype
        ns = ns.astype(np.float64) + data.draw(st.sampled_from([0.0, 0.5]))
    else:
        bad = data.draw(st.integers(-(1 << 40), 0) if kind == "low"
                        else st.integers(limit + 1, 1 << 40))
        ns.flat[data.draw(st.integers(0, ns.size - 1))] = bad
    for query in (weighted_degree, max_prime_index, lambda x: is_smooth(x, 3)):
        with pytest.raises(DomainError):
            query(ns)


def test_empty_index_arrays_are_valid():
    for empty in ([], (), np.zeros(0), np.zeros((0, 3), dtype=np.int64)):
        shape = np.shape(empty)
        assert weighted_degree(empty).shape == shape
        assert max_prime_index(empty).shape == shape
        assert is_smooth(empty, 2).shape == shape


@pytest.mark.parametrize("n_max", [1, 2048])
def test_smooth_indices_match_trial_division(n_max):
    primes = reference_primes(sieve_limit())
    tops = [oracles.max_prime_index_reference(n, primes) for n in range(1, n_max + 1)]
    for d in (1, 2, 3, 5):
        want = [n for n, top in enumerate(tops, start=1) if top <= d]
        assert smooth_indices(n_max, d) == want
    # a budget above the prime count admits every index
    assert smooth_indices(n_max, len(primes) + 1) == list(range(1, n_max + 1))


def test_max_index_override(monkeypatch):
    # the range is read at call time, so a lowered one refuses at once
    monkeypatch.setattr(sieve, "MAX_INDEX", 100)
    assert sieve_limit() == 100
    with pytest.raises(DomainError):
        factorize(101)
    monkeypatch.undo()
    assert sieve_limit() == 1 << 20


def _reference_query(name, n, d, primes):
    """The answer of one sieve query by trial division."""
    if name == "factor_pairs":
        return tuple((primes[j - 1], e) for j, e in oracles.trial_factor(n, primes))
    if name == "weighted_degree":
        return oracles.weighted_degree_reference(n, primes)
    if name == "is_smooth":
        return d is None or oracles.max_prime_index_reference(n, primes) <= d
    return oracles.max_prime_index_reference(n, primes)


_QUERIES = {
    "factor_pairs": lambda n, d: factor_pairs(n),
    "weighted_degree": lambda n, d: weighted_degree(n),
    "is_smooth": is_smooth,
    "max_prime_index": lambda n, d: max_prime_index(n),
}


def _prime_at_most(n):
    primes = reference_primes(sieve.MAX_INDEX)
    return primes[bisect.bisect_right(primes, n) - 1]


def _query_index():
    # small indices grow the tables step by step; primes are their own top index
    limit = sieve.MAX_INDEX
    prime = st.integers(2, limit).map(_prime_at_most)
    return st.one_of(st.integers(1, 64), st.integers(1, limit), st.just(limit), prime)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_QUERIES)), _query_index(),
                          st.one_of(st.none(), st.integers(1, 8))),
                min_size=1, max_size=8))
def test_tables_grow_on_demand(queries):
    primes = reference_primes(sieve.MAX_INDEX)
    saved = sieve._state
    sieve._state = None
    try:
        top = size = 0
        for name, n, d in queries:
            assert _QUERIES[name](n, d) == _reference_query(name, n, d, primes)
            # the tables never shrink and cover the largest query so far
            # with the power of two at or above it
            top = max(top, n)
            grown = sieve._state[0]
            assert grown >= size and grown & (grown - 1) == 0
            assert grown >= top and (grown == 1 or grown // 2 < top)
            # every table indexed by n is rebuilt with the others
            tables = sieve._state
            assert [len(t) for t in (tables.spf, tables.omega, tables.gpi)] == [grown + 1] * 3
            assert len(tables.primes) == bisect.bisect_right(primes, grown)
            size = grown
    finally:
        sieve._state = saved


# The omega and gpi tables are filled block by block over [2^k, 2^(k+1)),
# each block reading n // spf[n] in earlier blocks: an off-by-one in the
# block bounds or at the top shows first at 2^k - 1, 2^k and 2^k + 1.
EXHAUSTIVE_TOP = 1 << 13
BLOCK_EDGES = sorted({m for k in range(1, 14) for m in (2**k - 1, 2**k, 2**k + 1)}
                     - {EXHAUSTIVE_TOP + 1})


def test_every_index_to_2_13_matches_trial_division(monkeypatch):
    # built afresh at 2^13, so the last block ends at the table's end
    monkeypatch.setattr(sieve, "_state", None)
    primes = reference_primes(EXHAUSTIVE_TOP)
    ns = np.arange(1, EXHAUSTIVE_TOP + 1)
    factors = [oracles.trial_factor(n, primes) for n in ns.tolist()]
    omega = [sum(j * e for j, e in f) for f in factors]
    top = [f[-1][0] if f else 0 for f in factors]
    assert weighted_degree(ns).tolist() == omega
    assert sieve._state.size == EXHAUSTIVE_TOP
    assert max_prime_index(ns).tolist() == top
    for d in (1, 2, 3, 5, None):
        want = [d is None or t <= d for t in top]
        assert is_smooth(ns, d).tolist() == want
        if d is not None:
            assert smooth_indices(EXHAUSTIVE_TOP, d) == [n for n, ok in zip(ns, want) if ok]
    for m in BLOCK_EDGES:
        assert weighted_degree(m) == omega[m - 1], m
        assert max_prime_index(m) == top[m - 1], m


def test_past_max_index_is_refused_before_any_build(monkeypatch):
    monkeypatch.setattr(sieve, "_state", None)
    past = sieve.MAX_INDEX + 1
    for query in (factor_pairs, weighted_degree, max_prime_index,
                  lambda n: is_smooth(n, 2), lambda n: weighted_degree([1, n]),
                  smooth_indices):
        with pytest.raises(DomainError):
            query(past)
    assert sieve._state is None


def test_a_cli_run_builds_only_the_table_it_factors(monkeypatch, capsys):
    monkeypatch.setattr(sieve, "_state", None)
    assert sieve_limit() == sieve.MAX_INDEX
    assert sieve._state is None
    code = main(["essnorm", "mhilbert", "--grid", "0.9,0.99,0.999", "--N", "32,64"])
    capsys.readouterr()
    assert code == 0
    assert sieve._state is not None and sieve._state[0] <= 4096
