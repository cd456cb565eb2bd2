"""Sequence against a plain-dict model of its semantics.

The model stores n -> complex in ascending order, adds the values at a
repeated index one at a time from 0j, and drops exact zeros; every
operation rebuilds its result through that constructor.  Sequence keeps
two arrays instead, and must agree with the model entry for entry, bit
for bit.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helson import DomainError, Sequence, dilate, filter_smooth, sequence_from_triples
from oracles import primes_upto, trial_factor

PRIMES = primes_upto(64)

# small indices force repeats; the sampled values cancel one another exactly
INDICES = st.integers(1, 40)
VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1j, -1j, 0.25 - 2j, -0.25 + 2j]),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)
ENTRIES = st.lists(st.tuples(INDICES, VALUES), max_size=12)
SCALARS = st.one_of(
    st.sampled_from([0, 0.0, 0j, 1, -1.0, 2.5, 1j, 0.3 - 0.7j]),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


def model(pairs):
    data = {}
    for n, v in pairs:
        data[n] = data.get(n, 0j) + complex(v)
    return {n: data[n] for n in sorted(data) if data[n] != 0}


def model_add(x, y):
    out = dict(x)
    for n, v in y.items():
        out[n] = out.get(n, 0j) + v
    return model(out.items())


def model_scale(s, x):
    s = complex(s)
    return model((n, s * v) for n, v in x.items())


def model_degree(n):
    return sum(j * e for j, e in trial_factor(n, PRIMES))


def model_smooth(n, d):
    return all(j <= d for j, _ in trial_factor(n, PRIMES))


def agree(seq, ref):
    assert list(seq.items()) == list(ref.items())
    assert seq.support == tuple(ref)
    assert len(seq) == len(ref) and bool(seq) == bool(ref)
    assert seq.max_index == max(ref, default=0)
    for n in range(0, 45):
        assert seq[n] == ref.get(n, 0j)
    ns = np.arange(1, 45)
    assert seq.values(ns).tolist() == [ref.get(n, 0j) for n in ns.tolist()]
    want = math.hypot(*(abs(v) for v in ref.values()))
    assert seq.norm() == pytest.approx(want, rel=1e-13, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(ENTRIES)
@example([])
@example([(3, 1.0), (3, -1.0)])
@example([(5, 0.25 - 2j), (2, 1.0), (5, -0.25 + 2j), (2, 0.5)])
def test_construction_matches_model(pairs):
    agree(Sequence(pairs), model(pairs))
    agree(Sequence(dict(pairs)), model(dict(pairs).items()))


@settings(max_examples=200, deadline=None)
@given(ENTRIES, ENTRIES)
@example([(2, 1.0)], [(2, 1.0)])
@example([], [])
def test_sum_and_difference_match_model(p, q):
    a, b = Sequence(p), Sequence(q)
    x, y = model(p), model(q)
    agree(a + b, model_add(x, y))
    agree(a - b, model_add(x, model_scale(-1.0, y)))
    agree(-a, model_scale(-1.0, x))
    agree(a - a, {})


@settings(max_examples=200, deadline=None)
@given(ENTRIES, SCALARS)
@example([(4, 1.5j)], 0)
def test_scalar_product_matches_model(p, s):
    a, x = Sequence(p), model(p)
    agree(s * a, model_scale(s, x))
    agree(a * s, model_scale(s, x))


@settings(max_examples=200, deadline=None)
@given(ENTRIES, st.integers(0, 45), st.integers(1, 5), st.floats(0.05, 0.95))
def test_unary_operations_match_model(p, window, budget, r):
    a, x = Sequence(p), model(p)
    agree(a.conjugate(), model((n, v.conjugate()) for n, v in x.items()))
    agree(a.restrict(window), model((n, v) for n, v in x.items() if n <= window))
    agree(filter_smooth(a, budget),
          model((n, v) for n, v in x.items() if model_smooth(n, budget)))
    assert filter_smooth(a, None) == a
    agree(dilate(r, a), model((n, r ** model_degree(n) * v) for n, v in x.items()))


@settings(max_examples=300, deadline=None)
@given(ENTRIES, ENTRIES)
@example([(2, 1.0), (2, -1.0)], [])
@example([(1, 1.0), (7, 2j)], [(7, 1j), (1, 0.5), (1, 0.5), (7, 1j)])
def test_equality_and_hash_match_model(p, q):
    a, b = Sequence(p), Sequence(q)
    assert (a == b) == (model(p) == model(q))
    if a == b:
        assert hash(a) == hash(b)
    assert a == Sequence(model(p)) and hash(a) == hash(Sequence(model(p)))


@pytest.mark.parametrize("entries, message", [
    ({2.5: 1.0}, "sequence index must be an integer, got float"),
    ({2.0: 1.0}, "sequence index must be an integer, got float"),
    ({"3": 1.0}, "sequence index must be an integer, got str"),
    ({None: 1.0}, "sequence index must be an integer, got NoneType"),
    ({0: 1.0}, "sequence index must be >= 1, got 0"),
    ({-3: 1.0}, "sequence index must be >= 1, got -3"),
    ({2: float("inf")}, "sequence values must be finite, got (inf+0j)"),
    ({2: complex(0.0, float("nan"))}, "sequence values must be finite, got nanj"),
    ({2**63: 1.0}, "sequence index must be below 2^63, got 9223372036854775808"),
    ({1: 1.0, 2**70: 1.0}, "sequence index must be below 2^63, got " + str(2**70)),
    # a bool is an int, but no index, as in sequence_from_triples
    ({True: 2.0}, "sequence index must be an integer, got bool"),
    ({np.True_: 2.0}, "sequence index must be an integer, got " + type(np.True_).__name__),
])
def test_constructor_refusals(entries, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        Sequence(entries)


# parts of either sign of zero, subnormal and large
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0**-1074, -(2.0**-1074), 1e300])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2**62), PARTS, PARTS), max_size=30,
                unique_by=lambda t: t[0]), st.randoms(use_true_random=False))
@example([(1, -0.0, -0.0), (2, 0.0, -0.0), (3, -0.0, 1.0), (5, -1.5, -0.0)], None)
def test_ascending_keys_give_the_bytes_of_a_shuffled_copy(entries, rnd):
    # ascending keys skip the class sum, a shuffled copy takes it; both give
    # the same bytes: -0.0 parts read +0.0 and exact zeros are dropped
    entries = sorted(entries)
    keys = np.array([n for n, _, _ in entries], dtype=np.int64)
    vals = np.empty(len(entries), dtype=np.complex128)
    vals.real = [re for _, re, _ in entries]
    vals.imag = [im for _, _, im in entries]
    order = np.arange(len(entries))[::-1] if rnd is None else np.array(
        rnd.sample(range(len(entries)), len(entries)), dtype=np.intp)
    ascending = Sequence._from_arrays(keys, vals)
    shuffled = Sequence._from_arrays(keys[order], vals[order])
    for got, want in [(ascending._keys, shuffled._keys), (ascending._vals, shuffled._vals)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for part in (ascending._vals.real, ascending._vals.imag):
        assert not np.signbit(part[part == 0]).any()
    assert len(ascending.support) == sum(re != 0 or im != 0 for _, re, im in entries)


def test_norm_of_tiny_entries_does_not_underflow():
    # the squares, 9e-400 and 16e-400, are 0 in float64
    a = Sequence({1: 3e-200, 4: 4e-200j})
    assert a.norm() == pytest.approx(5e-200, rel=1e-15, abs=0.0)
    assert (2.0 * a).norm() == pytest.approx(1e-199, rel=1e-15, abs=0.0)


def test_largest_int64_index_is_kept():
    top = 2**63 - 1
    a = Sequence({1: 1.0, top: 2.0})
    assert a.max_index == top and a[top] == 2.0
    with pytest.raises(DomainError, match="below 2\\^63"):
        sequence_from_triples([[1, 1.0, 0.0], [2**63, 1.0, 0.0]])
