"""The array symbol protocol: values(ns) against value(n), and random-decay."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helson import (
    DomainError,
    GeometricDecay,
    MHilbertSymbol,
    PowerSymbol,
    RandomDecaySymbol,
    Sequence,
    assemble,
    dilate_symbol,
    dilation_weight,
    parse_fixture,
    save_sequence,
    symbol_values,
)
from helson.fixtures import splitmix64
from helson.sieve import weighted_degree
from oracles import primes_upto, weighted_degree_reference

FIXTURE_SPECS = ("delta:3", "power:0.75", "mhilbert", "random-decay:7,0.5",
                 "random-decay:-2,1.25")

index_lists = st.lists(st.integers(1, 5000), max_size=40)


def all_symbols(tmp_path):
    path = tmp_path / "seq.json"
    save_sequence(Sequence({1: 1.0, 6: -2.0j, 12: 0.5 + 0.5j, 4096: 3.0}), path)
    symbols = [parse_fixture(spec) for spec in FIXTURE_SPECS]
    symbols.append(parse_fixture(f"file:{path}"))
    symbols.append(Sequence({2: 1.5, 3: -1j, 36: 0.25, 4999: 2.0}))
    symbols.append(Sequence())
    return symbols


def scalar(symbol, n):
    return symbol[n] if isinstance(symbol, Sequence) else symbol.value(n)


@settings(max_examples=40, deadline=None)
@given(index_lists)
def test_values_equal_value_exactly(tmp_path_factory, ns):
    # unsorted, with duplicates: the array and the scalar routes agree bit for bit
    ns = ns + ns[::2]
    for symbol in all_symbols(tmp_path_factory.mktemp("sym")):
        got = symbol.values(np.array(ns, dtype=np.int64))
        assert got.dtype == np.complex128 and got.shape == (len(ns),)
        want = [scalar(symbol, n) for n in ns]
        assert got.tolist() == want
        assert symbol_values(symbol, ns).tolist() == want
        assert [symbol_values(symbol, [n])[0] for n in ns] == want


@settings(max_examples=40, deadline=None)
@given(index_lists, st.integers(0, 40), st.randoms(use_true_random=False))
def test_random_decay_order_and_chunking_free(ns, cut, rnd):
    sym = RandomDecaySymbol(11, 0.5)
    whole = sym.values(np.array(ns, dtype=np.int64))
    cut = min(cut, len(ns))
    parts = np.concatenate([sym.values(np.array(ns[:cut], dtype=np.int64)),
                            sym.values(np.array(ns[cut:], dtype=np.int64))])
    assert parts.tolist() == whole.tolist()
    perm = list(range(len(ns)))
    rnd.shuffle(perm)
    shuffled = sym.values(np.array([ns[i] for i in perm], dtype=np.int64))
    assert shuffled.tolist() == [whole[i] for i in perm]
    # a fresh instance is the same function
    assert RandomDecaySymbol(11, 0.5).values(np.array(ns)).tolist() == whole.tolist()


def test_random_decay_seeds_decorrelate():
    ns = np.arange(1, 20001)
    z = {seed: RandomDecaySymbol(seed, 0.0).values(ns) for seed in (0, 1, 2, -1)}
    for a in z:
        for b in z:
            if a < b:
                corr = abs(np.vdot(z[a], z[b])) / np.sqrt(
                    np.vdot(z[a], z[a]).real * np.vdot(z[b], z[b]).real
                )
                assert corr < 0.05


def test_random_decay_is_standard_complex_gaussian():
    ns = np.arange(1, 100001)
    rate = 0.75
    z = RandomDecaySymbol(3, rate).values(ns) * ns.astype(np.float64) ** rate
    assert abs(z.mean()) < 0.02
    assert abs(np.mean(np.abs(z) ** 2) - 2.0) < 0.05
    assert abs(np.mean(z.real ** 2) - 1.0) < 0.03
    assert abs(np.mean(z.real * z.imag)) < 0.02
    # Gaussian tails: P(|Re z| > 2) = 0.0455
    assert abs(np.mean(np.abs(z.real) > 2.0) - 0.0455) < 0.005


def test_weighted_degrees_match_scalar():
    ns = np.arange(1, (1 << 16) + 1)
    primes = primes_upto(1 << 16)
    want = [weighted_degree_reference(n, primes) for n in ns.tolist()]
    assert weighted_degree(ns).tolist() == want
    square = weighted_degree(ns[:64].reshape(8, 8))
    assert square.shape == (8, 8)
    assert square.ravel().tolist() == want[:64]
    for bad in ([0, 2], [-3], [2.5, 3.99]):
        with pytest.raises(DomainError):
            weighted_degree(bad)


@pytest.mark.parametrize("call", [
    lambda: dilation_weight(0.5, 2.5),
    lambda: dilation_weight(0.5, np.array([2.0, 3.0])),
    lambda: symbol_values(MHilbertSymbol(), [2.5]),
    lambda: symbol_values(MHilbertSymbol(), [2.0]),
    lambda: symbol_values(Sequence({2: 1.0}), np.array([[2.0]])),
    lambda: MHilbertSymbol().value(2.5),
    lambda: PowerSymbol(1.0).value(2.0),
    lambda: RandomDecaySymbol(3, 0.5).value(np.float64(4.0)),
    lambda: MHilbertSymbol().values([2.5]),
    lambda: PowerSymbol(1).values([2.5]),
    lambda: Sequence({2: 1}).values([2.5]),
], ids=["weight-scalar", "weight-array", "values", "value", "sequence",
        "scalar-mhilbert", "scalar-power", "scalar-random-decay",
        "method-mhilbert", "method-power", "method-sequence"])
def test_non_integer_indices_raise(call):
    # a float index is rejected, never truncated (2.5 must not read as 2)
    with pytest.raises(DomainError):
        call()


def test_non_finite_values_are_refused_where_evaluated():
    # an overflowing power and a scalar NaN alike, with no numpy warning
    # (warnings are errors in this suite), naming the first bad index
    with pytest.raises(DomainError, match="power:-200 is not finite at index 35"):
        symbol_values(PowerSymbol(-200), np.arange(1, 64).reshape(9, 7))

    class Holey:
        def value(self, n):
            return math.nan if n % 5 == 0 else 1.0

    with pytest.raises(DomainError, match="Holey is not finite at index 10"):
        symbol_values(Holey(), [1, 2, 10, 15])
    with pytest.raises(DomainError, match="not finite"):
        assemble(PowerSymbol(-200), 64)
    assert symbol_values(Holey(), [1, 2, 3]).tolist() == [1, 1, 1]


def test_empty_index_input_stays_valid():
    assert symbol_values(MHilbertSymbol(), ()).shape == (0,)
    assert symbol_values(Sequence({2: 1.0}), []).shape == (0,)
    assert dilation_weight(0.5, np.array([])).shape == (0,)


def test_fallback_to_scalar_value():
    gen = GeometricDecay(0.5, coeff=2.0)
    ns = [3, 1, 3, 7]
    assert symbol_values(gen, ns).tolist() == [gen.value(n) for n in ns]
    with pytest.raises(DomainError):
        symbol_values(object(), ns)


def test_instance_value_override_is_honoured():
    # a wrapper assigned on the instance (counting, logging) is never bypassed
    sym = parse_fixture("mhilbert")
    plain = assemble(sym, 64).entries
    calls = []
    original = sym.value
    sym.value = lambda n: (calls.append(n), original(n))[1]
    # once per distinct product of the window 1..64, in the strided rows
    assert np.array_equal(assemble(sym, 64).entries, plain)
    products = np.arange(1, 65)[:, None] * np.arange(1, 65)[None, :]
    assert sorted(calls) == np.unique(products).tolist()
    calls.clear()
    assert dilate_symbol(sym, 0.5, 4) == dilate_symbol(parse_fixture("mhilbert"), 0.5, 4)
    assert calls == list(range(1, 17))


def test_dilation_weight_arrays_match_scalar():
    ns = np.arange(1, 2049)
    got = dilation_weight(0.7, ns)
    assert got.shape == ns.shape
    assert got.tolist() == [0.7 ** weighted_degree(int(n)) for n in ns]
    assert dilation_weight(0.7, 1) == 1.0


def test_fixtures_reject_bad_indices():
    for spec in FIXTURE_SPECS:
        sym = parse_fixture(spec)
        with pytest.raises(DomainError):
            sym.values(np.array([2, 0]))
        with pytest.raises(DomainError):
            sym.value(-1)


def test_random_decay_bytes_are_pinned():
    # assembled matrices and values are reproducible byte for byte; these
    # digests were recorded with numpy 2.4 on x86-64 and change only with
    # the platform's libm or with the fixture's formula
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    m = assemble(parse_fixture("random-decay:3,0.5"), 257)
    assert digest(m.entries) == (
        "aa1b04f09d801bbc9d914b93563872e9e32c1ac9d1b92b7c5a49e1f46ec3a231")
    values = RandomDecaySymbol(123456789, 0.25).values(np.arange(1, 200001))
    assert digest(values) == (
        "39f4afe78ad0bdd379ed1f0b8769618af816dafe8fb881347d2249b53e1711b1")


def _splitmix64_reference(x):
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_random_decay_matches_python_integer_reference():
    # first output of splitmix64 seeded with 0
    assert int(splitmix64(np.zeros(1, dtype=np.uint64))[0]) == 0xE220A8397B1DCDAF
    for seed, rate in ((7, 0.5), (-3, 1.25), (2**40 + 1, 0.0)):
        sym = RandomDecaySymbol(seed, rate)
        for n in (1, 2, 3, 97, 1 << 20, 1 << 40):
            x = (2 * n + seed * 0x9E3779B97F4A7C15) % (1 << 64)
            assert int(splitmix64(np.array([x], dtype=np.uint64))[0]) == _splitmix64_reference(x)
            u0 = ((_splitmix64_reference(x) >> 11) + 1) * 2.0**-53
            u1 = (_splitmix64_reference((x + 1) % (1 << 64)) >> 11) * 2.0**-53
            radius = math.sqrt(-2.0 * math.log(u0)) * float(n) ** -rate
            want = complex(radius * math.cos(2 * math.pi * u1),
                           radius * math.sin(2 * math.pi * u1))
            assert sym.value(n) == pytest.approx(want, rel=1e-13, abs=1e-300)
