import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helson import (
    DENSE_CAP,
    DomainError,
    PowerSymbol,
    Sequence,
    assemble,
    bilinear_pair,
    dilate_symbol,
    dilation_weight,
    dirichlet_convolve,
    form,
    matrix_to_csv,
    parse_fixture,
    smooth_indices,
    symbol_values,
    truncation_indices,
)
from helson.approx import _dilated
from helson.operator import product_classes

import helson
import oracles


def random_sequence(rng, max_index=16, size=6):
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Sequence({int(n): complex(v) for n, v in zip(idx, vals)})


# ------------------------------------------------------------------ assemble


def test_assemble_delta1():
    m = assemble(Sequence.delta(1), 2)
    assert np.array_equal(m.entries, np.array([[1, 0], [0, 0]], dtype=complex))


def test_assemble_power():
    m = assemble(PowerSymbol(1.0), 2)
    expect = np.array([[1, 0.5], [0.5, 0.25]])
    assert np.allclose(m.entries, expect, atol=0, rtol=1e-15)


def test_assemble_delta4_pattern():
    m = assemble(Sequence.delta(4), 4)
    expect = np.zeros((4, 4), dtype=complex)
    for i, j in ((1, 4), (2, 2), (4, 1)):
        expect[i - 1, j - 1] = 1
    assert np.array_equal(m.entries, expect)


def test_assemble_symmetry_and_entries():
    rng = np.random.default_rng(20)
    for _ in range(20):
        alpha = random_sequence(rng, max_index=64, size=10)
        m = assemble(alpha, 8)
        assert np.array_equal(m.entries, m.entries.T)
        for i, n in enumerate(m.indices):
            for j, mm in enumerate(m.indices):
                assert m.entries[i, j] == alpha[n * mm]


def test_assemble_adjoint_rule():
    rng = np.random.default_rng(21)
    alpha = random_sequence(rng, max_index=36, size=9)
    m = assemble(alpha, 6)
    mc = assemble(alpha.conjugate(), 6)
    assert np.array_equal(mc.entries, np.conj(m.entries))


def test_assemble_entries_read_only():
    m = assemble(Sequence.delta(1), 2)
    with pytest.raises((ValueError, RuntimeError)):
        m.entries[0, 0] = 5.0


def test_assemble_dense_cap():
    with pytest.raises(DomainError, match="dense assembly capped"):
        assemble(Sequence.delta(1), DENSE_CAP + 1)


def test_assemble_prime_budget():
    m = assemble(Sequence.delta(1), 10, prime_budget=1)
    assert m.indices == (1, 2, 4, 8)
    assert m.size == 4


@pytest.mark.parametrize("spec, dtype", [
    ("power:1", np.float64),
    ("mhilbert", np.float64),
    pytest.param({1: 1, 2: -1.5, 3: 0.8, 6: -0.4}, np.float64, id="real-sequence"),
    ("random-decay:3,0.5", np.complex128),
    pytest.param({1: 1, 2: -1.5j, 6: 0.4 + 0.2j}, np.complex128, id="complex-sequence"),
])
def test_assemble_keeps_the_symbol_dtype(spec, dtype):
    symbol = Sequence(spec) if isinstance(spec, dict) else parse_fixture(spec)
    m = assemble(symbol, 16)
    assert m.entries.dtype == dtype
    classes = product_classes(m.indices)
    gathered = symbol_values(symbol, classes.uniq)[classes.labels]
    if dtype is np.float64:
        gathered = gathered.real
    assert m.entries.tobytes() == gathered.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.sampled_from([None, 1, 2, 3]))
@example(1, None)
@example(8, 1)  # the powers of two up to 8: products 1..64 with gaps
@example(24, 2)  # the 3-smooth window up to 24: classes of unequal sizes
def test_product_classes_partition(n_max, budget):
    idx = np.array(smooth_indices(n_max, budget), dtype=np.int64)
    classes = product_classes(idx.tolist())
    assert np.all(np.diff(classes.uniq) > 0)
    assert np.array_equal(classes.uniq, np.unique(np.outer(idx, idx)))
    assert np.array_equal(classes.uniq[classes.labels], np.outer(idx, idx))
    assert np.array_equal(classes.labels, classes.labels.T)
    flat = classes.labels.ravel()
    assert np.array_equal(classes.counts, np.bincount(flat))
    # class sums against a bincount, of a real matrix and a complex stack
    rng = np.random.default_rng(n_max)
    dim, m = idx.size, classes.uniq.size
    real = rng.standard_normal((dim, dim))
    stack = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
    got = [classes.sums(real), *classes.sums(stack)]
    for mat, sums in zip([real, *stack], got):
        ref = np.bincount(flat, mat.real.ravel(), m)
        ref = ref + 1j * np.bincount(flat, mat.imag.ravel(), m)
        assert np.abs(sums - ref).max() <= 1e-14 * np.abs(ref).max()
    # the sorted view lists each class row-major, padded with dim
    order, starts, rows, cols = classes._sorted
    for q in range(m):
        members = np.flatnonzero(flat == q)
        size = classes.counts[q]
        assert np.array_equal(order[starts[q] : starts[q] + size], members)
        assert np.array_equal(rows[q, :size] * dim + cols[q, :size], members)
        assert np.all(rows[q, size:] == dim) and np.all(cols[q, size:] == dim)


BRUTE_SYMBOLS = {
    "delta": "delta:6",
    "power": "power:0.75",
    "mhilbert": "mhilbert",
    "random-decay": "random-decay:3,0.5",
    "real-sequence": {1: 1.0, 2: -1.5, 6: 0.8, 35: -0.4, 720: 2.5, 6241: 0.125},
    "complex-sequence": {1: 1.0, 4: -1.5j, 30: 0.4 + 0.2j, 1369: -2.0, 6400: 1j},
}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.sampled_from(sorted(BRUTE_SYMBOLS)))
@example(1, "power")
@example(80, "complex-sequence")
@example(80, "random-decay")
def test_dense_route_matches_brute_force(n_max, name):
    # every entry of a 1..N window is alpha at its own product, bit for bit
    spec = BRUTE_SYMBOLS[name]
    symbol = Sequence(spec) if isinstance(spec, dict) else parse_fixture(spec)
    idx = np.arange(1, n_max + 1)
    brute = symbol_values(symbol, np.outer(idx, idx))
    real = not brute.imag.any()
    m = assemble(symbol, n_max)
    assert m.entries.dtype == (np.float64 if real else np.complex128)
    assert m.entries.tobytes() == (brute.real if real else brute).tobytes()
    # a budget that admits every prime <= N leaves the window 1..N
    budget = max(1, len(oracles.primes_upto(n_max)))
    assert assemble(symbol, n_max, budget).entries.tobytes() == m.entries.tobytes()


def test_dense_route_sieve_limit_edge(monkeypatch):
    # products are evaluated, never factored: a window whose products
    # pass the sieve range assembles entry for entry
    with monkeypatch.context() as patch:
        patch.setattr(helson.sieve, "MAX_INDEX", 100)
        assert assemble(PowerSymbol(1.0), 10).size == 10  # 10^2 = range
        assert assemble(PowerSymbol(1.0), 11).size == 11
    symbol = parse_fixture("mhilbert")
    for budget in (2, 5):
        m = assemble(symbol, 2048, budget)
        assert m.indices == tuple(smooth_indices(2048, budget))
        idx = np.array(m.indices)
        assert idx[-1] ** 2 > helson.sieve.MAX_INDEX
        brute = symbol_values(symbol, np.outer(idx, idx))
        assert not brute.imag.any()
        assert m.entries.tobytes() == brute.real.tobytes()


def test_truncation_indices():
    assert truncation_indices(6) == [1, 2, 3, 4, 5, 6]
    assert truncation_indices(10, 2) == [1, 2, 3, 4, 6, 8, 9]


def test_symbol_value_dispatch():
    assert symbol_values(PowerSymbol(1.0), [4])[0] == pytest.approx(0.25)
    assert symbol_values(Sequence.delta(3), [3])[0] == 1.0


# ---------------------------------------------------------------------- form


def test_form_examples():
    d1 = Sequence.delta(1)
    assert form(d1, d1, d1) == pytest.approx(1.0)
    assert form(Sequence.delta(6), Sequence.delta(2), Sequence.delta(3)) == pytest.approx(
        1.0
    )


def test_form_lower_bound_witness():
    rng = np.random.default_rng(24)
    for _ in range(10):
        alpha = random_sequence(rng, max_index=12, size=6)
        restricted = alpha.restrict(12)
        a = restricted.conjugate() * (1.0 / restricted.norm())
        val = form(alpha, a, Sequence.delta(1))
        assert abs(val) == pytest.approx(restricted.norm(), rel=1e-12)


def test_form_identity_random():
    rng = np.random.default_rng(25)
    for _ in range(200):
        alpha = random_sequence(rng, max_index=256, size=8)
        a = random_sequence(rng, max_index=16, size=5)
        b = random_sequence(rng, max_index=16, size=5)
        lhs = form(alpha, a, b)
        rhs = bilinear_pair(alpha, dirichlet_convolve(a, b))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


@pytest.mark.parametrize("spec", [
    "random-decay:5,0.5",
    "mhilbert",
    pytest.param({1: 1.0, 2: -0.5j, 4: 0.25 + 1j, 6: 2.0, 9: -1j, 12: 0.5, 36: 3j},
                 id="sequence"),
])
def test_form_matches_explicit_double_sum(spec):
    # sum_n sum_m a(n) conj(b(m)) alpha(nm), pair by pair, with alpha read
    # one index at a time: no product classes, no convolution
    symbol = Sequence(spec) if isinstance(spec, dict) else parse_fixture(spec)
    alpha = symbol.__getitem__ if isinstance(spec, dict) else symbol.value
    rng = np.random.default_rng(27)
    for _ in range(25):
        a = random_sequence(rng, max_index=16, size=int(rng.integers(1, 7)))
        b = random_sequence(rng, max_index=16, size=int(rng.integers(1, 7)))
        want = sum(av * bv.conjugate() * alpha(n * m)
                   for n, av in a.items() for m, bv in b.items())
        assert form(symbol, a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert form(symbol, Sequence(), a) == 0


# ------------------------------------------------------------ dilate_symbol


def test_dilate_symbol_delta1():
    assert dilate_symbol(Sequence.delta(1), 0.4, 5) == Sequence.delta(1)


def test_dilate_symbol_weights():
    alpha = Sequence({6: 2.0})
    out = dilate_symbol(alpha, 0.5, 3)
    # weight at 6 = r^(1+2) since 6 = p_1 * p_2
    assert out[6] == pytest.approx(2.0 * 0.5**3)


def test_dilate_symbol_power_entries():
    out = dilate_symbol(PowerSymbol(1.0), 0.5, 2)
    assert out[1] == pytest.approx(1.0)
    assert out[2] == pytest.approx(0.25)
    assert out[4] == pytest.approx(0.0625)


def test_compression_identity():
    rng = np.random.default_rng(26)
    for n_max in (4, 8):
        for r in (0.5, 0.9, 0.99):
            alpha = random_sequence(rng, max_index=n_max * n_max, size=12)
            m = assemble(alpha, n_max)
            mr = assemble(dilate_symbol(alpha, r, n_max), n_max)
            d = np.diag(dilation_weight(r, m.indices))
            diff = mr.entries - d @ m.entries @ d
            assert np.max(np.abs(diff)) <= 1e-12


def test_dilation_family():
    # approx scales one assembled matrix by D_r; dilate_symbol weights the
    # symbol itself, an independent route to the same entries
    base = assemble(Sequence.delta(1), 4)
    assert np.array_equal(_dilated(base.entries, 0.5, base.indices), base.entries)
    for alpha in (parse_fixture("random-decay:7,0.5"),
                  Sequence({1: 1.0, 2: -1.5, 3: 0.8, 6: -0.4, 12: 0.25})):
        for budget in (None, 2):
            base = assemble(alpha, 16, budget)
            for r in (0.3, 0.7, 0.95):
                want = assemble(dilate_symbol(alpha, r, 16), 16, budget)
                assert want.indices == base.indices
                np.testing.assert_allclose(_dilated(base.entries, r, base.indices),
                                           want.entries, rtol=1e-14, atol=0)


# -------------------------------------------------------------------- export


def test_matrix_csv():
    m = assemble(Sequence.delta(1), 2)
    text = matrix_to_csv(m)
    assert text.splitlines()[0] == "re0,im0,re1,im1"
    assert text.splitlines()[1] == "1.0,0.0,0.0,0.0"
