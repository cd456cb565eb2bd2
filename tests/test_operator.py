import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helson import (
    DomainError,
    PowerSymbol,
    Sequence,
    assemble,
    bilinear_pair,
    dilate_symbol,
    dilation_family,
    dilation_weight,
    dirichlet_convolve,
    form,
    matrix_to_csv,
    parse_fixture,
    product_classes,
    save_matrix,
    smooth_indices,
    symbol_value,
    symbol_values,
    truncation_indices,
)


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
    with pytest.raises(DomainError):
        assemble(Sequence.delta(1), 4, dense_cap=2)


def test_assemble_prime_budget():
    m = assemble(Sequence.delta(1), 10, prime_budget=1)
    assert m.indices == (1, 2, 4, 8)
    assert m.size == 4
    assert m.n_max == 8


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
@example(8, 1)  # n_max^2 = 4 dim^2: the largest ratio ranked by table
@example(24, 2)  # n_max^2 = 4.76 dim^2: the smallest sorted by np.unique
def test_product_classes_partition(n_max, budget):
    idx = np.array(smooth_indices(n_max, budget), dtype=np.int64)
    classes = product_classes(idx.tolist())
    assert np.all(np.diff(classes.uniq) > 0)
    assert np.array_equal(classes.uniq, np.unique(np.outer(idx, idx)))
    assert np.array_equal(classes.uniq[classes.labels], np.outer(idx, idx))
    assert np.array_equal(classes.labels, classes.labels.T)


def test_truncation_indices():
    assert truncation_indices(6) == [1, 2, 3, 4, 5, 6]
    assert truncation_indices(10, 2) == [1, 2, 3, 4, 6, 8, 9]


def test_symbol_value_dispatch():
    assert symbol_value(PowerSymbol(1.0), 4) == pytest.approx(0.25)
    assert symbol_value(Sequence.delta(3), 3) == 1.0


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
    fam = dilation_family(Sequence.delta(1), (0.5, 0.9), 4)
    assert len(fam) == 2
    base = assemble(Sequence.delta(1), 4)
    for m in fam:
        assert np.array_equal(m.entries, base.entries)
    single = dilation_family(PowerSymbol(1.0), (0.5,), 4)
    assert len(single) == 1
    with pytest.raises(DomainError):
        dilation_family(PowerSymbol(1.0), (0.9, 0.5), 4)
    # the family scales one assembled matrix; dilate_symbol weights the
    # symbol itself, an independent route to the same entries
    grid = (0.3, 0.7, 0.95)
    for alpha, label in ((parse_fixture("random-decay:7,0.5"), "random-decay:7,0.5"),
                         (Sequence({1: 1.0, 2: -1.5, 3: 0.8, 6: -0.4, 12: 0.25}),
                          "sequence:5")):
        for budget in (None, 2):
            fam = dilation_family(alpha, grid, 16, budget)
            for r, m in zip(grid, fam):
                want = assemble(dilate_symbol(alpha, r, 16), 16, budget)
                np.testing.assert_allclose(m.entries, want.entries, rtol=1e-14, atol=0)
                assert m.indices == want.indices
                assert m.prime_budget == want.prime_budget == budget
                assert m.symbol_id == f"dilate({r:g})|{label}"


# -------------------------------------------------------------------- export


def test_matrix_csv_and_header(tmp_path):
    m = assemble(Sequence.delta(1), 2)
    text = matrix_to_csv(m)
    assert text.splitlines()[0] == "re0,im0,re1,im1"
    assert text.splitlines()[1] == "1.0,0.0,0.0,0.0"
    csv_path = tmp_path / "m.csv"
    save_matrix(m, csv_path)
    header = json.loads((tmp_path / "m.csv.json").read_text())
    assert header["N"] == 2
    assert header["symbol_id"].startswith("sequence:")
    assert header["prime_budget"] is None
    assert (tmp_path / "m.csv").read_text() == text
