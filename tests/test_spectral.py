import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helson import (
    ConvergenceError,
    DomainError,
    MHilbertSymbol,
    PowerSymbol,
    Sequence,
    assemble,
    dilate_symbol,
    l2_lower_bound_check,
    operator_norm,
    operator_norm_symbol,
    singular_values,
)


def random_sequence(rng, max_index=64, size=10):
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Sequence({int(n): complex(v) for n, v in zip(idx, vals)})


# ------------------------------------------------------------- operator_norm


def test_norm_zero_matrix():
    rep = operator_norm(np.zeros((4, 4)))
    assert rep.norm == 0.0
    assert rep.residual == 0.0


def test_norm_golden_ratio():
    m = assemble(Sequence.delta(1) + Sequence.delta(2), 2)
    assert np.array_equal(m.entries, np.array([[1, 1], [1, 0]], dtype=complex))
    rep = operator_norm(m, tol=1e-12)
    assert rep.norm == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-11)


def test_norm_rank_one_power():
    # M_N = w w^T with w(n) = 1/n, so the norm is sum of 1/n^2
    for n_max in (2, 8, 32):
        rep = operator_norm(assemble(PowerSymbol(1.0), n_max), tol=1e-12)
        expect = sum(1.0 / n**2 for n in range(1, n_max + 1))
        assert rep.norm == pytest.approx(expect, rel=1e-11)
    assert operator_norm(assemble(PowerSymbol(1.0), 2)).norm == pytest.approx(1.25)


def test_norm_certificate():
    rng = np.random.default_rng(30)
    for _ in range(10):
        alpha = random_sequence(rng, max_index=100, size=14)
        m = assemble(alpha, 10)
        rep = operator_norm(m, tol=1e-11)
        u, v = rep.leading_pair
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
        # |u^H A v| recovers the reported value
        val = abs(np.conj(u) @ m.entries @ v)
        assert val == pytest.approx(rep.norm, abs=10 * max(rep.residual, 1e-12))
        assert np.linalg.norm(m.entries @ v - rep.norm * u) <= max(
            10 * rep.residual, 1e-8
        )


def test_norm_matches_svd():
    rng = np.random.default_rng(31)
    for n_max in (8, 16, 64):
        alpha = random_sequence(rng, max_index=n_max * n_max, size=20)
        m = assemble(alpha, n_max)
        rep = operator_norm(m, tol=1e-11)
        top = np.linalg.svd(m.entries, compute_uv=False)[0]
        assert rep.norm == pytest.approx(top, rel=1e-8)


def test_norm_warm_start_matches_svd():
    rng = np.random.default_rng(34)
    for dim in (1, 2, 5, 12, 30):
        for _ in range(4):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            rep = operator_norm(a, tol=1e-11, start=start)
            top = np.linalg.svd(a, compute_uv=False)[0]
            assert rep.norm == pytest.approx(top, rel=1e-8)
            # restarting from the certified vector beats the cold start
            again = operator_norm(a, tol=1e-11, start=rep.leading_pair[1])
            assert again.norm == pytest.approx(top, rel=1e-8)
            assert again.iterations <= operator_norm(a, tol=1e-11).iterations


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_norm_keeps_dtype_nonsymmetric(dim, seed, is_complex):
    # Gaussian entries with no symmetry, so mixing up the transpose and the
    # conjugate in A^H x gives a wrong value or no certificate
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    if is_complex:
        a = a + 1j * rng.standard_normal((dim, dim))
    # tol well below the 1e-12 compared at the end: near-degenerate pairs
    # stop on the Aitken rule, whose value error scales with tol
    rep = operator_norm(a, tol=1e-12)
    dtype = np.complex128 if is_complex else np.float64
    assert all(vec.dtype == dtype for vec in rep.leading_pair)
    assert rep.norm == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-9)
    if not is_complex:
        as_complex = operator_norm(a.astype(np.complex128), tol=1e-12)
        assert rep.norm == pytest.approx(as_complex.norm, rel=1e-12)


def test_norm_start_validation():
    a = np.eye(3)
    for bad in (np.zeros(3), np.ones(2), np.ones((3, 1)), [1.0, np.nan, 0.0]):
        with pytest.raises(DomainError):
            operator_norm(a, start=bad)
    # checked before the zero-matrix shortcut too
    with pytest.raises(DomainError):
        operator_norm(np.zeros((3, 3)), start=np.zeros(3))


def test_norm_symbol_matches_dense():
    rng = np.random.default_rng(32)
    for n_max in (16, 64):
        alpha = random_sequence(rng, max_index=n_max * n_max, size=25)
        dense = operator_norm(assemble(alpha, n_max), tol=1e-11).norm
        free = operator_norm_symbol(alpha, n_max, tol=1e-11).norm
        assert free == pytest.approx(dense, rel=1e-8)


def test_norm_tolerance_domain():
    m = assemble(Sequence.delta(1), 2)
    for bad in (0.0, -1e-9, 1e-3):
        with pytest.raises(DomainError):
            operator_norm(m, tol=bad)


def test_norm_nonconvergence_carries_best():
    m = assemble(Sequence.delta(1) + Sequence.delta(2), 2)
    with pytest.raises(ConvergenceError) as exc:
        operator_norm(m, tol=1e-12, max_iter=2)
    best = exc.value.best
    assert best is not None
    assert best.norm > 0


def test_report_to_json():
    rep = operator_norm(assemble(Sequence.delta(1), 2))
    doc = rep.to_json()
    assert set(doc) == {"value", "residual", "iterations"}
    assert doc["value"] == pytest.approx(1.0)


def test_norm_dilation_contraction():
    rng = np.random.default_rng(33)
    alpha = random_sequence(rng, max_index=64, size=15)
    base = operator_norm(assemble(alpha, 8), tol=1e-11).norm
    for r in (0.5, 0.9, 0.99):
        nr = operator_norm(assemble(dilate_symbol(alpha, r, 8), 8), tol=1e-11).norm
        assert nr <= base + 1e-9


def test_norm_monotone_truncation():
    rng = np.random.default_rng(34)
    alpha = random_sequence(rng, max_index=16 * 16, size=30)
    norms = [operator_norm(assemble(alpha, n), tol=1e-11).norm for n in (4, 8, 16)]
    assert norms[0] <= norms[1] + 1e-9
    assert norms[1] <= norms[2] + 1e-9


# ----------------------------------------------------------- singular_values


def test_singular_values_identity():
    vals = singular_values(np.eye(3))
    assert np.allclose(vals, [1, 1, 1])


def test_singular_values_delta4():
    vals = singular_values(assemble(Sequence.delta(4), 4))
    assert np.allclose(vals, [1, 1, 1, 0], atol=1e-12)


def test_singular_values_rank_one():
    w = np.array([1.0, 0.5, 0.25])
    vals = singular_values(np.outer(w, w))
    assert vals[0] == pytest.approx(np.dot(w, w))
    assert np.allclose(vals[1:], 0, atol=1e-12)


def test_singular_values_frobenius():
    rng = np.random.default_rng(35)
    for _ in range(20):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        vals = np.array(singular_values(a))
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= 0)
        fro2 = np.linalg.norm(a, "fro") ** 2
        assert np.sum(vals**2) == pytest.approx(fro2, rel=1e-10)


def test_singular_values_cap():
    with pytest.raises(DomainError):
        singular_values(np.eye(8), dense_cap=4)


# ------------------------------------------------------ l2 lower bound check


def test_l2_check_delta1():
    rec = l2_lower_bound_check(Sequence.delta(1), 4)
    assert rec.op_norm == pytest.approx(1.0)
    assert rec.l2_norm == pytest.approx(1.0)
    assert rec.ok


def test_l2_check_power():
    rec = l2_lower_bound_check(PowerSymbol(1.0), 4)
    expect_l2 = math.sqrt(1 + 1 / 4 + 1 / 9 + 1 / 16)
    expect_op = 1 + 1 / 4 + 1 / 9 + 1 / 16
    assert rec.l2_norm == pytest.approx(expect_l2, rel=1e-12)
    assert rec.op_norm == pytest.approx(expect_op, rel=1e-9)
    assert rec.op_norm >= rec.l2_norm
    assert rec.ok


def test_l2_check_delta2():
    rec = l2_lower_bound_check(Sequence.delta(2), 4)
    assert rec.op_norm == pytest.approx(1.0, abs=1e-9)
    assert rec.l2_norm == pytest.approx(1.0)
    assert rec.ok


def test_l2_check_random():
    rng = np.random.default_rng(36)
    for _ in range(10):
        alpha = random_sequence(rng, max_index=32, size=10)
        rec = l2_lower_bound_check(alpha, 16)
        assert rec.ok
        assert rec.op_norm >= rec.l2_norm - 1e-9


def test_l2_check_mhilbert():
    rec = l2_lower_bound_check(MHilbertSymbol(), 32)
    assert rec.ok
