import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helson import (
    DomainError,
    HelsonMatrix,
    MHilbertSymbol,
    PowerSymbol,
    RandomDecaySymbol,
    Sequence,
    assemble,
    dilate_symbol,
    l2_lower_bound_check,
    operator_norm,
    parse_fixture,
)
from helson import spectral
from helson.sieve import factor_pairs
from helson.bounds import _norm_upper_bound
from helson.spectral import _KRYLOV
from oracles import norm_at_most, wide_range_matrices


def random_sequence(rng, max_index=64, size=10):
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Sequence({int(n): complex(v) for n, v in zip(idx, vals)})


# ------------------------------------------------------------- operator_norm


def test_norm_zero_matrix():
    rep = operator_norm(np.zeros((4, 4)))
    assert rep.norm == 0.0
    assert rep.residual == 0.0
    # every dtype, and the empty matrix, in no products
    for zero in (np.zeros((4, 4)), np.zeros((3, 3), dtype=np.complex128),
                 np.zeros((2, 2), dtype=np.int64), np.zeros((0, 0))):
        rep = operator_norm(zero)
        assert (rep.norm, rep.iterations, rep.residual, rep.converged) == (0.0, 0, 0.0, True)


def _four_zero_columns():
    # zero but for the last two columns, x and -x with entries that scale
    # exactly, so the all-ones start is in the kernel; 34 rows are past
    # the dense start
    m = np.zeros((34, 34))
    m[:, 32] = np.resize([1.0, 2.0, 0.5, -1.0, 4.0, -0.25], 34)
    m[:, 33] = -m[:, 32]
    return m


def _liouville_window():
    # alpha = lambda, the completely multiplicative Liouville function, at
    # N = 40: M_40 = lambda lambda^T, and its row sums
    # lambda(n) sum_{m <= 40} lambda(m) vanish, since that sum is 0
    return assemble(Sequence({n: (-1.0) ** sum(k for _, k in factor_pairs(n))
                              for n in range(1, 40 * 40 + 1)}), 40).entries


_KERNEL_STARTS = [
    _liouville_window(),
    # the first cycle opens on column 33, and no product is spent on a zero column
    _four_zero_columns(),
]


# the all-ones image is dropped uncounted, and the first cycle opens on
# the largest column, read off the matrix
@pytest.mark.parametrize("matrix, products", [(m, 3) for m in _KERNEL_STARTS])
def test_norm_restarts_once_from_a_start_in_the_kernel(matrix, products):
    dim = matrix.shape[0]
    assert dim > _KRYLOV
    assert not (matrix @ np.ones(dim)).any()
    rep = operator_norm(matrix)
    assert rep.converged
    assert rep.iterations == products
    assert rep.norm == pytest.approx(np.linalg.norm(matrix, 2), rel=1e-12)
    u, v = rep.leading_pair
    assert np.linalg.norm(matrix @ v - rep.norm * u) <= 1e-9 * rep.norm


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
@pytest.mark.parametrize("matrix", [np.array([[1.0, -1.0], [-1.0, 1.0]])] + _KERNEL_STARTS)
def test_norm_pair_matches_at_every_cap(monkeypatch, matrix, cap):
    # a cap hit right after the weak start still returns norm = ||Av||
    monkeypatch.setattr(spectral, "NORM_MAX_ITER", cap)
    rep = operator_norm(matrix)
    u, v = rep.leading_pair
    assert rep.iterations <= cap
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-15)
    assert rep.norm == pytest.approx(np.linalg.norm(matrix @ v), rel=1e-15)
    assert rep.norm > 0.0


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_norm_keeps_dtype_nonsymmetric(dim, seed, is_complex):
    # Gaussian entries with no symmetry, so mixing up the transpose and the
    # conjugate in A^H x gives a wrong value or no certificate
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    if is_complex:
        a = a + 1j * rng.standard_normal((dim, dim))
    rep = operator_norm(a, tol=1e-12)
    dtype = np.complex128 if is_complex else np.float64
    assert all(vec.dtype == dtype for vec in rep.leading_pair)
    assert rep.norm == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-9)
    if not is_complex:
        as_complex = operator_norm(a.astype(np.complex128), tol=1e-12)
        assert rep.norm == pytest.approx(as_complex.norm, rel=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
@example(2, 2, 0, False, True)
@example(2, 2, 0, True, True)
def test_norm_upper_bound_brackets_svd(rows, cols, seed, is_complex, signed):
    # signed: D S D with S >= 0 symmetric and D = diag(+-1) alternating, so
    # the leading singular vector alternates in sign as in the N=2 trap
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    if signed:
        s = np.abs(rng.standard_normal((cols, cols)))
        d = np.where(np.arange(cols) % 2, -1.0, 1.0)
        a = d[:, None] * (s + s.T) * d[None, :]
    if is_complex:
        a = a * np.exp(1j * rng.uniform(0, 2 * np.pi, a.shape))
    top = np.linalg.svd(a, compute_uv=False)[0]

    def check(bound):
        # float SVD errs on both sides of the true norm: up to 8 rows and
        # columns the upper side is decided exactly
        assert norm_at_most(a, bound) if max(rows, cols) <= 8 else top <= bound
        assert bound <= top * (1 + 1e-9)

    check(_norm_upper_bound(a))
    # the one-factorization path from an accurate estimate, and the
    # fallback from a far-too-low one
    for estimate in (top, 0.5 * top):
        check(_norm_upper_bound(a, estimate))


def test_norm_upper_bound_trap_and_scale():
    trap = assemble(Sequence({1: 1.0, 2: -0.5, 4: 1.0}), 2)
    bound = _norm_upper_bound(trap.entries)
    assert 1.5 <= bound <= 1.5 * (1 + 1e-12)
    # the all-ones start's value 0.5 is far too low: the bound falls back
    assert _norm_upper_bound(trap.entries, 0.5) == bound
    assert _norm_upper_bound(np.zeros((3, 3))) == 0.0
    # the power-of-two scaling is exact at both ends of the float range
    for scale in (1e-300, 1e300):
        assert _norm_upper_bound(scale * trap.entries) == pytest.approx(
            scale * bound, rel=1e-15)


@pytest.mark.parametrize("spec", ["mhilbert", "random-decay:7,0.5"])
def test_norm_upper_bound_from_estimate_skips_eigvalsh(spec, monkeypatch):
    a = assemble(parse_fixture(spec), 128).entries
    estimate = operator_norm(a).norm
    expect = _norm_upper_bound(a)

    def refuse(_):
        raise AssertionError("an accurate estimate needs no eigenvalue pass")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    bound = _norm_upper_bound(a, estimate)
    assert bound == pytest.approx(expect, rel=1e-12)
    assert np.linalg.norm(a, 2) <= bound


@pytest.mark.parametrize("low", [0.5, 1e-3])
def test_norm_upper_bound_grows_its_shift_until_it_factors(low, monkeypatch):
    # a top eigenvalue that comes out too low leaves a shift that does not
    # factor; the excess grows fourfold until one does, still a proof
    a = assemble(parse_fixture("random-decay:7,0.5"), 32).entries
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: low * eigvalsh(m))
    calls = []
    cholesky = np.linalg.cholesky

    def counting(m):
        calls.append(m)
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    bound = _norm_upper_bound(a)
    assert len(calls) > 2
    assert np.linalg.norm(a, 2) <= bound <= 4.0 * np.linalg.norm(a, 2)


def test_norm_tolerance_domain():
    m = assemble(Sequence.delta(1), 2)
    for bad in (0.0, -1e-9, 1e-3):
        with pytest.raises(DomainError):
            operator_norm(m, tol=bad)


def test_norm_rejects_non_square():
    # a rectangular matrix is refused before any product, not inside numpy
    with pytest.raises(DomainError, match="square"):
        operator_norm(np.ones((3, 5)))
    with pytest.raises(DomainError, match="square"):
        operator_norm(np.ones((5, 3)))
    for shape in ((3,), (2, 2, 2)):
        with pytest.raises(DomainError, match="2-dimensional"):
            operator_norm(np.ones(shape))


def test_norm_nonconvergence_carries_best(monkeypatch):
    # 33 rows: past the dense start, which certifies in its first product
    m = assemble(Sequence.delta(1) + Sequence.delta(2), 33)
    monkeypatch.setattr("helson.spectral.NORM_MAX_ITER", 1)
    best = operator_norm(m, tol=1e-12)
    assert best.converged is False
    assert best.norm > 0
    assert best.iterations == 1


def test_norm_of_the_two_sided_trap():
    # all-ones is the eigenvector of 0.5 of M_2 = [[1, -0.5], [-0.5, 1]];
    # the dense start of a small window opens on the one of 1.5
    trap = assemble(Sequence({1: 1.0, 2: -0.5, 4: 1.0}), 2)
    rep = operator_norm(trap)
    assert rep.converged and rep.iterations == 1
    assert rep.norm == pytest.approx(1.5, rel=1e-12)


def _ones_trap(dim):
    # 1.5 I - J / dim: all-ones is the eigenvector of 0.5, every vector
    # orthogonal to it one of 1.5
    return 1.5 * np.eye(dim) - np.full((dim, dim), 1.0 / dim)


def test_norm_past_the_dense_size_keeps_the_all_ones_start():
    assert operator_norm(_ones_trap(_KRYLOV)).norm == pytest.approx(1.5, rel=1e-12)
    # one row more opens on all-ones, whose pair certifies the smaller
    # singular value in one product
    rep = operator_norm(_ones_trap(_KRYLOV + 1))
    assert rep.converged and rep.iterations == 1
    assert rep.norm == pytest.approx(0.5, rel=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, _KRYLOV), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["gaussian", "alternating", "ones-trap"]))
@example(2, 0, False, "alternating")
@example(_KRYLOV, 0, True, "ones-trap")
def test_norm_of_a_small_matrix_is_the_dense_one(dim, seed, is_complex, kind):
    # alternating: D S D with S > 0 symmetric and D = diag(+-1), so the
    # leading singular vector alternates in sign as in the N=2 trap, and
    # is nearly orthogonal to all-ones
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        a = rng.standard_normal((dim, dim))
        if is_complex:
            a = a + 1j * rng.standard_normal((dim, dim))
    elif kind == "alternating":
        s = np.abs(rng.standard_normal((dim, dim)))
        d = np.where(np.arange(dim) % 2, -1.0, 1.0)
        a = d[:, None] * (s + s.T) * d[None, :]
    else:
        a = _ones_trap(dim)
    if is_complex and kind != "gaussian":
        a = a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    rep = operator_norm(a)
    assert rep.converged
    assert rep.norm == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-9)


def test_norm_stalled_residual_stops_early():
    # tol 1e-17 is below what rounding lets any pair reach: the run stops
    # when a cycle opens no closer than the one before, with its pair
    m = assemble(MHilbertSymbol(), 8)
    best = operator_norm(m, tol=1e-17)
    assert best.converged is False
    assert best.iterations < 100
    assert best.norm == pytest.approx(operator_norm(m).norm, rel=1e-12)
    u, v = best.leading_pair
    assert best.residual == pytest.approx(
        np.linalg.norm(m.entries.T @ u - best.norm * v), rel=1e-3, abs=1e-15)


_SCALE_CASES = {
    "golden": (Sequence.delta(1) + Sequence.delta(2), 2),
    "mhilbert": (MHilbertSymbol(), 16),
    "random-decay": (parse_fixture("random-decay:7,0.5"), 32),
}


@pytest.mark.parametrize("k", [-600, -450, 450, 600])
@pytest.mark.parametrize("case", sorted(_SCALE_CASES))
def test_norm_does_not_depend_on_scale(case, k):
    # Lanczos squares twice, so at 2^+-450 the unscaled squared norms
    # over- or underflow
    m = assemble(*_SCALE_CASES[case])
    rep = operator_norm(HelsonMatrix(m.entries * 2.0**k, m.indices))
    assert rep.converged
    assert rep.norm == pytest.approx(2.0**k * operator_norm(m).norm, rel=1e-12, abs=0)
    assert rep.residual <= 1e-10 * rep.norm


def test_norm_rescales_on_an_overflowing_krylov_step():
    # ||A||_F = 2^400.5 is out of range, so A is scaled to A 2^-401 before
    # the first product; unscaled, A^H A of the second basis vector would
    # overflow its squared norm
    x = 2.0**400
    a = np.array([[x, -x, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rep = operator_norm(a)
    assert rep.converged
    assert rep.norm == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-12)


def test_norm_refuses_non_finite():
    # no matrix is scanned up front; a non-finite entry makes ||A||_F
    # non-finite and is refused where A is scaled, and a norm past the
    # float range is refused too
    for bad in (np.inf, np.nan):
        entries = np.eye(3)
        entries[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            operator_norm(HelsonMatrix(entries, (1, 2, 3)))
    huge = HelsonMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]) * 1.5e308, (1, 2))
    with pytest.raises(DomainError, match="range"):
        operator_norm(huge)


@pytest.mark.parametrize("k", [-400, -600])
def test_norm_certifies_a_wide_range_matrix_scaled_down(k):
    # 3 rows take the dense start; padded with zeros to 33 rows, all-ones
    # maps to a vector of norm 2^k sqrt(2/33), about 2^-400 ||A||_F: the
    # start is weak and gives way to the largest column
    x = 2.0**400
    small = np.array([[x, -x, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) * 2.0**k
    padded = np.zeros((_KRYLOV + 1, _KRYLOV + 1))
    padded[:3, :3] = small
    for a in (small, padded):
        rep = operator_norm(a)
        assert rep.converged
        assert rep.norm == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-12)


def test_norm_when_the_frobenius_square_underflows():
    # a nonzero matrix whose ||A||_F^2 rounds to 0 is scaled, not zero
    a = np.full((4, 4), 2.0**-540)
    assert np.vdot(a, a) == 0.0
    rep = operator_norm(a)
    assert rep.converged
    assert rep.norm == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("is_complex", [False, True])
def test_norm_routines_refuse_non_finite_arrays(bad, is_complex):
    a = np.eye(3, dtype=np.complex128 if is_complex else np.float64)
    a[2, 1] = complex(0.0, bad) if is_complex else bad
    for routine in (operator_norm, _norm_upper_bound):
        with pytest.raises(DomainError, match="finite"):
            routine(a)


def _ldexp(a, k):
    if a.dtype.kind == "c":
        return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    return np.ldexp(a, k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(wide_range_matrices(), st.integers(-900, 900))
def test_norm_scales_exactly_by_powers_of_two(a, k):
    # A and A 2^k are iterated on A itself or on one power-of-two scaling
    # of it, and each step commutes with a power of two
    rep = operator_norm(a)
    scaled = operator_norm(_ldexp(a, k))
    assert scaled.norm == math.ldexp(rep.norm, k)
    assert scaled.iterations == rep.iterations


def _with_top_pair(gap, seed=5, dim=40):
    # complex dim x dim matrix with singular values 1, 1 - gap, then a
    # spread from 0.9 down to 0.1, between random unitary factors
    rng = np.random.default_rng(seed)

    def unitary():
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return np.linalg.qr(g)[0]

    left, right = unitary(), unitary()
    s = np.concatenate([[1.0, 1.0 - gap], np.linspace(0.9, 0.1, dim - 2)])
    return (left * s) @ right.conj().T


@pytest.mark.parametrize("gap", [1e-6, 1e-9, 0.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_norm_near_degenerate_pair(gap, tol):
    # a value that converges long before its vectors must still come back
    # with the explicit residual of its own pair, and accurate
    a = _with_top_pair(gap)
    rep = operator_norm(a, tol=tol)
    top = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(rep.norm - top) <= 1e-12 * top
    u, v = rep.leading_pair
    explicit = np.linalg.norm(a.conj().T @ u - rep.norm * v)
    assert rep.residual == pytest.approx(explicit, rel=1e-3, abs=1e-15)
    assert rep.residual <= tol * rep.norm


@pytest.mark.parametrize("seed", [1, 7, 17])
def test_norm_random_decay_products(seed):
    m = assemble(RandomDecaySymbol(seed, 0.5), 256)
    rep = operator_norm(m)
    assert rep.iterations <= 20
    top = np.linalg.svd(m.entries, compute_uv=False)[0]
    assert rep.norm == pytest.approx(top, rel=1e-12)


def test_norm_restarts_past_full_basis():
    # sigma_k = 1 - 1e-4 k: a crowded top that no single basis resolves
    rng = np.random.default_rng(37)
    q = np.linalg.qr(rng.standard_normal((300, 300)))[0]
    a = (q * (1.0 - 1e-4 * np.arange(300))) @ q.T
    a = (a + a.T) / 2
    rep = operator_norm(a, tol=1e-10)
    assert rep.iterations > _KRYLOV
    assert rep.norm == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-12)


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


# ---------------------------------------------- operator_norm vs dense SVD


def test_singular_values_identity():
    assert operator_norm(np.eye(3)).norm == pytest.approx(1.0, abs=1e-12)


def test_singular_values_delta4():
    vals = np.linalg.svd(assemble(Sequence.delta(4), 4).entries, compute_uv=False)
    assert np.allclose(vals, [1, 1, 1, 0], atol=1e-12)


def test_singular_values_rank_one():
    w = np.array([1.0, 0.5, 0.25])
    assert operator_norm(np.outer(w, w)).norm == pytest.approx(np.dot(w, w), rel=1e-12)


def test_singular_values_frobenius():
    rng = np.random.default_rng(35)
    for _ in range(20):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        norm = operator_norm(a).norm
        assert norm == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], abs=1e-8)
        assert norm <= np.linalg.norm(a, "fro")


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


def test_l2_check_without_certificate(monkeypatch):
    # sigma = ||Av|| for a unit v is a lower witness, certified or not
    monkeypatch.setattr("helson.spectral.NORM_MAX_ITER", 1)
    rec = l2_lower_bound_check(MHilbertSymbol(), 32)
    top = np.linalg.svd(assemble(MHilbertSymbol(), 32).entries, compute_uv=False)[0]
    assert 0 < rec.op_norm <= top


def test_mhilbert_compression_below_pi():
    # the multiplicative Hilbert matrix {1/(sqrt(nm) log(nm))}_{n,m>=2} has
    # norm pi (Brevig, Perfekt, Seip, Siskakis and Vukotic, Adv. Math. 2016)
    norms = []
    for n_max in (64, 256, 1024):
        a = assemble(MHilbertSymbol(), n_max).entries[1:, 1:]
        norm = operator_norm(a).norm
        assert norm == pytest.approx(np.linalg.norm(a, 2), rel=1e-12, abs=0)
        norms.append(norm)
    assert norms[0] < norms[1] < norms[2] < math.pi
    assert norms == pytest.approx([1.02560, 1.13353, 1.21321], abs=1e-5)
