"""Every bound of helson.bounds against the exact decision ||A|| <= s.

Float SVD errs on both sides of the true norm, so it cannot test a
proven bound at its last bits; oracles.norm_at_most decides each claim
in rational arithmetic instead, on real and complex matrices of at most
8 rows.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helson import MHilbertSymbol, assemble, operator_norm, parse_fixture
from helson.bounds import _block_cholesky_bounds, _cholesky_slack, _norm_upper_bound, _pair_margin
from oracles import norm_at_most, wide_range_matrices

ULP = 2.0**-52


def _matrix(rng, rows, cols, is_complex, kind):
    """Gaussian, or D S D with S >= 0 symmetric and D = diag(+-1) alternating."""
    if kind == "gaussian":
        a = rng.standard_normal((rows, cols))
    else:
        s = np.abs(rng.standard_normal((cols, cols)))
        a = (s + s.T)[:rows] * np.where(np.arange(cols) % 2, -1.0, 1.0)
    if is_complex:
        a = a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, a.shape))
    return a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["gaussian", "alternating"]), st.sampled_from([None, 1.0, 0.5]))
def test_norm_upper_bound_is_exact(rows, cols, seed, is_complex, kind, estimate):
    # from no estimate, an accurate one (one factorization) and a far
    # too low one (the eigenvalue fallback)
    a = _matrix(np.random.default_rng(seed), rows, cols, is_complex, kind)
    if estimate is not None:
        estimate *= operator_norm(a).norm if rows == cols else np.linalg.norm(a, 2)
    assert norm_at_most(a, _norm_upper_bound(a, estimate))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(wide_range_matrices(max_dim=8))
def test_norm_upper_bound_is_exact_across_binades(a):
    assert norm_at_most(a, _norm_upper_bound(a))


@pytest.mark.parametrize("name", ["mhilbert", "random-decay", "trap"])
def test_norm_upper_bound_is_exact_where_float_values_come_out_low(name):
    # the exact check refutes the trap's all-ones value 0.5 (two-sided
    # trap, 33 rows) and passes the proven bound on each window
    if name == "trap":
        a = 1.5 * np.eye(33) - np.full((33, 33), 1.0 / 33)
        assert not norm_at_most(a, operator_norm(a).norm)
    else:
        fixture, n_max = {"mhilbert": (MHilbertSymbol(), 12),
                          "random-decay": (parse_fixture("random-decay:7,0.5"), 8)}[name]
        a = assemble(fixture, n_max).entries
    assert norm_at_most(a, _norm_upper_bound(a))
    assert norm_at_most(a, _norm_upper_bound(a, operator_norm(a).norm))


def _block_factors(b):
    f = np.eye(2 * len(b), dtype=b.dtype)
    f[: len(b), len(b):] = b
    f[len(b):, : len(b)] = b.conj().T
    try:
        np.linalg.cholesky(f)
    except np.linalg.LinAlgError:
        return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(), st.integers(-8, 40))
def test_block_cholesky_divisor_scales_every_factoring_b_into_the_ball(dim, seed, is_complex,
                                                                       steps):
    # ||B|| about 1 + steps 2^-55, where F = [[I, B], [B^H, I]] stops
    # factoring and a few B past norm 1 still factor: whenever F
    # factors, B over the divisor has norm <= 1
    b = _matrix(np.random.default_rng(seed), dim, dim, is_complex, "gaussian")
    b *= (1.0 + steps * ULP / 8) / np.linalg.norm(b, 2)
    divisor, _ = _block_cholesky_bounds(dim)
    if _block_factors(b):
        assert norm_at_most(b / divisor, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.integers(-16, 16), min_size=8, max_size=8))
def test_block_cholesky_row_cap_refuses_only_rows_past_the_norm_bound(dim, seed, is_complex,
                                                                      ulps):
    # each row is scaled to a computed squared norm a few ulps from the
    # cap; one computed past it has an exact squared norm past
    # (1 + 2 dim g)^2, which no B whose F factors reaches
    _, cap = _block_cholesky_bounds(dim)
    b = _matrix(np.random.default_rng(seed), dim, dim, is_complex, "gaussian")
    b = b.astype(np.complex128)
    squares = (b.real**2 + b.imag**2).sum(axis=1)
    b *= (np.sqrt(cap / squares) * (1.0 + np.array(ulps[:dim]) * ULP))[:, None]
    computed = (b.real**2 + b.imag**2).sum(axis=1)
    norm_bound = (1 + 2 * dim * Fraction(_cholesky_slack(2 * dim))) ** 2
    for row, square in zip(b, computed):
        if square > cap:
            exact = sum(Fraction(x.real) ** 2 + Fraction(x.imag) ** 2 for x in row.tolist())
            assert exact > norm_bound


def _at_most_over_root(x, h, n):
    """x <= h / sqrt(n) exactly, for n > 0."""
    if x > 0:
        return h > 0 and x * x * n <= h * h
    return h >= 0 or x * x * n >= h * h


def _parts(x):
    """Exact real and imaginary parts of a float or complex vector."""
    return [Fraction(z.real) for z in x.tolist()], [Fraction(z.imag) for z in x.tolist()]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans(),
       st.integers(0, 40))
def test_pair_margin_covers_the_rounding_of_each_pair_bound(dim, k_pts, seed, is_complex, gap):
    # best_convex_approx's pair bounds Re(u^H (A - B_k) v) / (|u| |v|),
    # formed as it forms them, lie within the margin of the exact ones;
    # B_k = A plus 2^-gap noise makes the differences small against A
    rng = np.random.default_rng(seed)
    a = _matrix(rng, dim, dim, is_complex, "gaussian")
    family = np.stack([a + 2.0**-gap * _matrix(rng, dim, dim, is_complex, "gaussian")
                       for _ in range(k_pts)])
    u, v = (_matrix(rng, dim, 1, is_complex, "gaussian")[:, 0] for _ in range(2))
    gaps = a - family
    margin = _pair_margin(gaps)
    h = np.real((gaps.reshape(k_pts * dim, dim) @ v).reshape(k_pts, dim) @ u.conj())
    bounds = h / float(np.linalg.norm(u) * np.linalg.norm(v))

    (ur, ui), (vr, vi) = _parts(u), _parts(v)
    n = sum(x * x for x in ur + ui) * sum(x * x for x in vr + vi)
    rows_a = [_parts(row) for row in a]
    for b_k, bound in zip(family, bounds):
        # Re(u^H G v) = sum_ij Re(conj(u_i) G_ij v_j) for the exact G = A - B_k
        h_exact = Fraction(0)
        for i, (re_b, im_b) in enumerate(map(_parts, b_k)):
            for j in range(dim):
                gr, gi = rows_a[i][0][j] - re_b[j], rows_a[i][1][j] - im_b[j]
                h_exact += ur[i] * (gr * vr[j] - gi * vi[j]) + ui[i] * (gr * vi[j] + gi * vr[j])
        assert _at_most_over_root(Fraction(bound - margin), h_exact, n)
        assert _at_most_over_root(-Fraction(bound + margin), -h_exact, n)
