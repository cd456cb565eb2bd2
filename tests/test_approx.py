import numpy as np
import pytest

from helson import (
    ApproxConfig,
    ConvexWeights,
    DomainError,
    InvariantViolation,
    MHilbertSymbol,
    PowerSymbol,
    Sequence,
    assemble,
    best_convex_approx,
    compactness_diagnostic,
    dilation_family,
    operator_norm,
    simplex_project,
    symbol_values,
)


def random_sequence(rng, max_index=64, size=10):
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Sequence({int(n): complex(v) for n, v in zip(idx, vals)})


def objective(symbol, weights, r_grid, n_max):
    """Dense evaluation of f(c) = ||M - sum c_k M_rk|| for cross-checks."""
    target = assemble(symbol, n_max).entries
    fam = [m.entries for m in dilation_family(symbol, r_grid, n_max)]
    diff = target - sum(w * f for w, f in zip(weights, fam))
    return float(np.linalg.norm(diff, 2))


# ------------------------------------------------------------ ConvexWeights


def test_weights_validation():
    w = ConvexWeights((0.5, 0.9), (0.25, 0.75))
    assert sum(w.weights) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        ConvexWeights((0.9, 0.5), (0.5, 0.5))
    with pytest.raises(DomainError):
        ConvexWeights((0.5, 0.9), (0.7, 0.7))
    with pytest.raises(DomainError):
        ConvexWeights((0.5, 0.9), (-0.2, 1.2))


def test_simplex_project():
    rng = np.random.default_rng(40)
    for _ in range(50):
        y = rng.standard_normal(5)
        x = simplex_project(y)
        assert np.all(x >= -1e-15)
        assert np.sum(x) == pytest.approx(1.0, abs=1e-12)
        # projection is the closest simplex point; compare against random candidates
        for _ in range(20):
            z = np.abs(rng.standard_normal(5))
            z /= z.sum()
            assert np.linalg.norm(y - x) <= np.linalg.norm(y - z) + 1e-12


# --------------------------------------------------------- best_convex_approx


def test_approx_delta1_is_exact():
    res = best_convex_approx(Sequence.delta(1), (0.3, 0.7), 4)
    assert res.value <= 1e-10
    assert res.converged


def test_approx_single_point_grid():
    sym = PowerSymbol(1.0)
    res = best_convex_approx(sym, (0.5,), 4)
    assert res.weights.weights == (1.0,)
    direct = objective(sym, (1.0,), (0.5,), 4)
    assert res.value == pytest.approx(direct, rel=1e-9)


def test_approx_two_point_grid_matches_scan():
    sym = PowerSymbol(0.75)
    grid = (0.6, 0.95)
    res = best_convex_approx(sym, grid, 8)
    ts = np.linspace(0.0, 1.0, 2001)
    scan = min(objective(sym, (1 - t, t), grid, 8) for t in ts)
    assert res.value <= scan + 1e-6
    assert res.value >= scan - 1e-6


def test_approx_value_bounded_by_norm():
    rng = np.random.default_rng(41)
    for _ in range(5):
        alpha = random_sequence(rng, max_index=36, size=8)
        norm = operator_norm(assemble(alpha, 6), tol=1e-10).norm
        res = best_convex_approx(alpha, (0.5, 0.9), 6)
        assert res.value <= norm + 1e-9


def test_approx_upper_bound_sandwich():
    rng = np.random.default_rng(42)
    grid = (0.4, 0.7, 0.95)
    cfg = ApproxConfig(iterations=200, polish_sweeps=2, inner_tol=1e-8)
    for _ in range(5):
        alpha = random_sequence(rng, max_index=36, size=8)
        res = best_convex_approx(alpha, grid, 6, config=cfg)
        vertex = min(
            objective(alpha, tuple(int(i == k) for i in range(3)), grid, 6)
            for k in range(3)
        )
        assert res.value <= vertex + 1e-6


def test_approx_history_tracks_best():
    sym = PowerSymbol(1.0)
    res = best_convex_approx(sym, (0.5, 0.8, 0.95), 8)
    assert res.history
    best_so_far = np.minimum.accumulate(res.history)
    assert res.value <= best_so_far[-1] + 1e-9


def test_approx_grid_refinement_monotone():
    sym = PowerSymbol(1.0)
    small = best_convex_approx(sym, (0.9, 0.99), 16)
    large = best_convex_approx(sym, (0.5, 0.9, 0.99), 16)
    assert large.value <= small.value + 1e-6


def test_approx_convexity_probe():
    rng = np.random.default_rng(43)
    sym = PowerSymbol(1.0)
    grid = (0.5, 0.8, 0.95)
    for _ in range(20):
        c = simplex_project(rng.standard_normal(3))
        c2 = simplex_project(rng.standard_normal(3))
        t = float(rng.uniform())
        mid = t * c + (1 - t) * c2
        f_mid = objective(sym, mid, grid, 8)
        f_c = objective(sym, c, grid, 8)
        f_c2 = objective(sym, c2, grid, 8)
        assert f_mid <= t * f_c + (1 - t) * f_c2 + 1e-9


def test_approx_nonconvergence_flag():
    # an unreachable certification tolerance must flag, not raise
    sym = PowerSymbol(1.0)
    cfg = ApproxConfig(iterations=5, final_tol=1e-10, inner_max_iter=3)
    res = best_convex_approx(sym, (0.5, 0.8, 0.95), 8, config=cfg)
    assert not res.converged
    assert res.value >= 0


def test_approx_certification_does_not_hide_bugs(monkeypatch):
    cfg = ApproxConfig(iterations=5, final_tol=1e-11)

    def norm_with_bug(matrix, tol=1e-10, max_iter=50000, start=None):
        if tol == cfg.final_tol:
            raise InvariantViolation("planted")
        return operator_norm(matrix, tol, max_iter, start=start)

    monkeypatch.setattr("helson.approx.operator_norm", norm_with_bug)
    with pytest.raises(InvariantViolation, match="planted"):
        best_convex_approx(PowerSymbol(1.0), (0.5, 0.8, 0.95), 8, config=cfg)


@pytest.mark.parametrize("sym, grid, n_max", [
    (MHilbertSymbol(), (0.5, 0.8, 0.95), 16),
    # real with mixed signs: the leading singular value can switch between
    # the largest and the most negative eigenvalue along the search
    (Sequence({1: 1, 2: -1.5, 3: 0.8, 6: -0.4}), (0.4, 0.8), 8),
    (Sequence({1: 1, 2: -1.5, 3: 0.8, 6: -0.4}), (0.3, 0.6, 0.9), 8),
])
def test_approx_warm_start_matches_cold(monkeypatch, sym, grid, n_max):
    warm = best_convex_approx(sym, grid, n_max)

    def cold_norm(matrix, tol=1e-10, max_iter=50000, start=None):
        return operator_norm(matrix, tol, max_iter)

    monkeypatch.setattr("helson.approx.operator_norm", cold_norm)
    cold = best_convex_approx(sym, grid, n_max)
    assert warm.converged and cold.converged
    assert warm.value == pytest.approx(cold.value, rel=1e-9)
    assert np.allclose(warm.weights.weights, cold.weights.weights, atol=1e-6)


def test_approx_line_searches_start_cold(monkeypatch):
    # a warm start can certify a smaller singular value where the two
    # largest cross, so only subgradient steps may pass one
    starts = []

    def recording_norm(matrix, tol=1e-10, max_iter=50000, start=None):
        starts.append(start is not None)
        return operator_norm(matrix, tol, max_iter, start=start)

    monkeypatch.setattr("helson.approx.operator_norm", recording_norm)
    sym = Sequence({1: 1, 2: -1.5, 3: 0.8, 6: -0.4})
    best_convex_approx(sym, (0.4, 0.8), 8)
    assert starts and not any(starts)
    starts.clear()
    cfg = ApproxConfig(iterations=20)
    best_convex_approx(sym, (0.3, 0.6, 0.9), 8, config=cfg)
    # uniform start, 20 warm subgradient steps, then everything cold
    assert starts[:21] == [False] + [True] * 20
    assert len(starts) > 22 and not any(starts[21:])


MIXED_SIGNS = Sequence({1: 1, 2: -1.5, 3: 0.8, 6: -0.4})


def rotated(sym, n_max, theta=0.7):
    """e^{i theta} alpha on every product n*m of the window, as a Sequence."""
    ns = np.arange(1, n_max * n_max + 1)
    vals = np.exp(1j * theta) * symbol_values(sym, ns)
    return Sequence({int(n): complex(v) for n, v in zip(ns, vals)})


@pytest.fixture
def norm_dtypes(monkeypatch):
    """dtypes of the matrices helson.approx hands to operator_norm."""
    dtypes = []

    def recording_norm(matrix, tol=1e-10, max_iter=50000, start=None):
        dtypes.append(np.asarray(matrix).dtype)
        return operator_norm(matrix, tol, max_iter, start=start)

    monkeypatch.setattr("helson.approx.operator_norm", recording_norm)
    return dtypes


@pytest.mark.parametrize("sym, grid, n_max", [
    (MHilbertSymbol(), (0.5, 0.8), 64),
    (MHilbertSymbol(), (0.5, 0.8, 0.95), 64),
    (MIXED_SIGNS, (0.4, 0.8), 8),
    (MIXED_SIGNS, (0.3, 0.6, 0.9), 8),
])
def test_approx_complex_path_matches_real(norm_dtypes, sym, grid, n_max):
    # M(e^{i theta} alpha) = e^{i theta} M(alpha): the same problem, with a
    # real symbol on the float64 path and its rotation on the complex one
    real = best_convex_approx(sym, grid, n_max)
    assert norm_dtypes and set(norm_dtypes) == {np.dtype(np.float64)}
    norm_dtypes.clear()
    turned = rotated(sym, n_max)
    cplx = best_convex_approx(turned, grid, n_max)
    assert norm_dtypes and set(norm_dtypes) == {np.dtype(np.complex128)}
    assert real.converged and cplx.converged
    assert cplx.weights.weights == real.weights.weights
    assert cplx.value == pytest.approx(real.value, rel=1e-12)
    w = real.weights.weights
    assert real.value == pytest.approx(objective(sym, w, grid, n_max), rel=1e-9)
    assert cplx.value == pytest.approx(objective(turned, w, grid, n_max), rel=1e-9)


# -------------------------------------------------- compactness_diagnostic


def test_diagnostic_delta1_zero():
    table = compactness_diagnostic(Sequence.delta(1), (0.5, 0.9), (2, 4))
    for _, _, value in table.rows:
        assert value <= 1e-12


def test_diagnostic_delta2_exact():
    table = compactness_diagnostic(Sequence.delta(2), (0.25, 0.5, 0.9), (2, 4, 8))
    for r, _, value in table.rows:
        assert value == pytest.approx(1 - r, abs=1e-12)


def test_diagnostic_power_monotone_in_r():
    table = compactness_diagnostic(PowerSymbol(1.0), (0.9, 0.99, 0.999), (8, 16))
    for n in (8, 16):
        col = [v for r, nn, v in table.rows if nn == n]
        assert col[0] >= col[1] >= col[2] - 1e-12
        # compact fixture: the diagnostic heads to zero as r rises
        assert col[2] <= 1e-9 + col[0] * 0.1


def test_diagnostic_real_symbol_normed_in_float64(norm_dtypes):
    real = compactness_diagnostic(MIXED_SIGNS, (0.5, 0.9), (4, 8))
    assert set(norm_dtypes) == {np.dtype(np.float64)}
    norm_dtypes.clear()
    cplx = compactness_diagnostic(rotated(MIXED_SIGNS, 8), (0.5, 0.9), (4, 8))
    assert set(norm_dtypes) == {np.dtype(np.complex128)}
    for (r, n, want), (_, _, got) in zip(real.rows, cplx.rows):
        dense = objective(MIXED_SIGNS, (1.0,), (r,), n)
        assert got == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(dense, rel=1e-9)


def test_diagnostic_csv_and_lookup():
    table = compactness_diagnostic(Sequence.delta(2), (0.5,), (2,))
    text = table.to_csv()
    assert text.splitlines()[0] == "r,N,value"
    assert table.value_at(0.5, 2) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        table.value_at(0.7, 2)


def test_diagnostic_schedule_validation():
    with pytest.raises(DomainError):
        compactness_diagnostic(Sequence.delta(1), (0.9, 0.5), (2,))
    with pytest.raises(DomainError):
        compactness_diagnostic(Sequence.delta(1), (0.5,), (4, 2))
