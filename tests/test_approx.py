import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helson import (
    ConvexWeights,
    DeltaSymbol,
    DomainError,
    MHilbertSymbol,
    PowerSymbol,
    Sequence,
    assemble,
    best_convex_approx,
    compactness_diagnostic,
    dilate_symbol,
    operator_norm,
    parse_fixture,
    symbol_values,
)
from helson.core import dilation_weight
from helson.approx import BRACKET_TOL, POLISH_SWEEPS, _golden_search
from helson.cli import main
from helson.spectral import NORM_TOL
from oracles import simplex_grid_search


def random_sequence(rng, max_index=64, size=10):
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Sequence({int(n): complex(v) for n, v in zip(idx, vals)})


@pytest.fixture
def norm_calls(monkeypatch):
    """(tol, dtype) of every operator_norm call from helson.approx."""
    calls = []

    def recording_norm(matrix, tol=NORM_TOL):
        calls.append((tol, np.asarray(matrix).dtype))
        return operator_norm(matrix, tol)

    monkeypatch.setattr("helson.approx.operator_norm", recording_norm)
    return calls


def dtypes(calls):
    return {dtype for _, dtype in calls}


def objective(symbol, weights, r_grid, n_max):
    """Dense evaluation of f(c) = ||M - sum c_k M_rk|| for cross-checks."""
    target = assemble(symbol, n_max).entries
    # dilate_symbol weights the symbol itself, a route apart from the solver's
    fam = [assemble(dilate_symbol(symbol, r, n_max), n_max).entries for r in r_grid]
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
    with pytest.raises(DomainError, match="equal length"):
        ConvexWeights((0.5, 0.9), (1.0,))


@pytest.mark.parametrize("weights", [(np.nan, np.nan), (0.5, np.nan), (np.inf, -np.inf)])
def test_weights_refuse_non_finite(weights):
    # every comparison with nan is false, so the simplex checks alone pass it
    with pytest.raises(DomainError, match="weights must be finite"):
        ConvexWeights((0.5, 0.9), weights)


# --------------------------------------------------------- best_convex_approx


def test_approx_delta1_is_exact():
    res = best_convex_approx(Sequence.delta(1), (0.3, 0.7), 4)
    assert res.value <= 1e-10
    assert res.converged
    assert res.lower == 0.0


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


def test_approx_upper_bound_sandwich(monkeypatch):
    rng = np.random.default_rng(42)
    grid = (0.4, 0.7, 0.95)
    monkeypatch.setattr("helson.approx.POLISH_SWEEPS", 2)
    for _ in range(5):
        alpha = random_sequence(rng, max_index=36, size=8)
        res = best_convex_approx(alpha, grid, 6, tol=1e-8)
        vertex = min(
            objective(alpha, tuple(int(i == k) for i in range(3)), grid, 6)
            for k in range(3)
        )
        assert res.value <= vertex + 1e-6
        # the value is the Lanczos norm at the returned weights, which
        # agrees with the dense-SVD one to rounding
        f_svd = objective(alpha, res.weights.weights, grid, 6)
        assert abs(res.value - f_svd) <= 1e-13 * f_svd
        # the optimum of these cases is a vertex, so on the sweep's lattice
        target = assemble(alpha, 6).entries
        family = [assemble(dilate_symbol(alpha, r, 6), 6).entries for r in grid]
        grid_val, _ = simplex_grid_search(target, family, resolution=0.01)
        assert res.converged
        assert res.lower <= grid_val <= res.value * (1 + 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(2, 4), st.integers(2, 6))
def test_approx_lower_bounds_dense_objective(seed, is_complex, k_pts, n_max):
    # lower must sit below f everywhere, the returned weights and the
    # vertices included, with no tolerance: the rounding margin has to
    # cover the arithmetic of the bound
    rng = np.random.default_rng(seed)
    idx = rng.choice(np.arange(1, n_max * n_max + 1), size=min(8, n_max * n_max),
                     replace=False)
    vals = rng.standard_normal(len(idx))
    if is_complex:
        vals = vals + 1j * rng.standard_normal(len(idx))
    alpha = Sequence({int(n): complex(v) for n, v in zip(idx, vals)})
    grid = tuple(np.sort(rng.choice(np.arange(5, 100), size=k_pts, replace=False)) / 100.0)
    res = best_convex_approx(alpha, grid, n_max)
    points = [res.weights.weights] + list(np.eye(k_pts)) + list(
        rng.dirichlet(np.ones(k_pts), size=10))
    for c in points:
        assert res.lower <= objective(alpha, c, grid, n_max)


NONNEGATIVE_SYMBOLS = st.one_of(
    st.floats(-1.0, 2.0).map(PowerSymbol),
    st.just(MHilbertSymbol()),
    st.integers(1, 200).map(DeltaSymbol),
    st.dictionaries(st.integers(1, 400), st.floats(0.0, 10.0), min_size=1, max_size=12)
    .map(Sequence),
)


@settings(max_examples=60, deadline=None)
@given(symbol=NONNEGATIVE_SYMBOLS,
       grid=st.lists(st.floats(0.05, 0.99), min_size=1, max_size=4, unique=True)
       .map(sorted).map(tuple),
       n_max=st.integers(1, 64),
       budget=st.none() | st.integers(1, 5))
def test_approx_nonnegative_window_closes_on_its_first_norm(symbol, grid, n_max, budget):
    # on an entrywise nonnegative window e_K is optimal and its Perron pair
    # closes the bracket: the opening norm is the whole search
    target = assemble(symbol, n_max, budget).entries
    svd = np.linalg.norm(target - assemble(
        dilate_symbol(symbol, grid[-1], n_max), n_max, budget).entries, 2)
    # the bracket's rounding margin is about 1e-13 ||A||_F, so below this
    # f(e_K) the relative stop cannot fire (next test)
    assume(svd >= 1e-3 * np.linalg.norm(target))
    calls = []

    def counted(matrix, tol=NORM_TOL):
        calls.append(tol)
        return operator_norm(matrix, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("helson.approx.operator_norm", counted)
        res = best_convex_approx(symbol, grid, n_max, prime_budget=budget)
    assert len(calls) == 1 and res.converged
    assert res.weights.weights == tuple(float(k == len(grid) - 1) for k in range(len(grid)))
    assert res.value - res.lower <= BRACKET_TOL * res.value
    assert res.value == pytest.approx(svd, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("tiny", [1e-10, 1e-6])
def test_approx_narrow_nonnegative_bracket_closes_at_once(tiny, norm_calls):
    # f(e_K) = tiny (1 - r_K) sits far below ||A||_F = 1; the rounding
    # margin is a multiple of max_k ||A - B_k||_F, so it scales with f,
    # and the pair of e_K closes the bracket in one inner norm
    alpha = Sequence({1: 1.0, 2: tiny})
    res = best_convex_approx(alpha, (0.5, 0.9), 2)
    assert res.converged and len(norm_calls) == 1
    assert res.weights.weights == (0.0, 1.0)
    assert res.value == pytest.approx(tiny * 0.1, rel=1e-9)
    assert res.value - res.lower <= BRACKET_TOL * res.value
    # lower <= min f: f is at least its value on a fine simplex grid, less
    # the dense norm's rounding
    dense = min(objective(alpha, (1.0 - t, t), (0.5, 0.9), 2)
                for t in np.linspace(0.0, 1.0, 101))
    assert res.lower <= dense * (1 + 1e-12)


@pytest.mark.parametrize("spec", ["mhilbert", "random-decay:7,0.5"])
def test_approx_vertex_probe_closes_bracket(norm_calls, spec):
    # the optimum is e_K, where the search opens: its one norm, at the
    # caller's tolerance, is all the work there is
    res = best_convex_approx(parse_fixture(spec), (0.9, 0.99, 0.999), 64, tol=1e-11)
    assert res.weights.weights == (0.0, 0.0, 1.0)
    assert [tol for tol, _ in norm_calls] == [1e-11]
    assert res.history == [res.value]
    assert res.converged
    assert res.value - res.lower <= 1e-9 * res.value


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
        c, c2 = rng.dirichlet(np.ones(3), size=2)
        t = float(rng.uniform())
        mid = t * c + (1 - t) * c2
        f_mid = objective(sym, mid, grid, 8)
        f_c = objective(sym, c, grid, 8)
        f_c2 = objective(sym, c2, grid, 8)
        assert f_mid <= t * f_c + (1 - t) * f_c2 + 1e-9


def test_approx_nonconvergence_flag(monkeypatch):
    # a norm that cannot certify within the cap must flag, not raise; a
    # window of 33 rows is past the dense start, which certifies at once
    sym = PowerSymbol(1.0)
    monkeypatch.setattr("helson.spectral.NORM_MAX_ITER", 3)
    res = best_convex_approx(sym, (0.5, 0.8, 0.95), 33)
    assert not res.converged
    assert res.value >= 0


def test_approx_two_point_nonconvergence_flag(monkeypatch):
    # the K = 2 line search must fold every inner certificate into the
    # flag (33 rows: past the dense start)
    monkeypatch.setattr("helson.spectral.NORM_MAX_ITER", 3)
    res = best_convex_approx(PowerSymbol(1.0), (0.5, 0.8), 33)
    assert not res.converged
    assert res.value >= 0


def test_approx_unreachable_tol_stops_at_first_norm(monkeypatch, norm_calls):
    # an uncertified norm ends the search: an unreachable tolerance must not
    # spend the iteration cap on every point of the search, so its one norm
    # is at e_K, where the search opens
    monkeypatch.setattr("helson.spectral.NORM_MAX_ITER", 3)
    res = best_convex_approx(MHilbertSymbol(), (0.5, 0.8, 0.95), 16, tol=1e-30)
    assert not res.converged
    assert len(norm_calls) == 1 and norm_calls[0][0] == 1e-30
    assert res.weights.weights == (0.0, 0.0, 1.0)
    assert res.history == [res.value] and res.value > 0


def test_approx_certification_does_not_hide_bugs(monkeypatch):
    class PlantedBug(RuntimeError):
        pass

    def norm_with_bug(*args, **kwargs):
        raise PlantedBug("planted")

    monkeypatch.setattr("helson.approx.operator_norm", norm_with_bug)
    with pytest.raises(PlantedBug, match="planted"):
        best_convex_approx(PowerSymbol(1.0), (0.5, 0.8, 0.95), 8)


@pytest.mark.parametrize("sym, grid, n_max, value", [
    (MHilbertSymbol(), (0.5, 0.8, 0.95), 16, 0.2468483261190313),
    # real with mixed signs: the leading singular value can switch between
    # the largest and the most negative eigenvalue along the search
    (Sequence({1: 1, 2: -1.5, 3: 0.8, 6: -0.4}), (0.4, 0.8), 8, 0.5526572715647717),
    (Sequence({1: 1, 2: -1.5, 3: 0.8, 6: -0.4}), (0.3, 0.6, 0.9), 8, 0.29065012095362414),
], ids=["mhilbert-K3", "mixed-signs-K2", "mixed-signs-K3"])
def test_approx_open_bracket_runs_only_line_searches(monkeypatch, norm_calls, sym, grid,
                                                    n_max, value):
    # the optimum of these cases is e_K, where one pair closes the bracket,
    # so only a negative tolerance keeps it open and runs every sweep; each
    # golden-section line costs at most 60 norms
    monkeypatch.setattr("helson.approx.BRACKET_TOL", -1.0)
    res = best_convex_approx(sym, grid, n_max)
    k_pts = len(grid)
    assert len(norm_calls) <= 2 + POLISH_SWEEPS * k_pts * (k_pts - 1) // 2 * 60
    assert res.converged
    assert res.weights.weights == tuple(float(k == k_pts - 1) for k in range(k_pts))
    assert res.value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("lo, hi, low", [(0.0, 1.0, 0.1), (-3.0, 5.0, -2.9)])
def test_golden_search_shrinks_toward_lo(lo, hi, low):
    # a minimum near lo makes the left probe the lower one, step after step
    seen = []

    def fun(x):
        seen.append(x)
        return (x - low) ** 2

    _golden_search(fun, lo, hi, lambda: False, tol=1e-10)
    assert abs(min(seen, key=lambda x: abs(x - low)) - low) <= 1e-9
    assert max(seen) < hi - 0.3 * (hi - lo)


def test_approx_sweeps_find_an_interior_optimum():
    # neither vertex closes the bracket: the optimum mixes the two r, and
    # golden section finds it from the left side of the line
    alpha = Sequence(RISING_COLUMN)
    grid = (0.02, 0.37)
    res = best_convex_approx(alpha, grid, 5)
    assert res.converged and len(res.history) > 2
    target = assemble(alpha, 5).entries
    family = [assemble(dilate_symbol(alpha, r, 5), 5).entries for r in grid]
    grid_val, grid_w = simplex_grid_search(target, family, resolution=0.01)
    assert res.lower <= grid_val <= res.value * (1 + 1e-9)
    assert res.value <= grid_val
    assert np.allclose(res.weights.weights, grid_w, atol=0.01)
    assert 0.2 < res.weights.weights[0] < 0.4


MIXED_SIGNS = Sequence({1: 1, 2: -1.5, 3: 0.8, 6: -0.4})


def rotated(sym, n_max, theta=0.7):
    """e^{i theta} alpha on every product n*m of the window, as a Sequence."""
    ns = np.arange(1, n_max * n_max + 1)
    vals = np.exp(1j * theta) * symbol_values(sym, ns)
    return Sequence({int(n): complex(v) for n, v in zip(ns, vals)})


@pytest.mark.parametrize("sym, grid, n_max", [
    (MHilbertSymbol(), (0.5, 0.8), 64),
    (MHilbertSymbol(), (0.5, 0.8, 0.95), 64),
    (MIXED_SIGNS, (0.4, 0.8), 8),
    (MIXED_SIGNS, (0.3, 0.6, 0.9), 8),
])
def test_approx_complex_path_matches_real(norm_calls, sym, grid, n_max):
    # M(e^{i theta} alpha) = e^{i theta} M(alpha): the same problem, with a
    # real symbol on the float64 path and its rotation on the complex one
    real = best_convex_approx(sym, grid, n_max)
    assert norm_calls and dtypes(norm_calls) == {np.dtype(np.float64)}
    norm_calls.clear()
    turned = rotated(sym, n_max)
    cplx = best_convex_approx(turned, grid, n_max)
    assert norm_calls and dtypes(norm_calls) == {np.dtype(np.complex128)}
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


# a real mixed-sign symbol on the products of the window 1..5, found by a
# seeded search (numpy seed 2026, 3000 Gaussian symbols rounded to two
# decimals, r on the grid 0.02, 0.04, ..., 0.98): the largest rise of a
# diagnostic column, from r = 0.02 to r = 0.22
RISING_COLUMN = {1: 0.42, 2: -1.16, 3: 0.35, 4: 0.32, 5: -2.45, 6: 0.3, 8: 1.54,
                 9: -0.8, 10: -2.28, 12: -1.16, 15: 0.34, 16: 0.25, 20: 1.01, 25: 2.34}


def test_diagnostic_column_can_rise_for_mixed_signs():
    # monotonicity in r holds for nonnegative windows only; the table
    # reports the rise as it is
    alpha = Sequence(RISING_COLUMN)
    table = compactness_diagnostic(alpha, (0.02, 0.22), (5,))
    assert table.converged
    (_, _, low), (_, _, high) = table.rows
    assert high > low + 0.04
    for r, n, value in table.rows:
        assert value == pytest.approx(objective(alpha, (1.0,), (r,), n), rel=1e-9)


def test_diagnostic_real_symbol_normed_in_float64(norm_calls):
    real = compactness_diagnostic(MIXED_SIGNS, (0.5, 0.9), (4, 8))
    assert dtypes(norm_calls) == {np.dtype(np.float64)}
    norm_calls.clear()
    cplx = compactness_diagnostic(rotated(MIXED_SIGNS, 8), (0.5, 0.9), (4, 8))
    assert dtypes(norm_calls) == {np.dtype(np.complex128)}
    for (r, n, want), (_, _, got) in zip(real.rows, cplx.rows):
        dense = objective(MIXED_SIGNS, (1.0,), (r,), n)
        assert got == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(dense, rel=1e-9)


def test_each_window_is_assembled_once(monkeypatch):
    # the dilated matrices are D_r M D_r of the one assembled M
    sizes = []

    def counting(symbol, n_max, *args, **kwargs):
        sizes.append(n_max)
        return assemble(symbol, n_max, *args, **kwargs)

    monkeypatch.setattr("helson.approx.assemble", counting)
    best_convex_approx(MHilbertSymbol(), (0.5, 0.8, 0.95), 8)
    assert sizes == [8]
    sizes.clear()
    # the whole table comes from one assembly, at the largest N
    compactness_diagnostic(MHilbertSymbol(), (0.5, 0.8, 0.95), (4, 8), prime_budget=2)
    assert sizes == [8]


# real on the products of 1..3, complex from 10 = 2 * 5 on
REAL_HEAD = Sequence({1: 1.0, 2: -0.5, 4: 1.0, 6: 0.3, 10: 0.2j, 20: -0.1 + 0.4j})


@pytest.mark.parametrize("symbol, budget", [
    (MHilbertSymbol(), None),
    (parse_fixture("random-decay:7,0.5"), None),
    (parse_fixture("random-decay:7,0.5"), 2),
    (REAL_HEAD, None),
    (REAL_HEAD, 3),
])
def test_diagnostic_rows_match_one_assembly_per_window(symbol, budget, norm_calls):
    # each window's matrix and weights are leading blocks of the largest
    # window's, and a real block is normed in float64 as its own assembly is
    grid, sizes = (0.3, 0.7, 0.95), (3, 8, 20)
    table = compactness_diagnostic(symbol, grid, sizes, prime_budget=budget)
    rows, want_dtypes = [], set()
    for n_max in sizes:
        base = assemble(symbol, n_max, budget)
        m = base.entries
        want_dtypes.add(m.dtype)
        for r in grid:
            w = dilation_weight(r, np.asarray(base.indices))
            rows.append((r, n_max, operator_norm(w[:, None] * m * w[None, :] - m).norm))
    assert table.rows == tuple(rows)
    assert dtypes(norm_calls) == want_dtypes
    if symbol is REAL_HEAD:
        assert len(want_dtypes) == 2


def test_diagnostic_refuses_a_size_below_1_and_a_window_past_the_cap(norm_calls):
    with pytest.raises(DomainError, match=r"^truncation size must be >= 1, got 0$"):
        compactness_diagnostic(MHilbertSymbol(), (0.5,), (0, 4))
    # the cap is checked at the largest N, before any norm
    with pytest.raises(DomainError, match="dense assembly capped at 1024 rows"):
        compactness_diagnostic(MHilbertSymbol(), (0.5,), (4, 1025))
    assert norm_calls == []


def test_diagnostic_flags_uncertified_norms(monkeypatch, norm_calls):
    # an uncertified row keeps its best estimate and flags the table, as
    # best_convex_approx flags its result, instead of raising
    table = compactness_diagnostic(MHilbertSymbol(), (0.5, 0.9), (8,))
    assert table.converged
    monkeypatch.setattr("helson.spectral.NORM_MAX_ITER", 5)
    norm_calls.clear()
    rough = compactness_diagnostic(MHilbertSymbol(), (0.5, 0.9), (8,), tol=1e-17)
    assert not rough.converged
    assert len(norm_calls) == 2
    for (r, n, want), (r2, n2, got) in zip(table.rows, rough.rows):
        assert (r2, n2) == (r, n)
        assert 0.0 < got <= want * (1 + 1e-9)


def test_diagnostic_csv_and_lookup(capsys):
    # the library returns the rows, and the CLI renders them as CSV
    table = compactness_diagnostic(Sequence.delta(2), (0.5,), (2,))
    lookup = {(r, n): v for r, n, v in table.rows}
    assert lookup == pytest.approx({(0.5, 2): 0.5})
    assert main(["essnorm", "delta:2", "--N", "2", "--grid", "0.5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "r,N,value"
    r, n_max, value = lines[2].split(",")
    assert (float(r), int(n_max), float(value)) == pytest.approx((0.5, 2, 0.5))


def test_diagnostic_schedule_validation():
    with pytest.raises(DomainError):
        compactness_diagnostic(Sequence.delta(1), (0.9, 0.5), (2,))
    with pytest.raises(DomainError):
        compactness_diagnostic(Sequence.delta(1), (0.5,), (4, 2))
    with pytest.raises(DomainError, match="nonempty"):
        compactness_diagnostic(Sequence.delta(1), (0.5,), ())
    # a non-integral size is refused, not truncated to a row for N = 4
    for size in (4.7, 4.0, True):
        with pytest.raises(DomainError, match="N-schedule entry must be an integer"):
            compactness_diagnostic(MHilbertSymbol(), (0.5,), [size])
    assert compactness_diagnostic(MHilbertSymbol(), (0.5,), [np.int64(4)]).rows[0][1] == 4
