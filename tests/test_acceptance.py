"""Acceptance suite: eleven end-to-end checks, one per library guarantee.

Each test prints one "ACCEPTANCE k (name): PASS" line on success and
asserts its runtime budget.  Tolerances are stated inline; none are
loosened relative to the module contracts.
"""

import math
import time

import numpy as np
import pytest

from oracles import simplex_grid_search, xnorm_oracle

from helson import (
    MHilbertSymbol,
    PowerSymbol,
    Sequence,
    assemble,
    best_convex_approx,
    bilinear_pair,
    compactness_diagnostic,
    dilate,
    dilate_symbol,
    dilation_weight,
    dirichlet_convolve,
    duality_gap,
    filter_smooth,
    form,
    l2_lower_bound_check,
    operator_norm,
    parse_fixture,
    refine_representation,
    rep_cost,
    split_sequence,
    xnorm,
)
from helson.weakprod import GeometricDecay

FIXTURES = ("delta:6", "power:1", "mhilbert", "random-decay:11,1.25")


def random_sequence(rng, max_index, size, smooth=None):
    pool = np.arange(1, max_index + 1)
    if smooth is not None:
        from helson import is_smooth

        pool = np.array([n for n in pool if is_smooth(int(n), smooth)])
    size = min(size, len(pool))
    idx = rng.choice(pool, size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Sequence({int(n): complex(v) for n, v in zip(idx, vals)})


def test_01_form_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(500):
        alpha = random_sequence(rng, 256, 8)
        a = random_sequence(rng, 16, 5)
        b = random_sequence(rng, 16, 5)
        lhs = form(alpha, a, b)
        rhs = bilinear_pair(alpha, dirichlet_convolve(a, b))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 (form identity): PASS [{elapsed:.2f}s]")


def test_02_intertwining_and_compression():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    for n_max in (4, 16, 64):
        for r in (0.5, 0.9, 0.99):
            a = random_sequence(rng, n_max, 6)
            b = random_sequence(rng, n_max, 6)
            lhs = dilate(r, dirichlet_convolve(a, b))
            rhs = dirichlet_convolve(dilate(r, a), dilate(r, b))
            diff = lhs - rhs
            for n in diff.support:
                assert abs(diff[n]) <= 1e-12 * (1 + abs(lhs[n]))
            alpha = random_sequence(rng, n_max * n_max, 20)
            m = assemble(alpha, n_max)
            mr = assemble(dilate_symbol(alpha, r, n_max), n_max)
            d = np.diag(dilation_weight(r, m.indices))
            err = np.max(np.abs(mr.entries - d @ m.entries @ d))
            assert err <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 (intertwining + compression): PASS [{elapsed:.2f}s]")


def test_03_contraction_chain():
    t0 = time.perf_counter()
    for spec in FIXTURES:
        symbol = parse_fixture(spec)
        for n_max in (16, 64, 256):
            base = operator_norm(assemble(symbol, n_max), tol=1e-10).norm
            for r in (0.5, 0.9, 0.99):
                dil = assemble(dilate_symbol(symbol, r, n_max), n_max)
                assert operator_norm(dil, tol=1e-10).norm <= base + 1e-9
            check = l2_lower_bound_check(symbol, n_max)
            assert check.ok, (spec, n_max)
            assert check.op_norm >= check.l2_norm - 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 (contraction chain): PASS [{elapsed:.2f}s]")


def test_04_spectral_anchor():
    t0 = time.perf_counter()
    golden = operator_norm(assemble(Sequence.delta(1) + Sequence.delta(2), 2),
                           tol=1e-12).norm
    assert abs(golden - (1 + math.sqrt(5)) / 2) <= 1e-9
    for sigma, n_max in ((1.0, 64), (0.75, 256)):
        got = operator_norm(assemble(PowerSymbol(sigma), n_max), tol=1e-12).norm
        expect = sum(n ** (-2.0 * sigma) for n in range(1, n_max + 1))
        assert abs(got - expect) <= 1e-9 * expect
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 (spectral anchor): PASS [{elapsed:.2f}s]")


def test_05_compact_approximation():
    t0 = time.perf_counter()
    sym = PowerSymbol(1.0)
    n_max, grid = 32, (0.9, 0.99, 0.999)
    res = best_convex_approx(sym, grid, n_max)
    norm = operator_norm(assemble(sym, n_max), tol=1e-10).norm
    assert res.value <= 0.05 * norm
    target = assemble(sym, n_max).entries
    family = [assemble(dilate_symbol(sym, r, n_max), n_max).entries for r in grid]
    grid_val, _ = simplex_grid_search(target, family, resolution=0.01)
    assert abs(res.value - grid_val) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 (compact approximation): PASS "
          f"[value={res.value:.3e}, grid={grid_val:.3e}, {elapsed:.2f}s]")


def test_06_compactness_diagnostic():
    t0 = time.perf_counter()
    table = compactness_diagnostic(Sequence.delta(2), (0.5, 0.9, 0.99), (2, 4, 8))
    for r, _n, value in table.rows:
        assert abs(value - (1 - r)) <= 1e-12
    table = compactness_diagnostic(PowerSymbol(1.0), (0.9, 0.99, 0.999), (16,))
    col = [v for _r, _n, v in table.rows]
    assert col[0] > col[1] > col[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 6 (compactness diagnostic): PASS [{elapsed:.2f}s]")


def test_07_xnorm_anchors():
    t0 = time.perf_counter()
    res1 = xnorm(Sequence.delta(1), 4)
    assert abs(res1.value - 1.0) <= 1e-6
    assert res1.primal_dual_gap <= 1e-6
    res4 = xnorm(Sequence.delta(4), 4)
    assert abs(res4.value - 1.0) <= 1e-6
    assert res4.primal_dual_gap <= 1e-6
    rng = np.random.default_rng(1007)
    for _ in range(200):
        n_max = int(rng.integers(2, 7))
        c = random_sequence(rng, n_max, int(rng.integers(1, 5)))
        value = xnorm(c, n_max).value
        for n in c.support:
            assert abs(c[n]) <= value + 1e-6
        assert value <= c.norm() + 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7 (x-norm anchors): PASS [{elapsed:.2f}s]")


def test_08_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)
    matches = 0
    total = 40
    for trial in range(total):
        n_max = int(rng.integers(2, 7))
        prods = sorted({i * j for i in range(1, n_max + 1)
                        for j in range(1, n_max + 1)})
        take = min(3, len(prods))
        supp = rng.choice(prods, size=take, replace=False)
        entries = {int(n): complex(v, w) for n, v, w in
                   zip(supp, rng.standard_normal(take), rng.standard_normal(take))}
        c = Sequence(entries)
        value = xnorm(c, n_max).value
        oracle = xnorm_oracle(entries, n_max, rank=4, restarts=50, seed=trial)
        rel = abs(value - oracle) / max(1.0, abs(oracle))
        if rel <= 1e-3:
            matches += 1
        # primal feasibility: the solver can never beat the true infimum
        assert value >= oracle - 1e-3, (trial, value, oracle)
    assert matches >= int(0.95 * total), matches
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 8 (oracle equivalence): PASS "
          f"[{matches}/{total} matched, {elapsed:.2f}s]")


def test_09_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    for _ in range(200):
        n_max = int(rng.integers(2, 7))
        alpha = random_sequence(rng, n_max * n_max, 6)
        c = random_sequence(rng, n_max, int(rng.integers(1, 4)))
        rep = duality_gap(alpha, c, n_max)
        assert rep.ratio <= 1 + 1e-6
    alpha = Sequence.delta(1) + Sequence.delta(2)
    m = assemble(alpha, 2)
    spec = operator_norm(m, tol=1e-12)
    u, v = spec.leading_pair
    a = Sequence({n: complex(v[i]) for i, n in enumerate(m.indices)})
    b = Sequence({n: complex(np.conj(u[i])) for i, n in enumerate(m.indices)})
    c_star = dirichlet_convolve(a, b)
    rep = duality_gap(alpha, c_star, 2)
    assert rep.ratio >= 0.99
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 9 (duality): PASS [attainment={rep.ratio:.6f}, {elapsed:.2f}s]")


def test_10_splitting():
    t0 = time.perf_counter()
    for ratio in (0.5, 0.8):
        g = GeometricDecay(ratio)
        for delta in (0.1, 0.01):
            blocks = split_sequence(g, delta, window=128)
            total = sum(bk.norm() for bk in blocks)
            assert total < g.norm() + delta
    eps = 0.01
    g, h = GeometricDecay(0.5), GeometricDecay(0.7)
    refined = refine_representation([(g, h)], eps, 64)
    assert rep_cost(refined) < g.norm() * h.norm() + 2 * eps
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 10 (splitting): PASS [{elapsed:.2f}s]")


def test_11_prime_budget():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1011)
    # invariant 1 on the 2-smooth set: form identity
    for _ in range(100):
        alpha = random_sequence(rng, 256, 8, smooth=1)
        a = random_sequence(rng, 16, 4, smooth=1)
        b = random_sequence(rng, 16, 4, smooth=1)
        lhs = form(alpha, a, b)
        rhs = bilinear_pair(alpha, dirichlet_convolve(a, b))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    # invariant 2: compression identity on the budgeted truncation
    for r in (0.5, 0.9, 0.99):
        alpha = random_sequence(rng, 256, 12, smooth=1)
        m = assemble(alpha, 16, prime_budget=1)
        mr = assemble(dilate_symbol(alpha, r, 16), 16, prime_budget=1)
        d = np.diag(dilation_weight(r, m.indices))
        assert np.max(np.abs(mr.entries - d @ m.entries @ d)) <= 1e-12
    # invariant 3: contraction chain under the budget
    for spec in ("delta:2", "power:1"):
        symbol = parse_fixture(spec)
        for n_max in (16, 64):
            base = operator_norm(assemble(symbol, n_max, prime_budget=1),
                                 tol=1e-10).norm
            for r in (0.5, 0.9):
                dil = assemble(dilate_symbol(symbol, r, n_max), n_max,
                               prime_budget=1)
                assert operator_norm(dil, tol=1e-10).norm <= base + 1e-9
            check = l2_lower_bound_check(symbol, n_max, prime_budget=1)
            assert check.ok
    # the budgeted matrix is a classical Hankel matrix under n = 2^k:
    # entries depend on i + j only
    alpha = random_sequence(rng, 64 * 64, 30, smooth=1)
    m = assemble(alpha, 64, prime_budget=1)
    assert m.indices == (1, 2, 4, 8, 16, 32, 64)
    size = m.size
    for i in range(size):
        for j in range(size):
            assert m.entries[i, j] == m.entries[j, i]
            for i2 in range(size):
                j2 = i + j - i2
                if 0 <= j2 < size:
                    assert m.entries[i, j] == m.entries[i2, j2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 11 (prime budget): PASS [{elapsed:.2f}s]")
