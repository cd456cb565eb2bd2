import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helson
from helson import (
    DomainError,
    GeometricDecay,
    Representation,
    Sequence,
    assemble,
    bilinear_pair,
    dilate,
    dirichlet_convolve,
    duality_gap,
    operator_norm,
    parse_fixture,
    refine_representation,
    rep_cost,
    representation_from_matrix,
    sequence_from_triples,
    split_sequence,
    xnorm,
    XNormConfig,
)
from helson.operator import product_classes
from helson.sieve import factor_pairs
from oracles import (
    _classes,
    hessian_reference,
    primes_upto,
    trial_factor,
    xnorm_certificate_check,
)
from test_cli import STALLED_C

# the complex c of the numpy seed-5 Gaussian draw on 1..16: every prime
# up to 13 divides its support, so the reduced window is large
_RNG5_DRAW = np.random.default_rng(5).standard_normal((16, 2))
RNG5_C = Sequence({n + 1: complex(re, im) for n, (re, im) in enumerate(_RNG5_DRAW)})


def random_sequence(rng, max_index=8, size=3):
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Sequence({int(n): complex(v) for n, v in zip(idx, vals)})


# ------------------------------------------------------------ representation


def test_rep_cost_examples():
    rng = np.random.default_rng(50)
    c = random_sequence(rng, max_index=12, size=5)
    rep = Representation(((c, Sequence.delta(1)),))
    assert rep_cost(rep) == pytest.approx(c.norm())
    # convolving with delta_1 on the right leaves c unchanged (conj(1) = 1)
    assert rep.value() == c
    assert rep_cost(Representation(())) == 0.0


def test_rep_two_pairs():
    rep = Representation(
        ((Sequence.delta(2), Sequence.delta(3)), (Sequence.delta(3), Sequence.delta(2)))
    )
    assert rep_cost(rep) == pytest.approx(2.0)
    assert rep.value() == 2 * Sequence.delta(6)


def test_rep_cost_dominates_xnorm():
    rng = np.random.default_rng(51)
    for _ in range(5):
        a = random_sequence(rng, max_index=3, size=2)
        b = random_sequence(rng, max_index=3, size=2)
        rep = Representation(((a, b),))
        val = rep.value()
        if not val:
            continue
        res = xnorm(val, 3)
        assert res.value <= rep_cost(rep) + 1e-6


# -------------------------------------------------------------------- xnorm


def test_xnorm_delta1():
    res = xnorm(Sequence.delta(1), 4)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.primal_dual_gap <= 1e-6
    assert res.converged


def test_xnorm_delta4():
    res = xnorm(Sequence.delta(4), 4)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.primal_dual_gap <= 1e-6


def test_xnorm_two_delta6():
    res = xnorm(2 * Sequence.delta(6), 6)
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_xnorm_zero():
    res = xnorm(Sequence(), 4)
    assert res.value == 0.0
    assert res.iterations == 0
    assert not res.certificate
    assert res.converged


def test_xnorm_takes_no_step_on_a_bracket_already_closed():
    # the opening bracket [0, 1e-7] is already within tol = 1e-6
    res = xnorm(Sequence({1: 1e-7}), 4)
    assert res.iterations == 0 and res.converged
    assert res.value == 1e-7 and res.primal_dual_gap == 1e-7
    assert not res.certificate


def test_xnorm_unrepresentable_support():
    # 5 is prime and exceeds the window, so no product i*j with i,j <= 4 hits it
    with pytest.raises(DomainError):
        xnorm(Sequence.delta(5), 4)


def test_xnorm_window_must_fit_the_sieve(monkeypatch):
    # 40^2 exceeds the sieve, though the reduced window {1, 2, 4, ..., 32}
    # of delta_2 would fit: the N x N result needs the full window
    monkeypatch.setattr(helson.sieve, "MAX_INDEX", 1024)
    with pytest.raises(DomainError):
        xnorm(Sequence.delta(2), 40)
    assert xnorm(Sequence.delta(2), 32).matrix.shape == (32, 32)


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1e-6}, {"tol": math.inf}, {"tol": math.nan},
    {"max_iter": 0}, {"max_iter": 2.5},
])
def test_xnorm_config_rejects_bad_settings(kwargs):
    # an infinite tolerance once stopped at once as "converged", and a
    # nan one never stopped on the gap at all
    with pytest.raises(DomainError):
        XNormConfig(**kwargs)


def test_xnorm_matrix_feasibility():
    rng = np.random.default_rng(52)
    for _ in range(5):
        c = random_sequence(rng, max_index=6, size=3)
        res = xnorm(c, 6)
        for n, positions in _classes(6).items():
            got = sum(res.matrix[i, j] for i, j in positions)
            assert abs(got - c[n]) <= 1e-6
        nuc = float(np.linalg.svd(res.matrix, compute_uv=False).sum())
        assert nuc == pytest.approx(res.value, abs=1e-8)


def test_xnorm_certificate_invariants():
    rng = np.random.default_rng(53)
    for _ in range(5):
        c = random_sequence(rng, max_index=5, size=3)
        res = xnorm(c, 5)
        beta = res.certificate
        assert operator_norm(assemble(beta, 5), tol=1e-10).norm <= 1 + 1e-6
        pairing = abs(bilinear_pair(beta, c))
        assert pairing >= res.value - res.primal_dual_gap - 1e-9


def test_xnorm_coordinate_bound_and_l2():
    rng = np.random.default_rng(54)
    for _ in range(10):
        c = random_sequence(rng, max_index=6, size=4)
        res = xnorm(c, 6)
        for n in c.support:
            assert abs(c[n]) <= res.value + 1e-6
        assert res.value <= c.norm() + 1e-6


def test_xnorm_dilation_contractive():
    rng = np.random.default_rng(55)
    for _ in range(5):
        c = random_sequence(rng, max_index=6, size=3)
        base = xnorm(c, 6).value
        for r in (0.5, 0.9):
            assert xnorm(dilate(r, c), 6).value <= base + 1e-6


def test_xnorm_window_monotone():
    # each value is exact only up to its primal-dual gap, so compare with
    # that allowance; non-converged runs report honest (larger) gaps
    rng = np.random.default_rng(56)
    for _ in range(5):
        c = random_sequence(rng, max_index=4, size=3)
        r4 = xnorm(c, 4)
        r6 = xnorm(c, 6)
        r8 = xnorm(c, 8)
        slack46 = r4.primal_dual_gap + r6.primal_dual_gap + 1e-8
        slack68 = r6.primal_dual_gap + r8.primal_dual_gap + 1e-8
        assert r6.value <= r4.value + slack46
        assert r8.value <= r6.value + slack68


def _smooth_over(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


# xnorm of STALLED_C solved on the whole N x N window, before the
# reduction to the primes of supp(c): (value, iterations), gap <= 1e-6
FULL_WINDOW = {8: (2.138171763661, 950), 12: (2.123477868013, 12300),
               16: (2.123390865640, 11200)}


@pytest.mark.parametrize("n_max", sorted(FULL_WINDOW))
def test_stalled_c_reduced_window_matches_full_window(n_max):
    c = sequence_from_triples(STALLED_C)
    res = xnorm(c, n_max)
    value, iterations = FULL_WINDOW[n_max]
    assert res.converged and res.primal_dual_gap <= 1e-6
    assert abs(res.value - value) <= 2e-6
    # FULL_WINDOW's counts bound the steps from above; they pin nothing
    assert res.iterations < iterations
    # supp(c) = {1, 2, 3, 4, 6}: the program lives on the {2, 3}-smooth rows
    assert res.matrix.shape == (n_max, n_max)
    off = [i for i in range(n_max) if not _smooth_over(i + 1, (2, 3))]
    assert off and not res.matrix[off, :].any() and not res.matrix[:, off].any()
    for n, positions in _classes(n_max).items():
        got = sum(res.matrix[i, j] for i, j in positions)
        assert abs(got - c[n]) <= 1e-9
    assert all(_smooth_over(n, (2, 3)) for n in res.certificate.support)
    assert xnorm_certificate_check(c, res.certificate, res.value - res.primal_dual_gap,
                                   n_max)


def test_xnorm_prime_budget_invariance():
    # with every prime of supp(c) among the first d, the budget window
    # reduces to the same indices, so the solver runs the same arithmetic
    rng = np.random.default_rng(60)
    for d, n_max in ((1, 8), (2, 8), (2, 9), (3, 10)):
        window = [n for n in range(1, n_max + 1) if _smooth_over(n, (2, 3, 5)[:d])]
        idx = rng.choice(window, size=3, replace=False)
        vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = Sequence({int(n): complex(v) for n, v in zip(idx, vals)})
        budget = xnorm(c, n_max, prime_budget=d)
        full = xnorm(c, n_max)
        assert (budget.value, budget.iterations) == (full.value, full.iterations)
        assert budget.certificate == full.certificate


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.data())
def test_xnorm_bracket_holds_at_every_cap(n_max, data):
    # a run stopped at any cap, converged or not, keeps a feasible matrix
    # and a valid certificate, and no factorization error escapes
    classes = _classes(n_max)
    support = data.draw(st.lists(st.sampled_from(sorted(classes)), min_size=1,
                                 max_size=4, unique=True))
    part = st.floats(-2.0, 2.0)
    c = Sequence({n: complex(data.draw(part), data.draw(part)) for n in support})
    for cap in range(1, 61):
        res = xnorm(c, n_max, XNormConfig(max_iter=cap))
        for n, positions in classes.items():
            got = sum(res.matrix[i, j] for i, j in positions)
            assert abs(got - c[n]) <= 1e-9
        nuc = float(np.linalg.svd(res.matrix, compute_uv=False).sum())
        assert res.value == pytest.approx(nuc, rel=1e-12, abs=1e-12)
        beta = res.certificate
        cert = np.array([[beta[i * j] for j in range(1, n_max + 1)]
                         for i in range(1, n_max + 1)], dtype=complex)
        assert np.linalg.svd(cert, compute_uv=False)[0] <= 1.0
        assert abs(bilinear_pair(beta, c)) >= res.value - res.primal_dual_gap - 1e-12


def test_xnorm_brackets_before_its_first_step():
    # the first Newton decrement overflows at this scale: the bracket is
    # the exactly feasible projected zero matrix against certificate 0
    res = xnorm(Sequence({1: 1e200}), 2)
    assert res.value == 1e200
    assert res.converged is False
    assert res.iterations == 0
    assert res.primal_dual_gap == 1e200
    assert res.matrix[0, 0] == 1e200 and np.count_nonzero(res.matrix) == 1


@pytest.mark.parametrize("k", [1, 4, 12])
def test_xnorm_stops_where_cholesky_fails(k, monkeypatch):
    # an F that no longer factors ends the solve with the bracket so far
    c = Sequence({1: 1.0, 2: 0.5 - 0.25j, 6: -0.75j})
    full = xnorm(c, 6)
    assert full.converged and full.iterations > 12
    calls = []
    cholesky = np.linalg.cholesky

    def failing(m):
        calls.append(m)
        if len(calls) == k:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    res = xnorm(c, 6)
    assert len(calls) == k
    assert res.converged is False
    assert res.iterations == k - 1
    # upper >= ||c||_X >= lower, against the converged bracket
    assert res.value >= full.value - full.primal_dual_gap
    assert res.value - res.primal_dual_gap <= full.value


def test_stalled_c_solves_in_few_newton_steps():
    # a bound, not a pin: the barrier schedule took 42/38/38 steps
    # before the re-measured constants
    c = sequence_from_triples(STALLED_C)
    for n_max in (8, 12, 16):
        res = xnorm(c, n_max)
        assert res.converged and res.iterations <= 32


def test_xnorm_full_support_memory_is_bounded():
    # the S^4 Hessian tensors of the former route peaked at 28.7 MB here
    tracemalloc.start()
    try:
        res = xnorm(RNG5_C, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 16e6


def _newton_w(classes, beta):
    """W = F^-1 at the class values beta, F = [[I, B], [B^H, I]]."""
    b = beta[classes.labels]
    eye = np.eye(b.shape[0])
    return np.linalg.inv(np.block([[eye, b], [b.conj().T, eye]]).astype(complex))


def _assert_blocked_hessian(classes, w):
    dim = classes.labels.shape[0]
    w11, w21, w22 = w[:dim, :dim], w[dim:, :dim], w[dim:, dim:]
    refs = hessian_reference(w11, w21, w22, classes.labels)
    for got, ref in zip((classes.pair_sums(w21, w21), classes.pair_sums(w11, w22)), refs):
        # pair_sums is indexed [q, p], the reference [p, q]
        assert np.abs(got.T - ref).max() <= 1e-14 * np.abs(ref).max()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=10, unique=True),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_class_blocked_hessian_matches_reference(indices, real, seed):
    rng = np.random.default_rng(seed)
    classes = product_classes(sorted(indices))
    m = classes.uniq.size
    beta = rng.standard_normal(m) + (0.0 if real else 1j * rng.standard_normal(m))
    # a strictly feasible point: ||B|| = 0.9
    beta *= 0.9 / np.linalg.norm(beta[classes.labels], 2)
    _assert_blocked_hessian(classes, _newton_w(classes, beta))


@pytest.mark.parametrize("n_max", (16, 32, 64))
@pytest.mark.parametrize("case", ("seed7", "rng5"))
def test_class_blocked_hessian_on_newton_iterates(case, n_max):
    # W at 0.9 times the certificate after five Newton steps, on the
    # reduced window xnorm solves on
    c = sequence_from_triples(STALLED_C) if case == "seed7" else RNG5_C
    primes = {p for n in c.support for p, _ in factor_pairs(n)}
    ref = primes_upto(n_max)
    window = [n for n in range(1, n_max + 1)
              if all(ref[j - 1] in primes for j, _ in trial_factor(n, ref))]
    classes = product_classes(window)
    cert = xnorm(c, n_max, XNormConfig(max_iter=5)).certificate
    beta = 0.9 * cert.values(classes.uniq)
    _assert_blocked_hessian(classes, _newton_w(classes, beta))


# --------------------------------------------------- representation extraction


def test_representation_from_matrix():
    rng = np.random.default_rng(57)
    c = random_sequence(rng, max_index=4, size=3)
    res = xnorm(c, 4)
    rep = representation_from_matrix(res.matrix)
    assert rep_cost(rep) == pytest.approx(res.value, abs=1e-7)
    # the extracted representation reproduces c on the window product set
    diff = rep.value() - c
    assert diff.norm() <= 1e-6


def test_representation_from_matrix_rank_one():
    w = np.array([1.0, 0.5])
    rep = representation_from_matrix(np.outer(w, w))
    assert len(rep.pairs) == 1
    assert rep_cost(rep) == pytest.approx(np.dot(w, w))


# ------------------------------------------------------- certificate checks


# M_2 of this alpha is [[1, -0.5], [-0.5, 1]], of norm 1.5; the all-ones
# start of a Krylov norm sees only its other eigenvalue, 0.5
TRAP_ALPHA = Sequence({1: 1.0, 2: -0.5, 4: 1.0})


def test_certificate_check_examples():
    d1 = Sequence.delta(1)
    assert xnorm_certificate_check(d1, d1, 1.0, 4)
    assert xnorm_certificate_check(Sequence.delta(4), Sequence.delta(4), 1.0, 4)
    assert not xnorm_certificate_check(d1, 2 * d1, 2.0, 4)
    # overclaiming fails even with a valid certificate
    assert not xnorm_certificate_check(d1, d1, 1.5, 4)
    # ||M_2((4/3) alpha)|| = 2: no certificate, though an all-ones-start
    # norm of 2/3 once let it "certify" ||delta_1||_X >= 1.3
    assert not xnorm_certificate_check(d1, (4 / 3) * TRAP_ALPHA, 1.3, 2)
    assert xnorm_certificate_check(d1, (1 / 1.5) * TRAP_ALPHA, 2 / 3, 2)


def test_certificate_check_refuses_indices_off_the_window():
    # neither 5 nor 3 is a product of two indices of {1, 2, 4} (budget 1)
    # or of 1..4 (for 5), so no claim about them means anything there
    d1, d3, d5 = Sequence.delta(1), Sequence.delta(3), Sequence.delta(5)
    with pytest.raises(DomainError):
        xnorm_certificate_check(d5, 1e6 * d5, 1e5, 4)
    with pytest.raises(DomainError):
        xnorm_certificate_check(d3, 1e6 * d3, 1e5, 4, prime_budget=1)
    with pytest.raises(DomainError):
        xnorm_certificate_check(d1, d1 + d5, 1.0, 4)
    assert xnorm_certificate_check(d3, d3, 1.0, 4)


# ----------------------------------------------------------------- duality


def test_duality_bound_uses_proven_norm():
    # ||delta_1||_X = 1, so the bound is ||M_2(alpha)|| = 1.5, never 0.5
    rep = duality_gap(TRAP_ALPHA, Sequence.delta(1), 2)
    assert 1.5 - 1e-12 <= rep.bound <= 1.5 + 1e-5


def test_duality_equality_case():
    rep = duality_gap(Sequence.delta(1), Sequence.delta(1), 2)
    assert rep.ratio == pytest.approx(1.0, abs=1e-6)


def test_duality_disjoint():
    rep = duality_gap(Sequence.delta(2), Sequence.delta(3), 4)
    assert rep.pairing == 0.0
    assert rep.ratio == 0.0


def test_duality_zero_bound():
    # delta_5 vanishes on the N = 2 window, so the norm bound is 0, and so
    # is the pairing with delta_2: the ratio is 0, not a division by 0
    rep = duality_gap(parse_fixture("delta:5"), Sequence.delta(2), 2)
    assert (rep.pairing, rep.bound, rep.ratio) == (0.0, 0.0, 0.0)
    assert rep.converged


def test_duality_random_bound():
    rng = np.random.default_rng(58)
    for _ in range(20):
        alpha = random_sequence(rng, max_index=16, size=4)
        c = random_sequence(rng, max_index=4, size=3)
        rep = duality_gap(alpha, c, 4)
        assert rep.ratio <= 1 + 1e-6


def test_duality_attainment():
    # optimizer-returned c from the dual stage at N=2 for the golden-ratio symbol
    alpha = Sequence.delta(1) + Sequence.delta(2)
    m = assemble(alpha, 2)
    spec = operator_norm(m, tol=1e-12)
    u, v = spec.leading_pair
    a = Sequence({n: complex(v[i]) for i, n in enumerate(m.indices) if v[i]})
    b = Sequence({n: complex(np.conj(u[i])) for i, n in enumerate(m.indices) if u[i]})
    c = dirichlet_convolve(a, b)
    rep = duality_gap(alpha, c, 2)
    assert rep.ratio >= 0.99
    assert spec.norm == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)


# ---------------------------------------------------------------- splitting


def test_split_finite_sequence():
    rng = np.random.default_rng(59)
    a = random_sequence(rng, max_index=10, size=4)
    assert split_sequence(a, 0.1) == [a]
    assert split_sequence(Sequence(), 0.1) == []


def test_split_geometric():
    g = GeometricDecay(0.5)
    for delta in (0.1, 0.01):
        blocks = split_sequence(g, delta, window=64)
        total = sum(b.norm() for b in blocks)
        assert total < g.norm() + delta
        # blocks reassemble the prefix exactly and never overlap
        joined = Sequence()
        seen = set()
        for b in blocks:
            assert not (seen & set(b.support))
            seen |= set(b.support)
            joined = joined + b
        assert joined == g.prefix(64)


def _least_cut(g, k, start, scan=200_000):
    """The least m >= start with tail_norm(m) <= 2^-k, by a linear scan.

    Past `scan` indices the scan stops and returns None.
    """
    threshold = 2.0**-k
    for m in range(start, start + scan):
        if g.tail_norm(m) <= threshold:
            return m
    return None


@settings(max_examples=300, deadline=None)
@given(
    ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    coeff=st.one_of(st.sampled_from([0.0, 1.0, 1e300, 1e-300, -2.5j]),
                    st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                                       allow_infinity=False)),
    delta=st.floats(1e-12, 10.0),
    window=st.integers(1, 4000),
)
def test_split_cuts_are_least_and_blocks_reassemble(ratio, coeff, delta, window):
    g = GeometricDecay(ratio, coeff)
    cuts = g._cut_points(delta, window)
    # replay the dyadic schedule with a linear search for every cut
    expected = [0]
    k = max(1, math.ceil(math.log2(4.0 / delta)))
    while expected[-1] < window and g.tail_norm(expected[-1]) > 0.0:
        nxt = _least_cut(g, k, expected[-1])
        if nxt is None:
            # too far for the scan: check that the cut is where the tail drops
            nxt = cuts[len(expected)]
            assert g.tail_norm(nxt) <= 2.0**-k < g.tail_norm(nxt - 1)
        if nxt > expected[-1]:
            expected.append(nxt)
        k += 1
    assert cuts == expected

    blocks = split_sequence(g, delta, window=window)
    top = min(cuts[-1], window)
    joined = Sequence._sum(blocks)
    assert joined == g.prefix(top)
    assert sum(len(b) for b in blocks) == len(joined)
    assert all(blk and blk.max_index <= top for blk in blocks)
    assert all(a.max_index < b.support[0] for a, b in zip(blocks, blocks[1:]))
    # each block lies in one (m_(k-1), m_k], and no two share one
    slots = [np.searchsorted(cuts, [b.support[0], b.max_index]).tolist() for b in blocks]
    assert all(lo == hi for lo, hi in slots)
    assert len({lo for lo, _ in slots}) == len(blocks)
    # up to the rounding of each norm and of the sum, which a delta below
    # the ulp of ||a|| (coeff 1e300) cannot absorb
    total = sum(b.norm() for b in blocks)
    assert total < g.norm() + delta + (len(blocks) + 4) * 2.0**-52 * total


def test_split_stops_where_the_tail_underflows():
    # 2^-k underflows to 0 before the cuts reach the window: the last cut
    # is the first index whose tail norm is 0
    blocks = split_sequence(GeometricDecay(0.5), 0.1, window=2000)
    assert len(blocks) == 1069
    assert blocks[0].support[0] == 1 and blocks[-1].max_index == 1074
    assert split_sequence(GeometricDecay(0.5, 0.0), 0.1, window=2000) == []


def test_split_is_linear_in_the_window():
    # each block is one values call on its own indices (1.3 s when every
    # block was rebuilt from two prefixes)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        split_sequence(GeometricDecay(0.5), 0.1, window=1000)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.1


def test_split_requires_tail_bound():
    class NoTail:
        def value(self, n):
            return 0.5**n

    with pytest.raises(DomainError):
        split_sequence(NoTail(), 0.1, window=16)
    with pytest.raises(DomainError):
        split_sequence(GeometricDecay(0.5), 0.1)  # window missing


def test_split_rejects_bad_delta():
    for delta in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            split_sequence(GeometricDecay(0.5), delta, window=8)


def test_geometric_decay_values():
    g = GeometricDecay(0.5, 2.0)
    assert g.value(3) == pytest.approx(0.25)
    assert g.norm() == pytest.approx(2 * 0.5 / math.sqrt(1 - 0.25))
    assert g.tail_norm(0) == pytest.approx(g.norm())
    # tail consistency: prefix norm and tail norm square-sum to the full norm
    for m in (1, 3, 7):
        p2 = g.prefix(m).norm() ** 2
        t2 = g.tail_norm(m) ** 2
        assert p2 + t2 == pytest.approx(g.norm() ** 2, rel=1e-12)


# --------------------------------------------------------------- refinement


def test_refine_finite_rep_unchanged():
    rep = Representation(((Sequence.delta(2), Sequence.delta(3)),))
    out = refine_representation(rep, 0.01, 8)
    assert out.value() == rep.value()
    assert rep_cost(out) <= rep_cost(rep) + 0.02


def test_refine_geometric_pair():
    g = GeometricDecay(0.5)
    h = GeometricDecay(0.6)
    eps = 0.01
    out = refine_representation([(g, h)], eps, 32)
    assert rep_cost(out) < g.norm() * h.norm() + 2 * eps
    # the refined value matches the straight convolution of the prefixes
    direct = dirichlet_convolve(g.prefix(32), h.prefix(32))
    diff = (out.value() - direct).restrict(32)
    assert diff.norm() <= 1e-9


def test_refine_cancelling_pairs():
    a = Sequence({2: 1.0})
    rep = Representation(((a, a), (a, -1 * a)))
    out = refine_representation(rep, 0.05, 16)
    val = out.value().restrict(16)
    assert val.norm() <= 1e-12


def test_refine_budget_infeasible():
    # the per-pair budget must underflow to zero before the call is rejected;
    # merely tiny budgets still succeed on a finite window
    pair = [(GeometricDecay(0.5), GeometricDecay(0.5))]
    out = refine_representation(pair, 1e-300, 8)
    assert rep_cost(out) > 0
    with pytest.raises(DomainError):
        refine_representation(pair, 5e-324, 8)


@pytest.mark.parametrize("call, message", [
    (lambda: Representation(((Sequence.delta(1), 1.0),)), "must be Sequences"),
    (lambda: representation_from_matrix(np.zeros((2, 3))), "square"),
    (lambda: representation_from_matrix(np.eye(2), (1,)), "index map length"),
    (lambda: GeometricDecay(1.5), "ratio must lie in"),
    (lambda: GeometricDecay(0.5, math.inf), "norm must be finite"),
    (lambda: GeometricDecay(0.9, 1e308), "norm must be finite"),
    (lambda: GeometricDecay(0.5).value(0), "index must be >= 1"),
    (lambda: GeometricDecay(0.5).tail_norm(-1), "cut point must be >= 0"),
    (lambda: split_sequence(GeometricDecay(0.5), 0.1, window=0), "window must be >= 1"),
    (lambda: split_sequence(GeometricDecay(0.5), 0.1, window=8.5),
     "window must be an integer, got float"),
    (lambda: refine_representation([], 0.0, 8), "eps must be a positive real"),
    (lambda: refine_representation([], 0.1, 0), "window must be >= 1"),
])
def test_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_split_refuses_a_tail_that_never_drops():
    # a duck-typed tail generator is refused whatever it provides: only a
    # GeometricDecay has its cuts in closed form
    class Flat:
        def tail_norm(self, m):
            return 1.0

        def prefix(self, m):
            return Sequence({n: 1.0 for n in range(1, m + 1)})

    with pytest.raises(DomainError, match="a finite Sequence or a GeometricDecay, got Flat"):
        split_sequence(Flat(), 0.1, window=4)


def test_bare_pairs_and_blocks_past_the_window():
    a, b = Sequence({1: 3.0}), Sequence({2: 4.0})
    assert rep_cost([(a, b)]) == 12.0
    assert GeometricDecay(0.5).spec == "geometric:0.5"
    # delta_8 restricted to the window 1..4 is empty and pairs with nothing
    out = refine_representation([(Sequence.delta(8), b), (a, b)], 0.1, 4)
    assert len(out) == 1 and out.value() == dirichlet_convolve(a, b)


def test_refine_rejects_costless_pair():
    class NoNorm:
        pass

    with pytest.raises(DomainError):
        refine_representation([(NoNorm(), NoNorm())], 0.1, 8)
