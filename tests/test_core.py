import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import helson
from helson import (
    DomainError,
    Sequence,
    bilinear_pair,
    dilate,
    dilation_hs_sum,
    dilation_weight,
    dirichlet_convolve,
    factorize,
    filter_smooth,
    load_sequence,
    save_sequence,
    sequence_from_triples,
    sequence_to_triples,
    sieve_limit,
    weighted_degree,
)
from oracles import primes_upto, trial_factor


def random_sequence(rng, max_index=64, size=8):
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Sequence({int(n): complex(v) for n, v in zip(idx, vals)})


# ---------------------------------------------------------------- multi-index


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == (2, 1)
    assert factorize(360) == (3, 2, 1)
    assert factorize(5) == (0, 0, 1)


def test_factorize_matches_trial_factor():
    rng = np.random.default_rng(3)
    primes = primes_upto(200000)
    for _ in range(400):
        n = int(rng.integers(1, 200000))
        factors = trial_factor(n, primes)
        kappa = [0] * (factors[-1][0] if factors else 0)
        for j, e in factors:
            kappa[j - 1] = e
        assert factorize(n) == tuple(kappa)


def test_factorize_matches_trial_factor_below_2_16():
    primes = primes_upto(1 << 16)
    for n in range(1, 1 << 16):
        factors = trial_factor(n, primes)
        kappa = [0] * (factors[-1][0] if factors else 0)
        for j, e in factors:
            kappa[j - 1] = e
        assert factorize(n) == tuple(kappa), n


def test_multiindex_degrees():
    # 200 = 2^3 5^2: degree 5, weighted degree 1*3 + 3*2
    kappa = factorize(200)
    assert kappa == (3, 0, 2)
    assert sum(kappa) == 5
    assert sum(j * e for j, e in enumerate(kappa, start=1)) == 9
    assert weighted_degree(200) == 9


# ------------------------------------------------------------------ Sequence


def test_sequence_construction():
    a = Sequence({2: 1.0, 3: 1j})
    assert a.support == (2, 3)
    assert a[2] == 1.0
    assert a[3] == 1j
    assert a[5] == 0.0
    assert len(a) == 2
    assert a.max_index == 3
    assert bool(a)
    assert not bool(Sequence())


def test_sequence_rejects_bad_indices():
    with pytest.raises(DomainError):
        Sequence({0: 1.0})
    with pytest.raises(DomainError):
        Sequence({-3: 1.0})
    with pytest.raises(DomainError):
        Sequence({2.5: 1.0})


def test_sequence_drops_zeros_and_sums_duplicates():
    a = Sequence({4: 0.0, 5: 2.0})
    assert a.support == (5,)
    b = Sequence([(3, 1.0), (3, -1.0)])
    assert not b


def test_sequence_arithmetic():
    a = Sequence.delta(2)
    b = Sequence.delta(3)
    s = a + b
    assert s[2] == 1 and s[3] == 1
    assert (s - a) == b
    assert (2 * a)[2] == 2
    assert (a * 2)[2] == 2
    assert (-a)[2] == -1
    assert a.conjugate()[2] == 1
    c = Sequence({2: 1j})
    assert c.conjugate()[2] == -1j


def test_sequence_times_a_non_finite_scalar_is_refused():
    for scalar in (math.inf, -math.inf, math.nan, complex(1.0, math.inf)):
        with pytest.raises(DomainError, match="sequence values must be finite"):
            Sequence.delta(2) * scalar


def test_sequence_operators_defer_to_a_non_sequence():
    a = Sequence.delta(2)
    assert a.__eq__(2) is NotImplemented
    assert a.__add__(2) is NotImplemented
    assert a.__sub__(2) is NotImplemented
    # with no reflected method on the other side, == falls back to identity
    assert a != 2
    with pytest.raises(TypeError):
        a + 2
    with pytest.raises(TypeError):
        a - 2


_NUMPY_AND_A_SEQUENCE = """
import numpy as np
from helson import DomainError, Sequence

seq = Sequence.delta(2)
assert np.float64(2.0) * seq == seq * np.float64(2.0) == Sequence({2: 2.0})
try:
    np.True_ * seq
except DomainError:
    pass
else:
    raise AssertionError("np.True_ * seq was not refused")
for call in (list, np.asarray, iter):
    try:
        call(seq)
    except TypeError:
        pass
    else:
        raise AssertionError(f"{call.__name__}(seq) was not refused")
"""


def test_numpy_never_reads_a_sequence_as_an_array():
    # numpy once read a Sequence through __getitem__ at 0, 1, 2, ... and,
    # every index off the support reading 0, never stopped; the child
    # process and its timeout turn such a hang into a failure
    env = dict(os.environ)
    home = str(pathlib.Path(helson.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (home, env.get("PYTHONPATH"))))
    try:
        proc = subprocess.run([sys.executable, "-c", _NUMPY_AND_A_SEQUENCE],
                              capture_output=True, text=True, env=env, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("numpy read the Sequence without end")
    assert proc.returncode == 0, proc.stderr


def test_sequence_repr_shows_at_most_six_entries():
    assert repr(Sequence({1: 1j})) == "Sequence({1: 1j})"
    six = ", ".join(f"{n}: ({n}+0j)" for n in range(1, 7))
    assert repr(Sequence({n: float(n) for n in range(1, 7)})) == f"Sequence({{{six}}})"
    assert repr(Sequence({n: float(n) for n in range(1, 8)})) == f"Sequence({{{six}, ...}})"


def test_sequence_norm_and_restrict():
    a = Sequence({1: 3.0, 4: 4.0})
    assert a.norm() == pytest.approx(5.0)
    assert a.restrict(2).support == (1,)
    assert a.restrict(4) == a


def test_sequence_norm_of_entries_whose_squares_overflow():
    assert Sequence({1: 3e200, 4: 4e200j}).norm() == pytest.approx(5e200)
    assert Sequence({1: 1e300 + 1e300j}).norm() == pytest.approx(math.sqrt(2) * 1e300)
    assert Sequence({1: 1e308, 2: -1e308j}).norm() == pytest.approx(math.sqrt(2) * 1e308)
    # squares that fit keep the one plain sum
    assert Sequence({1: 3.0, 4: 4.0}).norm() == 5.0


def test_sequence_hash_eq():
    assert Sequence.delta(7) == Sequence({7: 1.0})
    assert hash(Sequence.delta(7)) == hash(Sequence({7: 1.0}))
    assert Sequence.delta(7) != Sequence.delta(8)


def test_filter_smooth():
    a = Sequence({1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.0})
    assert filter_smooth(a, 1).support == (1, 2, 4)
    assert filter_smooth(a, 2).support == (1, 2, 3, 4, 6)
    assert filter_smooth(a, None) == a


# -------------------------------------------------------------- convolution


def test_convolve_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b = random_sequence(rng)
        out = dirichlet_convolve(Sequence.delta(1), b)
        assert out == b.conjugate()


def test_convolve_single_pair():
    assert dirichlet_convolve(Sequence.delta(2), Sequence.delta(3)) == Sequence.delta(6)


def test_convolve_cancellation():
    # a(2)=1, a(3)=i: the n=6 term cancels, 1*conj(i) + i*conj(1) = 0
    a = Sequence({2: 1.0, 3: 1j})
    out = dirichlet_convolve(a, a)
    assert out == Sequence({4: 1.0, 9: 1.0})


def test_convolve_definition_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = random_sequence(rng, max_index=40, size=6)
        b = random_sequence(rng, max_index=40, size=6)
        out = dirichlet_convolve(a, b)
        prods = {i * j for i in a.support for j in b.support}
        assert set(out.support) <= prods
        for n in prods:
            direct = sum(
                a[k] * np.conj(b[n // k]) for k in range(1, n + 1) if n % k == 0
            )
            assert abs(out[n] - direct) <= 1e-12 * (1 + abs(direct))


def test_convolve_bilinearity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = random_sequence(rng, size=5)
        a2 = random_sequence(rng, size=5)
        b = random_sequence(rng, size=5)
        lhs = dirichlet_convolve(a + a2, b)
        rhs = dirichlet_convolve(a, b) + dirichlet_convolve(a2, b)
        diff = lhs - rhs
        assert diff.norm() <= 1e-12 * (1 + lhs.norm())
        # conjugate-linear in the second argument
        lhs2 = dirichlet_convolve(b, 1j * a)
        rhs2 = -1j * dirichlet_convolve(b, a)
        assert (lhs2 - rhs2).norm() <= 1e-12 * (1 + lhs2.norm())


def test_convolve_pointwise_bound():
    rng = np.random.default_rng(7)
    for _ in range(60):
        a = random_sequence(rng, size=7)
        b = random_sequence(rng, size=7)
        out = dirichlet_convolve(a, b)
        bound = a.norm() * b.norm()
        for n in out.support:
            assert abs(out[n]) <= bound + 1e-12


def test_convolve_overflow():
    # products are never factored, so one past the sieve's range is
    # computed; one past the int64 index range is refused
    big = sieve_limit()
    assert dirichlet_convolve(Sequence({big: 1.0}), Sequence.delta(2)) == Sequence.delta(2 * big)
    with pytest.raises(DomainError, match="below 2\\^63"):
        dirichlet_convolve(Sequence({2**62: 1.0}), Sequence.delta(2))


def test_convolve_refuses_a_product_at_2_63():
    # a product at 2^63 is refused, not dropped, even when every other
    # product lies in range; one at 2^63 - 1 is kept
    with pytest.raises(DomainError, match="below 2\\^63, got 9223372036854775808"):
        dirichlet_convolve(Sequence({1: 1.0, 2**62: 1.0}), Sequence.delta(2))
    top = 2**63 - 1
    assert dirichlet_convolve(Sequence.delta(top), Sequence.delta(1)) == Sequence.delta(top)


def test_convolve_products_never_wrap_int64():
    # 2^40 * 2^40 = 2^80 wraps to 0 in int64 and 2^62 * 3 to a negative
    # index; both lie past the int64 index range, so they are refused
    a = Sequence({2**40: 1.0})
    with pytest.raises(DomainError, match="below 2\\^63"):
        dirichlet_convolve(a, a)
    b = Sequence({1: 1.0, 2**40: 1.0, 2**62: 1j})
    with pytest.raises(DomainError, match="below 2\\^63"):
        dirichlet_convolve(b, Sequence({3: 2.0}))


# ------------------------------------------------------------------ pairing


def test_bilinear_pair_examples():
    assert bilinear_pair(Sequence.delta(3), Sequence.delta(3)) == 1
    assert bilinear_pair(Sequence.delta(2), Sequence.delta(3)) == 0
    assert bilinear_pair(Sequence({1: 1j}), Sequence({1: 1j})) == -1


# ----------------------------------------------------------------- dilation


def test_dilation_param_bounds():
    assert dilation_weight(0.5, 2) == 0.5
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            dilation_weight(bad, 2)
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            dilation_hs_sum(bad, 1e-6)


def test_dilation_weight_examples():
    assert dilation_weight(0.7, 1) == 1.0
    assert dilation_weight(0.5, 2) == pytest.approx(0.5)
    assert dilation_weight(0.5, 12) == pytest.approx(0.0625)
    rng = np.random.default_rng(8)
    for _ in range(100):
        # keep weighted degrees moderate so r^w stays above underflow
        n = int(rng.integers(2, 64))
        r = float(rng.uniform(0.3, 0.95))
        w = dilation_weight(r, n)
        assert 0 < w < 1


def test_dilation_weight_is_the_python_power():
    # bit for bit r ** omega(n), on a dense range and on sparse indices
    # whose largest prime has a large index (a degree far above the rest)
    sparse = np.array([1, 6, 1048573, 2 * 524269, 1048576], dtype=np.int64)
    for r in (0.3, 0.7, 0.999, float(np.nextafter(1.0, 0.0))):
        for ns in (np.arange(1, 4097, dtype=np.int64), sparse):
            got = dilation_weight(r, ns)
            want = [r ** int(weighted_degree(int(n))) for n in ns]
            assert got.tolist() == want
        assert dilation_weight(r, 1048573) == r ** int(weighted_degree(1048573))
    assert dilation_weight(0.5, np.array([], dtype=np.int64)).shape == (0,)


def test_dilate_examples():
    a = Sequence.delta(2) + Sequence.delta(3)
    out = dilate(0.5, a)
    assert out[2] == pytest.approx(0.5)
    assert out[3] == pytest.approx(0.25)
    assert dilate(0.3, Sequence.delta(1)) == Sequence.delta(1)
    assert not dilate(0.3, Sequence())


def test_dilate_intertwining():
    rng = np.random.default_rng(9)
    for _ in range(40):
        a = random_sequence(rng, size=6)
        b = random_sequence(rng, size=6)
        r = float(rng.uniform(0.1, 0.95))
        lhs = dilate(r, dirichlet_convolve(a, b))
        rhs = dirichlet_convolve(dilate(r, a), dilate(r, b))
        assert (lhs - rhs).norm() <= 1e-12 * (1 + lhs.norm())


def test_dilate_contractive():
    rng = np.random.default_rng(10)
    for _ in range(40):
        a = random_sequence(rng)
        r = float(rng.uniform(0.1, 0.95))
        assert dilate(r, a).norm() <= a.norm() + 1e-12
    # equality iff the support sits at index 1
    a = Sequence({1: 2.0})
    assert dilate(0.5, a).norm() == pytest.approx(a.norm())
    b = Sequence({1: 1.0, 2: 1.0})
    assert dilate(0.5, b).norm() < b.norm()


def test_dilate_semigroup():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = random_sequence(rng)
        r = float(rng.uniform(0.2, 0.95))
        s = float(rng.uniform(0.2, 0.95))
        lhs = dilate(r, dilate(s, a))
        rhs = dilate(r * s, a)
        assert (lhs - rhs).norm() <= 1e-12 * (1 + rhs.norm())


def test_dilate_sot_surrogate():
    rng = np.random.default_rng(12)
    a = random_sequence(rng, max_index=32, size=10)
    errs = [(a - dilate(r, a)).norm() for r in (0.9, 0.99, 0.999)]
    assert errs[0] > errs[1] > errs[2]


# ------------------------------------------------------------------ HS sum


def test_hs_sum_at_least_one():
    for r in (0.05, 0.3, 0.6, 0.9):
        rec = dilation_hs_sum(r, 1e-10)
        assert rec.partial_sum >= 1.0
        assert rec.product_form >= 1.0


def test_hs_sum_agreement():
    rec = dilation_hs_sum(0.5, 1e-12)
    rel = abs(rec.partial_sum - rec.product_form) / rec.product_form
    assert rel < 1e-11
    assert rec.terms_used > 0


def test_hs_sum_small_r_bound():
    rec = dilation_hs_sum(0.1, 1e-12)
    assert rec.product_form < 1.0205


def test_hs_sum_agreement_grid():
    for r in (0.2, 0.5, 0.8, 0.95, 0.99):
        for tolerance in (1e-8, 1e-12):
            rec = dilation_hs_sum(r, tolerance)
            rel = abs(rec.partial_sum - rec.product_form) / rec.product_form
            assert rel < 10 * tolerance, (r, tolerance, rel)


def test_hs_sum_matches_product_truth():
    # straight product evaluation with a generous cutoff
    for r in (0.3, 0.7):
        truth = 1.0
        for j in range(1, 4000):
            truth *= 1.0 / (1.0 - r ** (2 * j))
        rec = dilation_hs_sum(r, 1e-12)
        assert rec.product_form == pytest.approx(truth, rel=1e-10)


# partial_sum, product_form and terms_used of the level-by-level loop
# (one math.exp and one running sum per level) the vectorized sum replaced
HS_PINNED = [
    (0.5, 1e-10, 1.45235364244148, 1.4523536423368795, 24),
    (0.5, 1e-12, 1.4523536424495225, 1.4523536424491565, 28),
    (0.9, 1e-10, 445.80792941914393, 445.80792939598354, 254),
    (0.9, 1e-12, 445.80792943314316, 445.80792943291516, 288),
    (0.99, 1e-10, 1.9613063209728354e+34, 1.9613063209208278e+34, 9114),
    (0.99, 1e-12, 1.9613063211132228e+34, 1.9613063211126818e+34, 9772),
]


@pytest.mark.parametrize("r, tolerance, partial, product, terms", HS_PINNED,
                         ids=[f"r={row[0]}-tol={row[1]}" for row in HS_PINNED])
def test_hs_sum_matches_the_level_loop(r, tolerance, partial, product, terms):
    rec = dilation_hs_sum(r, tolerance)
    assert rec.partial_sum == pytest.approx(partial, rel=1e-14, abs=0)
    assert rec.product_form == product
    assert rec.terms_used == terms and type(rec.terms_used) is int


def test_hs_sum_cap(monkeypatch):
    monkeypatch.setattr("helson.core.HS_MAX_TERMS", 500)
    with pytest.raises(DomainError, match="levels"):
        dilation_hs_sum(0.999999, 1e-12)
    with pytest.raises(DomainError):
        dilation_hs_sum(0.5, 2.0)


# --------------------------------------------------------------------- io


def test_triples_roundtrip(tmp_path):
    a = Sequence({1: 1.0 + 2.0j, 9: -0.5})
    triples = sequence_to_triples(a)
    assert triples == [[1, 1.0, 2.0], [9, -0.5, 0.0]]
    assert sequence_from_triples(triples) == a
    path = tmp_path / "a.json"
    save_sequence(a, path)
    assert load_sequence(path) == a


@pytest.mark.parametrize("obj, message", [
    ({"sequence": []}, "must be a JSON array of"),
    ("[[1, 1.0, 0.0]]", "must be a JSON array of"),
    ([[1, 2]], r"malformed sequence triple: \[1, 2\]"),
    ([[1, 1.0, 0.0], 5], "malformed sequence triple: 5"),
])
def test_triples_refuse_a_non_list_and_a_malformed_triple(obj, message):
    with pytest.raises(DomainError, match=message):
        sequence_from_triples(obj)


def test_triples_must_increase():
    with pytest.raises(DomainError):
        sequence_from_triples([[2, 1.0, 0.0], [2, 1.0, 0.0]])
