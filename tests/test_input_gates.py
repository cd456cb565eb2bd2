"""One refusal table over every public entry point taking an integer or a real.

Each input passes one of the gates of helson.errors, so a bool, a float
where an integer belongs and a string are refused alike with DomainError,
and numpy integers and floats pass wherever Python ints and floats do.
"""

import numpy as np
import pytest

from helson import (
    DeltaSymbol,
    DomainError,
    GeometricDecay,
    PowerSymbol,
    RandomDecaySymbol,
    Sequence,
    XNormConfig,
    assemble,
    dilate,
    dilation_hs_sum,
    filter_smooth,
    is_smooth,
    refine_representation,
    smooth_indices,
    split_sequence,
    xnorm,
)

# each takes one integer, valid at 3
INTEGER_ENTRIES = {
    "smooth_indices": lambda d: smooth_indices(12, d),
    "is_smooth": lambda d: is_smooth(6, d),
    "filter_smooth": lambda d: filter_smooth(Sequence.delta(2), d),
    "assemble": lambda d: assemble(DeltaSymbol(1), 4, prime_budget=d),
    "xnorm": lambda d: xnorm(Sequence.delta(2), 4, prime_budget=d),
    "XNormConfig.max_iter": lambda n: XNormConfig(max_iter=n),
    "split_sequence.window": lambda n: split_sequence(GeometricDecay(0.5), 0.1, window=n),
    "refine_representation.window": lambda n: refine_representation([], 0.1, n),
    "Sequence.restrict": lambda n: Sequence.delta(2).restrict(n),
}

# each takes one real, valid at 0.5
REAL_ENTRIES = {
    "XNormConfig.tol": lambda x: XNormConfig(tol=x),
    "split_sequence.delta": lambda x: split_sequence(GeometricDecay(0.5), x, window=8),
    "refine_representation.eps": lambda x: refine_representation([], x, 8),
    "dilate": lambda x: dilate(x, Sequence.delta(2)),
    "GeometricDecay": lambda x: GeometricDecay(x),
    "dilation_hs_sum.r": lambda x: dilation_hs_sum(x, 1e-6),
    "dilation_hs_sum.tolerance": lambda x: dilation_hs_sum(0.5, x),
}

# each takes one finite real of either sign, valid at 0.5, or its spec string
FINITE_REAL_ENTRIES = {
    "PowerSymbol": lambda x: PowerSymbol(x),
    "RandomDecaySymbol.rate": lambda x: RandomDecaySymbol(3, x),
}


@pytest.mark.parametrize("bad", [True, np.True_, 2.5, np.float64(3.0), "3"], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_integer_inputs_refuse_other_types(entry, bad):
    with pytest.raises(DomainError, match="must be an integer, got"):
        INTEGER_ENTRIES[entry](bad)


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", 0.5j, None], ids=repr)
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_real_inputs_refuse_other_types(entry, bad):
    with pytest.raises(DomainError, match="must be a real number, got"):
        REAL_ENTRIES[entry](bad)


@pytest.mark.parametrize("bad", [0, -0.5, np.inf, np.nan, 10**400],
                         ids=["0", "-0.5", "inf", "nan", "10**400"])
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_real_inputs_refuse_values_out_of_range(entry, bad):
    with pytest.raises(DomainError, match=r"must be positive and finite|must lie in \(0, 1\)"):
        REAL_ENTRIES[entry](bad)


@pytest.mark.parametrize("bad", [True, np.True_, 0.5j, None], ids=repr)
@pytest.mark.parametrize("entry", FINITE_REAL_ENTRIES)
def test_finite_real_inputs_refuse_other_types(entry, bad):
    # PowerSymbol(True) once built power:1
    with pytest.raises(DomainError, match="must be a real number, got"):
        FINITE_REAL_ENTRIES[entry](bad)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 10**400, "nan", "-inf"],
                         ids=["inf", "-inf", "nan", "10**400", "'nan'", "'-inf'"])
@pytest.mark.parametrize("entry", FINITE_REAL_ENTRIES)
def test_finite_real_inputs_refuse_non_finite_values(entry, bad):
    # PowerSymbol(nan) once built power:nan, refused only when evaluated
    with pytest.raises(DomainError, match="must be finite, got"):
        FINITE_REAL_ENTRIES[entry](bad)


@pytest.mark.parametrize("good", [0, -0.5, 0.5, np.float32(0.5), np.int64(-2), "0.5", " -1"],
                         ids=repr)
@pytest.mark.parametrize("entry", FINITE_REAL_ENTRIES)
def test_finite_real_inputs_take_either_sign_and_spec_strings(entry, good):
    FINITE_REAL_ENTRIES[entry](good)


@pytest.mark.parametrize("good", [3, np.int64(3), np.uint8(3)], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_integer_inputs_take_numpy_integers(entry, good):
    INTEGER_ENTRIES[entry](good)


@pytest.mark.parametrize("good", [0.5, np.float64(0.5), np.float32(0.5)], ids=repr)
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_real_inputs_take_numpy_floats(entry, good):
    REAL_ENTRIES[entry](good)


def test_numpy_inputs_give_the_python_results():
    assert smooth_indices(12, np.int64(2)) == smooth_indices(12, 2)
    assert dilate(np.float32(0.5), Sequence.delta(2)) == dilate(0.5, Sequence.delta(2))
    assert dilation_hs_sum(np.float64(0.5), 1e-6) == dilation_hs_sum(0.5, 1e-6)
    assert PowerSymbol(np.float64(0.5)).spec == PowerSymbol("0.5").spec == "power:0.5"
    assert RandomDecaySymbol(3, np.int64(1)).spec == "random-decay:3,1"
