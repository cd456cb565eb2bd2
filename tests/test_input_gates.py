"""One refusal table over every public entry point taking a number.

Each integer, real, complex value and matrix passes one of the gates of
helson.errors, so a bool, a float where an integer belongs and a string
are refused alike with DomainError, and numpy integers and floats pass
wherever Python ints and floats do.
"""

import numpy as np
import pytest

from helson import (
    ConvexWeights,
    DeltaSymbol,
    DomainError,
    GeometricDecay,
    HelsonMatrix,
    PowerSymbol,
    RandomDecaySymbol,
    Sequence,
    XNormConfig,
    assemble,
    dilate,
    dilate_symbol,
    dilation_hs_sum,
    factorize,
    filter_smooth,
    is_smooth,
    operator_norm,
    refine_representation,
    representation_from_matrix,
    sequence_from_triples,
    smooth_indices,
    split_sequence,
    symbol_values,
    weighted_degree,
    xnorm,
)
from helson.bounds import _norm_upper_bound

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
    "Sequence.__getitem__": lambda n: Sequence.delta(2)[n],
    "GeometricDecay.prefix": lambda n: GeometricDecay(0.5).prefix(n),
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

# each takes one finite real of either sign, valid at 1.0, but no string
FINITE_VALUE_ENTRIES = {
    "sequence_from_triples.re": lambda x: sequence_from_triples([[1, x, 0.0]]),
    "sequence_from_triples.im": lambda x: sequence_from_triples([[1, 0.0, x]]),
    "ConvexWeights.weights": lambda x: ConvexWeights((0.5,), (x,)),
}

# each takes one finite complex number, valid at 0.5j
COMPLEX_ENTRIES = {
    "Sequence": lambda z: Sequence({1: z}),
    "Sequence.delta": lambda z: Sequence.delta(2, value=z),
    "Sequence * scalar": lambda z: Sequence.delta(2) * z,
    "GeometricDecay.coeff": lambda z: GeometricDecay(0.5, coeff=z),
}

class Outside:
    """A symbol from outside the package: value(n) alone, one fixed value."""

    def __init__(self, out):
        self.out = out

    def value(self, n):
        return self.out


# each evaluates an outside symbol index by index, valid at a value 0.5j
OUTSIDE_VALUE_ENTRIES = {
    "symbol_values": lambda z: symbol_values(Outside(z), [1, 2]),
    "assemble": lambda z: assemble(Outside(z), 2),
}

# each is given an index at or past 2^63: a Python int past the int64
# range, which numpy keeps as an object, a list of Python ints that numpy
# makes float64, or a uint64 that would wrap
INDEX_RANGE_REFUSALS = {
    "symbol_values.mixed_list": (lambda: symbol_values(PowerSymbol(1.0), [2**63, -1]), 2**63),
    "weighted_degree.list": (lambda: weighted_degree([1, 2**63]), 2**63),
    "smooth_indices": (lambda: smooth_indices(2**64), 2**64),
    "weighted_degree": (lambda: weighted_degree(2**64), 2**64),
    "factorize": (lambda: factorize(2**64), 2**64),
    "dilate_symbol": (lambda: dilate_symbol(PowerSymbol(1.0), 0.5, 2**32), 2**64),
    "symbol_values.uint64": (
        lambda: symbol_values(PowerSymbol(1.0), np.array([2**63], dtype=np.uint64)), 2**63),
}

# each takes one square matrix of numbers, valid at np.eye(2)
MATRIX_ENTRIES = {
    "operator_norm": operator_norm,
    "_norm_upper_bound": _norm_upper_bound,
    "HelsonMatrix": lambda m: HelsonMatrix(m, (1, 2)),
    "representation_from_matrix": lambda m: representation_from_matrix(m, (1, 2)),
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
    # n_max + 1 would wrap in uint8
    assert smooth_indices(np.uint8(255)) == smooth_indices(255)
    assert dilate(np.float32(0.5), Sequence.delta(2)) == dilate(0.5, Sequence.delta(2))
    assert dilation_hs_sum(np.float64(0.5), 1e-6) == dilation_hs_sum(0.5, 1e-6)
    assert PowerSymbol(np.float64(0.5)).spec == PowerSymbol("0.5").spec == "power:0.5"
    assert RandomDecaySymbol(3, np.int64(1)).spec == "random-decay:3,1"


@pytest.mark.parametrize("bad", [(True,), (np.True_,), (2.5,), (3.0,), ("3",)], ids=repr)
def test_the_matrix_index_map_refuses_other_types(bad):
    # HelsonMatrix once took int(n) of each, so (2.5,) stood for index 2
    with pytest.raises(DomainError, match="indices must be integers, got dtype"):
        HelsonMatrix(np.eye(1), bad)


def test_a_sequence_reads_zero_off_its_support():
    a = Sequence.delta(2)
    assert a[0] == a[-3] == a[3] == a[2**70] == 0j and a[np.int64(2)] == 1.0


@pytest.mark.parametrize("bad", [True, np.True_, "1", 1j, None], ids=repr)
@pytest.mark.parametrize("entry", FINITE_VALUE_ENTRIES)
def test_finite_values_refuse_other_types(entry, bad):
    # a sequence file's [1, true, 0] and [1, "1.5", 0] once read as numbers
    with pytest.raises(DomainError, match="must be a real number, got"):
        FINITE_VALUE_ENTRIES[entry](bad)


@pytest.mark.parametrize("bad", [True, np.True_, "2", None], ids=repr)
@pytest.mark.parametrize("entry", COMPLEX_ENTRIES)
def test_complex_inputs_refuse_other_types(entry, bad):
    # Sequence({1: "2"}) once held 2, and GeometricDecay(0.5, True) had coeff 1
    with pytest.raises(DomainError, match="must be a number, got"):
        COMPLEX_ENTRIES[entry](bad)


@pytest.mark.parametrize("bad", [True, np.True_, "1.5", None], ids=repr)
@pytest.mark.parametrize("entry", OUTSIDE_VALUE_ENTRIES)
def test_outside_symbol_values_refuse_other_types(entry, bad):
    # complex(value(n)) once parsed an outside value "1.5" as 1.5+0j
    with pytest.raises(DomainError, match="value of symbol Outside must be a number, got"):
        OUTSIDE_VALUE_ENTRIES[entry](bad)


@pytest.mark.parametrize("good", [2, 0.5j, np.int64(2), np.float32(0.5), np.complex64(0.5j)],
                         ids=repr)
@pytest.mark.parametrize("entry", OUTSIDE_VALUE_ENTRIES)
def test_outside_symbol_values_take_numpy_numbers(entry, good):
    OUTSIDE_VALUE_ENTRIES[entry](good)


@pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["10**400", "-10**400"])
@pytest.mark.parametrize("entry", COMPLEX_ENTRIES)
def test_complex_inputs_refuse_values_past_the_float_range(entry, bad):
    # complex(10**400) raises OverflowError
    with pytest.raises(DomainError, match=r"must be finite, got \(-?inf\+0j\)"):
        COMPLEX_ENTRIES[entry](bad)


@pytest.mark.parametrize("good", [2, 0.5j, np.int64(2), np.float32(0.5), np.complex64(0.5j)],
                         ids=repr)
@pytest.mark.parametrize("entry", COMPLEX_ENTRIES)
def test_complex_inputs_take_numpy_numbers(entry, good):
    COMPLEX_ENTRIES[entry](good)


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", 0.5j, None], ids=repr)
def test_the_norm_tolerance_refuses_other_types(bad):
    with pytest.raises(DomainError, match="tolerance must be a real number, got"):
        operator_norm(np.eye(2), tol=bad)


@pytest.mark.parametrize("bad", [np.eye(2, dtype=bool), np.array([["1", "0"], ["0", "2"]]),
                                 np.array([[1, 0], [0, 2]], dtype=object)],
                         ids=["bool", "str", "object"])
@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_matrices_refuse_entries_that_are_not_numbers(entry, bad):
    # operator_norm of the string matrix once parsed it and returned 2.0
    with pytest.raises(DomainError, match="matrix entries must be numbers, got dtype"):
        MATRIX_ENTRIES[entry](bad)


@pytest.mark.parametrize("good", [np.eye(2, dtype=np.int8), np.eye(2, dtype=np.float32),
                                  np.eye(2, dtype=np.complex64), [[1, 0], [0, 1.0]]],
                         ids=["int8", "float32", "complex64", "list"])
@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_matrices_take_integer_real_and_complex_entries(entry, good):
    MATRIX_ENTRIES[entry](good)


@pytest.mark.parametrize("entry", INDEX_RANGE_REFUSALS)
def test_indices_past_int64_are_refused_by_range(entry):
    # not "indices must be integers, got dtype object", nor a wrapped value
    call, index = INDEX_RANGE_REFUSALS[entry]
    with pytest.raises(DomainError, match=rf"^index must be below 2\^63, got {index}$"):
        call()
