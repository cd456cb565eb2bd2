import math

import numpy as np
import pytest

from helson import (
    DeltaSymbol,
    DomainError,
    MHilbertSymbol,
    PowerSymbol,
    RandomDecaySymbol,
    Sequence,
    parse_fixture,
    parse_sequence_arg,
    save_sequence,
)
from helson.fixtures import FIXTURES


def test_delta_fixture():
    sym = parse_fixture("delta:3")
    assert sym.value(3) == 1.0
    assert sym.value(2) == 0.0
    assert sym.as_sequence() == Sequence.delta(3)
    assert sym.spec == "delta:3"


def test_power_fixture():
    sym = parse_fixture("power:0.75")
    assert sym.value(4) == pytest.approx(4.0**-0.75)
    assert sym.value(1) == 1.0
    assert isinstance(sym, PowerSymbol)


def test_mhilbert_fixture():
    sym = parse_fixture("mhilbert")
    assert sym.value(1) == 0.0
    assert sym.value(4) == pytest.approx(1.0 / (2.0 * math.log(4)))
    assert isinstance(sym, MHilbertSymbol)


def test_random_decay_deterministic():
    a = parse_fixture("random-decay:7,1.5")
    b = RandomDecaySymbol(7, 1.5)
    # pure in n: same value regardless of evaluation order
    va = [a.value(n) for n in (5, 2, 9, 2, 5)]
    vb = [b.value(n) for n in (2, 5, 9)]
    assert va[0] == va[4] == vb[1]
    assert va[1] == va[3] == vb[0]
    assert va[2] == vb[2]
    # different seeds decorrelate
    c = RandomDecaySymbol(8, 1.5)
    assert c.value(5) != a.value(5)


def test_random_decay_rate():
    sym = RandomDecaySymbol(3, 2.0)
    # |value(n)| <= scale / n^rate with the same gaussian draw rescaled
    rng_vals = [abs(sym.value(n)) * n**2.0 for n in range(1, 30)]
    assert max(rng_vals) < 10.0


def test_file_fixture(tmp_path):
    a = Sequence({1: 1.0, 6: -2.0j})
    path = tmp_path / "seq.json"
    save_sequence(a, path)
    sym = parse_fixture(f"file:{path}")
    assert sym.value(6) == -2.0j
    assert sym.value(5) == 0.0
    assert sym.as_sequence() == a


def test_file_fixture_load_errors(tmp_path):
    with pytest.raises(DomainError, match="cannot read"):
        parse_fixture(f"file:{tmp_path / 'missing.json'}")
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(DomainError, match="bad sequence file"):
        parse_fixture(f"file:{bad}")
    junk = tmp_path / "junk.json"
    junk.write_text('[[1, "x", 0.0]]')
    with pytest.raises(DomainError, match="bad sequence file"):
        parse_fixture(f"file:{junk}")


def test_parse_sequence_arg(tmp_path):
    assert parse_sequence_arg("delta:4") == Sequence.delta(4)
    a = Sequence({2: 1.5})
    path = tmp_path / "a.json"
    save_sequence(a, path)
    assert parse_sequence_arg(f"file:{path}") == a
    # infinite-support fixtures cannot be materialized
    with pytest.raises(DomainError):
        parse_sequence_arg("power:1")


def test_parse_fixture_errors():
    for bad in ("", "unknown:1", "delta", "delta:0", "power:", "random-decay:5"):
        with pytest.raises(DomainError):
            parse_fixture(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: DeltaSymbol(2.5), "delta index must be an integer, got float"),
    (lambda: DeltaSymbol(3.0), "delta index must be an integer, got float"),
    (lambda: DeltaSymbol(True), "delta index must be an integer, got bool"),
    (lambda: RandomDecaySymbol(7.9, 0.5), "random-decay seed must be an integer, got float"),
    (lambda: RandomDecaySymbol(False, 0.5), "random-decay seed must be an integer, got bool"),
])
def test_non_integral_parameters_are_refused(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_integer_parameters_pass():
    # spec strings and numpy integers still build the same fixture
    assert DeltaSymbol("3").spec == DeltaSymbol(np.int64(3)).spec == "delta:3"
    assert RandomDecaySymbol(np.int32(-3), 0.5).spec == "random-decay:-3,0.5"
    assert parse_fixture("random-decay: 7,0.5").spec == "random-decay:7,0.5"


def test_fixture_specs_round_trip():
    for spec in ("delta:2", "power:1", "mhilbert", "random-decay:3,1.5"):
        sym = parse_fixture(spec)
        again = parse_fixture(sym.spec)
        for n in (1, 2, 3, 10):
            assert sym.value(n) == again.value(n)


@pytest.mark.parametrize("spec, message", [
    # the constructor's own refusal passes through
    ("delta:0", "delta index must be >= 1, got 0"),
    ("delta", "bad fixture 'delta'; usage: delta:n"),
    ("delta:", "bad fixture 'delta:'; usage: delta:n"),
    ("delta:x", "bad fixture 'delta:x'; usage: delta:n"),
    ("delta:2,3", "bad fixture 'delta:2,3'; usage: delta:n"),
    ("power:abc", "bad fixture 'power:abc'; usage: power:sigma"),
    ("mhilbert:3", "bad fixture 'mhilbert:3'; usage: mhilbert"),
    ("random-decay:5", "bad fixture 'random-decay:5'; usage: random-decay:seed,rate"),
    ("random-decay:5,", "bad fixture 'random-decay:5,'; usage: random-decay:seed,rate"),
    ("random-decay:5,1,2", "bad fixture 'random-decay:5,1,2'; usage: random-decay:seed,rate"),
    ("random-decay:5.5,1", "bad fixture 'random-decay:5.5,1'; usage: random-decay:seed,rate"),
    ("file:", "bad fixture 'file:'; usage: file:path"),
    ("unknown:1", "unknown fixture 'unknown'; registry: delta:n, power:sigma, mhilbert, "
                  "random-decay:seed,rate, file:path"),
])
def test_parse_fixture_messages(spec, message):
    with pytest.raises(DomainError) as exc:
        parse_fixture(spec)
    assert str(exc.value) == message


def test_fixture_usages_are_the_grammar(tmp_path):
    # each row's usage, with its parameter names replaced, builds its class
    path = tmp_path / "a,b.json"  # file:path is never split on commas
    save_sequence(Sequence({3: 1.0}), path)
    examples = {"n": "2", "sigma": "0.5", "seed": "7", "rate": "1.5", "path": str(path)}
    for name, (cls, usage) in FIXTURES.items():
        head, _, grammar = usage.partition(":")
        assert head == name
        params = [examples[p] for p in grammar.split(",")] if grammar else []
        spec = ":".join([name, ",".join(params)]) if params else name
        assert type(parse_fixture(spec)) is cls
    assert parse_fixture(f"file:{path}").as_sequence() == Sequence({3: 1.0})
