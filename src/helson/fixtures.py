"""Formula fixtures: named symbol sources parsed from spec strings.

FIXTURES is the registry: each name maps to its class, whose docstring
gives its formula, and to its usage, which is also its spec grammar: a
name with no colon takes no parameter, and otherwise the comma count
plus one, split on no more commas than the usage has (so file:path
keeps any comma in its path).

Every fixture is array-native: ``values(ns)`` maps an int64 array of
indices >= 1 to a complex128 array in one vectorized call, and the
scalar ``value(n)`` is ``values`` on a one-element array.  Every value
is a pure function of the spec and the index, so assembled matrices and
reports are reproducible byte for byte on one host and numpy build.
Across builds the last bit may differ: numpy's ``**`` and its
transcendental functions take SIMD paths (on AVX-512, say) that need not
round as the C library's ``pow`` does.  random-decay values changed in
0.2.0; they differ from those of 0.1.0.

Every real parameter passes the finite-real gate of errors.py, and a
spec string is parsed first.
"""

import numpy as np

from .errors import DomainError, _integer, _integer_array, _real
from .core import Sequence, load_sequence
from .operator import ArraySymbol

# splitmix64 constants (Steele, Lea and Flood, "Fast splittable
# pseudorandom number generators", OOPSLA 2014)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x):
    """Output of splitmix64 from state x (uint64 array), wrapping mod 2^64."""
    z = x + np.uint64(_GAMMA)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class DeltaSymbol(ArraySymbol):
    """Unit mass at a single index."""

    def __init__(self, n):
        # a spec string parses; int("2.5") is parse_fixture's usage error
        self.n = _integer(int(n) if isinstance(n, str) else n, "delta index", 1)
        self.spec = f"delta:{self.n}"

    def values(self, ns):
        return (_integer_array(ns, 1) == self.n).astype(np.complex128)

    def as_sequence(self):
        return Sequence.delta(self.n)


class PowerSymbol(ArraySymbol):
    """alpha(n) = n^(-sigma); rank-one matrix since alpha(nm) splits."""

    def __init__(self, sigma):
        # a spec string parses; float("x") is parse_fixture's usage error
        self.sigma = _real(float(sigma) if isinstance(sigma, str) else sigma,
                           "power exponent", low=-np.inf)
        self.spec = f"power:{self.sigma:g}"

    def values(self, ns):
        return (_integer_array(ns, 1).astype(np.float64) ** -self.sigma).astype(np.complex128)


class MHilbertSymbol(ArraySymbol):
    """alpha(1) = 0, alpha(n) = 1/(sqrt(n) log n) for n >= 2.

    The compression of M(alpha) to n, m >= 2 is the multiplicative
    Hilbert matrix, of norm pi (Brevig, Perfekt, Seip, Siskakis and
    Vukotic, Adv. Math. 2016); tests assert that its truncations grow
    with N and stay below pi.
    """

    spec = "mhilbert"

    def values(self, ns):
        ns = _integer_array(ns, 1)
        out = np.zeros(ns.shape, dtype=np.complex128)
        big = ns > 1
        x = ns[big].astype(np.float64)
        out[big] = 1.0 / (np.sqrt(x) * np.log(x))
        return out


class RandomDecaySymbol(ArraySymbol):
    """Seeded complex Gaussian values damped by n^(-rate).

    alpha(n) is a pure function of (seed, n), computed without state:
    with x = 2n + seed * 0x9E3779B97F4A7C15 (mod 2^64), the words
    splitmix64(x) and splitmix64(x + 1) give, through their top 53 bits,
    a radius variate in (0, 1] and an angle variate in [0, 1), and
    Box-Muller turns them into a standard complex Gaussian (E|z|^2 = 2).
    Evaluation order and chunking cannot matter, and nothing is cached.
    """

    def __init__(self, seed, rate):
        self.seed = _integer(int(seed) if isinstance(seed, str) else seed, "random-decay seed")
        self.rate = _real(float(rate) if isinstance(rate, str) else rate,
                          "random-decay rate", low=-np.inf)
        self.spec = f"random-decay:{self.seed},{self.rate:g}"

    def values(self, ns):
        ns = _integer_array(ns, 1)
        # flattened so that 0-d input still wraps as an array, silently
        flat = ns.reshape(-1)
        # rows x and x + 1, hashed in one pass; every step below is the
        # formula of the class docstring, in place
        x = np.empty((2, flat.size), dtype=np.uint64)
        x[0] = flat
        x[0] *= np.uint64(2)
        x[0] += np.uint64((self.seed * _GAMMA) % (1 << 64))
        np.add(x[0], np.uint64(1), out=x[1])
        words = splitmix64(x)
        del x  # the buffers below are freed as soon as they are spent
        words >>= np.uint64(11)
        words[0] += np.uint64(1)
        scale = np.multiply(words[0], 2.0**-53)
        np.log(scale, out=scale)
        scale *= -2.0
        np.sqrt(scale, out=scale)
        damp = flat.astype(np.float64)
        damp **= -self.rate
        scale *= damp
        angle = np.multiply(words[1], 2.0**-53 * 2.0 * np.pi, out=damp)
        del words
        out = np.empty(flat.shape, dtype=np.complex128)
        np.multiply(np.cos(angle), scale, out=out.real)
        np.multiply(np.sin(angle, out=angle), scale, out=out.imag)
        return out.reshape(ns.shape)


class FileSymbol(ArraySymbol):
    """Finite sequence loaded from a JSON file of [n, re, im] triples."""

    def __init__(self, path):
        self.path = str(path)
        try:
            self.sequence = load_sequence(self.path)
        except OSError as exc:
            raise DomainError(f"cannot read sequence file {self.path}: {exc.strerror or exc}")
        except (ValueError, TypeError) as exc:
            raise DomainError(f"bad sequence file {self.path}: {exc}")
        self.spec = f"file:{self.path}"

    def values(self, ns):
        return self.sequence.values(ns)

    def as_sequence(self):
        return self.sequence


FIXTURES = {
    "delta": (DeltaSymbol, "delta:n"),
    "power": (PowerSymbol, "power:sigma"),
    "mhilbert": (MHilbertSymbol, "mhilbert"),
    "random-decay": (RandomDecaySymbol, "random-decay:seed,rate"),
    "file": (FileSymbol, "file:path"),
}


def fixture_usages(finite=False):
    """The FIXTURES usages in order; with finite, only finite sequences'."""
    return [usage for cls, usage in FIXTURES.values()
            if not finite or hasattr(cls, "as_sequence")]


def parse_fixture(spec):
    """Build a symbol source from a spec string by its FIXTURES row."""
    spec = str(spec).strip()
    name, colon, arg = spec.partition(":")
    name = name.strip()
    if name not in FIXTURES:
        raise DomainError(
            f"unknown fixture {name!r}; registry: {', '.join(fixture_usages())}")
    cls, usage = FIXTURES[name]
    grammar = usage.partition(":")[2]
    params = arg.split(",", grammar.count(",")) if colon else []
    bad = DomainError(f"bad fixture {spec!r}; usage: {usage}")
    if (len(params) != grammar.count(",") + bool(grammar)
            or not all(map(str.strip, params))):
        raise bad
    try:
        return cls(*params)
    except DomainError:  # a ValueError too, but the constructor's own
        raise
    except ValueError:
        raise bad from None


def parse_sequence_arg(spec):
    """Parse a CLI argument that must denote a finite Sequence."""
    fixture = parse_fixture(spec)
    as_seq = getattr(fixture, "as_sequence", None)
    if as_seq is None:
        raise DomainError(
            f"fixture {fixture.spec!r} has infinite support; this argument "
            f"needs a finite sequence ({' or '.join(fixture_usages(finite=True))})"
        )
    return as_seq()
