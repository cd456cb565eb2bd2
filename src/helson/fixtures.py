"""Formula fixtures: named symbol sources parsed from spec strings.

Registry:
    delta:n            unit mass at index n
    power:sigma        alpha(n) = n^(-sigma)
    mhilbert           alpha(1) = 0, alpha(n) = 1/(sqrt(n) log n) for n >= 2
    random-decay:seed,rate
                       complex Gaussian values damped by n^(-rate): a
                       splitmix64 hash of (seed, n) fed to Box-Muller
    file:path          finite sequence loaded from a JSON triple file

Every fixture is array-native: ``values(ns)`` maps an int64 array of
indices >= 1 to a complex128 array in one vectorized call, and the
scalar ``value(n)`` is ``values`` on a one-element array.  Every value
is a pure function of the spec and the index, so assembled matrices and
reports are reproducible byte for byte.  random-decay values changed in
0.2.0; they differ from those of 0.1.0.
"""

import numpy as np

from .errors import DomainError
from . import sieve
from .core import Sequence, load_sequence
from .operator import ArraySymbol

# splitmix64 constants (Steele, Lea and Flood, "Fast splittable
# pseudorandom number generators", OOPSLA 2014)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _indices(ns):
    ns = sieve._integer_array(ns)
    if ns.size and ns.min() < 1:
        raise DomainError(f"index must be >= 1, got {ns.min()}")
    return ns


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
        n = int(n)
        if n < 1:
            raise DomainError(f"delta index must be >= 1, got {n}")
        self.n = n
        self.spec = f"delta:{n}"

    def values(self, ns):
        return (_indices(ns) == self.n).astype(np.complex128)

    def as_sequence(self):
        return Sequence.delta(self.n)


class PowerSymbol(ArraySymbol):
    """alpha(n) = n^(-sigma); rank-one matrix since alpha(nm) splits."""

    def __init__(self, sigma):
        self.sigma = float(sigma)
        self.spec = f"power:{self.sigma:g}"

    def values(self, ns):
        return (_indices(ns).astype(np.float64) ** -self.sigma).astype(np.complex128)


class MHilbertSymbol(ArraySymbol):
    """alpha(1) = 0, alpha(n) = 1/(sqrt(n) log n) for n >= 2.

    The compression of M(alpha) to n, m >= 2 is the multiplicative
    Hilbert matrix, of norm pi (Brevig, Perfekt, Seip, Siskakis and
    Vukotic, Adv. Math. 2016); tests assert that its truncations grow
    with N and stay below pi.
    """

    spec = "mhilbert"

    def values(self, ns):
        ns = _indices(ns)
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
        self.seed = int(seed)
        self.rate = float(rate)
        self.spec = f"random-decay:{self.seed},{self.rate:g}"

    def values(self, ns):
        ns = _indices(ns)
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


def parse_fixture(spec):
    """Build a symbol source from a registry spec string."""
    spec = str(spec).strip()
    name, _, arg = spec.partition(":")
    name = name.strip()
    if name == "delta":
        if not arg:
            raise DomainError("delta fixture needs an index, e.g. delta:4")
        try:
            return DeltaSymbol(int(arg))
        except ValueError:
            raise DomainError(f"delta index must be an integer, got {arg!r}")
    if name == "power":
        if not arg:
            raise DomainError("power fixture needs an exponent, e.g. power:1")
        try:
            return PowerSymbol(float(arg))
        except ValueError:
            raise DomainError(f"power exponent must be a real, got {arg!r}")
    if name == "mhilbert":
        if arg:
            raise DomainError("mhilbert fixture takes no parameters")
        return MHilbertSymbol()
    if name == "random-decay":
        parts = [p.strip() for p in arg.split(",")] if arg else []
        if len(parts) != 2:
            raise DomainError(
                "random-decay fixture needs seed,rate, e.g. random-decay:7,0.5"
            )
        try:
            return RandomDecaySymbol(int(parts[0]), float(parts[1]))
        except ValueError:
            raise DomainError(f"bad random-decay parameters {arg!r}")
    if name == "file":
        if not arg:
            raise DomainError("file fixture needs a path, e.g. file:sym.json")
        return FileSymbol(arg)
    raise DomainError(
        f"unknown fixture {name!r}; registry: delta:n, power:sigma, "
        "mhilbert, random-decay:seed,rate, file:path"
    )


def parse_sequence_arg(spec):
    """Parse a CLI argument that must denote a finite Sequence."""
    fixture = parse_fixture(spec)
    as_seq = getattr(fixture, "as_sequence", None)
    if as_seq is None:
        raise DomainError(
            f"fixture {fixture.spec!r} has infinite support; this argument "
            "needs a finite sequence (delta:n or file:path)"
        )
    return as_seq()
