"""Best compact approximants as convex combinations of dilated operators.

For a truncated symbol alpha and a grid r_1 < ... < r_K in (0,1) the
solver minimizes

    f(c) = || M_N(alpha) - sum_k c_k M_N(alpha_{r_k}) ||

over the probability simplex.  f is a max-type convex function, and a
subgradient at c comes free from the certified leading singular pair
(u, v) of the difference: df/dc_k ∋ -G_k with G_k = Re(u^H B_k v).  The
reported value, the Lanczos norm f at the returned weights, bounds the
distance from M_N(alpha) to the convex hull of the family from above, up
to the tolerance of that norm; nothing stronger than this
grid-restricted bound is claimed.

The same pair bounds f from below on the whole simplex: for unit u, v
and every c', f(c') >= Re u^H (A - sum_k c'_k B_k) v = sum_k c'_k H_k
>= min_k H_k with H_k = Re(u^H (A - B_k) v), which is Re(u^H A v) - G_k.
This is the subgradient inequality, the dual side of Nesterov's
primal-dual subgradient method (Math. Program. 120, 2009) and the
Frank-Wolfe duality gap (Jaggi, ICML 2013).  The solver's lower is the
largest such bound over every pair it evaluates, less the rounding
margin of bounds._pair_margin, so lower <= min f is certified whether
or not the pair's norm certified.  The differences A - B_k are formed once, and a rounded
difference errs relative to itself, so the margin is a multiple of
max_k ||A - B_k||_F: it scales with f, not with ||A||.

On an entrywise nonnegative window (mhilbert, power, delta) the
largest-r vertex e_K is optimal: with s = omega_i + omega_j and
r_k <= r_K, A - sum_k c_k B_k = A ∘ sum_k c_k (1 - r_k^s) >= A ∘ (1 - r_K^s)
>= 0 entrywise, and the norm is monotone on nonnegative matrices.  Its
leading pair is then nonnegative (Perron-Frobenius), so H_K is the
smallest H_k and the pair's own bound meets f(e_K): the search opens
there, and one inner norm closes the bracket.

The dilated matrices come from one assembly of M_N(alpha): since the
weighted degree is additive over products, M_N(alpha_r) = D_r M_N(alpha) D_r
with D_r = diag(r^omega(n)) on the window's indices.

A real symbol (every value with zero imaginary part, as for mhilbert and
power) assembles to a float64 matrix, and its dilations stay float64.
best_convex_approx and compactness_diagnostic then run every inner norm,
difference and subgradient in real arithmetic; a complex symbol keeps
complex128 throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _integer, _real
from .operator import _real_if_real, assemble
from .bounds import _pair_margin
from .spectral import NORM_TOL, operator_norm
from .core import dilation_weight

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# pairwise golden-section sweeps after the opening evaluations
POLISH_SWEEPS = 6

# best_convex_approx stops once upper - lower <= BRACKET_TOL * upper
BRACKET_TOL = 1e-9


@dataclass(frozen=True)
class ConvexWeights:
    """Simplex weights c_k aligned with the dilation grid r_k."""

    r_grid: tuple
    weights: tuple

    def __post_init__(self):
        grid = _grid(self.r_grid)
        w = tuple(_real(x, "weights", low=-math.inf) for x in self.weights)
        if len(grid) != len(w):
            raise DomainError("weights and r-grid must have equal length")
        if any(x < -1e-12 for x in w):
            raise DomainError(f"weights must be nonnegative, got {w}")
        if abs(sum(w) - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1, got sum {sum(w)}")
        w = tuple(max(x, 0.0) for x in w)
        object.__setattr__(self, "r_grid", grid)
        object.__setattr__(self, "weights", w)


@dataclass
class ApproxResult:
    """Outcome of the simplex minimization.

    value is the certified Lanczos norm f(c) at the weights, the
    smallest inner value; lower is a certified lower bound on min f over
    the simplex.  history lists every inner value in order.
    """

    weights: ConvexWeights
    value: float
    lower: float
    history: list = field(default_factory=list)
    converged: bool = True


def _grid(r_grid):
    grid = tuple(_real(r, "dilation parameter", 1.0) for r in r_grid)
    if not grid:
        raise DomainError("r-grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(f"r-grid must be strictly increasing, got {grid}")
    return grid


def _dilated(entries, r, indices):
    """D_r M D_r: entry (i, j) of M times r^omega(n_i) r^omega(n_j)."""
    w = dilation_weight(r, indices)
    return w[:, None] * entries * w[None, :]


def _golden_search(fun, lo, hi, stop, tol=1e-12):
    """Golden-section search of a unimodal fun on [lo, hi].

    fun keeps its own record of the best point; stop() ends the search
    early.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol and not stop():
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)


def best_convex_approx(symbol, r_grid, n_max, prime_budget=None, tol=NORM_TOL):
    """Minimize ||M_N(alpha) - sum_k c_k M_N(alpha_{r_k})|| over the simplex.

    Evaluates the largest-r vertex e_K first.  On an entrywise
    nonnegative window it is optimal (module docstring), and its own pair
    closes the bracket: one inner norm is all the work.  Otherwise the
    uniform point follows, then its Frank-Wolfe vertex e_k with
    k = argmin_k H_k unless that is e_K again, then pairwise
    golden-section sweeps along mass-transfer lines through the best
    point (f stays convex on every line, so each sweep is exact; at K = 2
    one line is the whole simplex).  The search stops as soon as
    upper - lower <= BRACKET_TOL * upper, or once
    upper <= 1e-13 max(||A||_F, 1) (f = 0 on the window).

    Every inner norm runs at tol from operator_norm's cold start (the
    Gram eigenvector on a window of at most 32 rows, else all-ones).
    lower is the certified bound of the module docstring.  upper is the
    smallest certified inner value; it is the returned value, and its
    point the returned weights.  converged means that every inner
    norm certified; the first one that does not ends the search and
    flags the result.  history lists every inner value in order.
    """
    grid = _grid(r_grid)
    target = assemble(symbol, n_max, prime_budget)
    a = target.entries
    k_pts, dim = len(grid), a.shape[0]
    family = np.empty((k_pts, dim, dim), dtype=a.dtype)
    for k, r in enumerate(grid):
        family[k] = _dilated(a, r, target.indices)
    flat = family.reshape(k_pts, dim * dim)
    # the differences A - B_k, each rounded relative to itself
    gaps = a - family
    rows = gaps.reshape(k_pts * dim, dim)
    scale = max(float(np.linalg.norm(a)), 1.0)
    margin = _pair_margin(gaps)

    def difference(c):
        diff = c @ flat
        np.subtract(a.ravel(), diff, out=diff)
        return diff.reshape(dim, dim)

    history = []
    # f >= 0, so 0 is the first lower bound
    lower, all_certified = 0.0, True
    best_c, best_sigma, best_ok = None, math.inf, False

    def evaluate(c):
        """Inner norm at c: (sigma, H); raises lower, tracks upper."""
        nonlocal lower, all_certified, best_c, best_sigma, best_ok
        report = operator_norm(difference(c), tol)
        ok = report.converged
        sigma = report.norm
        u, v = report.leading_pair
        # H_k = Re(u^H (A - B_k) v) for every k from one product with the stack
        h = np.real((rows @ v).reshape(k_pts, dim) @ u.conj())
        bound = float(h.min()) / float(np.linalg.norm(u) * np.linalg.norm(v))
        lower = max(lower, bound - margin)
        all_certified &= ok
        history.append(sigma)
        # a certified value beats any other
        if (ok, -sigma) > (best_ok, -best_sigma):
            best_c, best_sigma, best_ok = c, sigma, ok
        return sigma, h

    def closed():
        # a norm that did not certify ends the search; until then the
        # best value is certified.  f = 0 on the window ends at the
        # absolute floor
        return (not all_certified or best_sigma <= 1e-13 * scale
                or best_sigma - lower <= BRACKET_TOL * best_sigma)

    # e_K is optimal on a nonnegative window, where its pair closes the
    # bracket; else the uniform point and its Frank-Wolfe vertex follow
    vertices = np.eye(k_pts)
    evaluate(vertices[-1])
    if k_pts > 1 and not closed():
        _, h = evaluate(np.full(k_pts, 1.0 / k_pts))
        k = int(np.argmin(h))
        if k != k_pts - 1 and not closed():
            evaluate(vertices[k])

    # exact line minimization between coordinate pairs through the best
    # point; convex along each line, so golden section cannot miss
    pairs = [(k, l) for k in range(k_pts) for l in range(k + 1, k_pts)]
    for _ in range(POLISH_SWEEPS if k_pts > 2 else 1):
        before = best_sigma
        for k, l in pairs:
            if closed():
                break
            base = best_c
            span = base[k] + base[l]
            if span <= 0.0:
                continue

            def along(s, base=base, k=k, l=l, span=span):
                trial = base.copy()
                trial[k] = span - s
                trial[l] = s
                return evaluate(trial)[0]

            _golden_search(along, 0.0, span, closed)
        if closed() or best_sigma >= before - 1e-15 * scale:
            break

    return ApproxResult(
        weights=ConvexWeights(r_grid=grid, weights=tuple(best_c)),
        value=best_sigma,
        lower=lower,
        history=history,
        converged=all_certified,
    )


@dataclass(frozen=True)
class DiagnosticTable:
    """Certified values ||M_N(alpha_r) - M_N(alpha)|| indexed by (r, N).

    converged means that every value certified.
    """

    rows: tuple  # ((r, N, value), ...) ordered by N then r
    converged: bool = True


def compactness_diagnostic(symbol, r_schedule, n_schedule, prime_budget=None,
                           tol=NORM_TOL):
    """Table of ||M_N(alpha_r) - M_N(alpha)|| over both schedules.

    Decay to 0 as r grows toward 1 is the compactness signal.  For a
    window with entrywise nonnegative entries each column is
    nonincreasing in r, up to certificate tolerance: the difference has
    entries alpha(n_i n_j) (1 - r^(omega_i + omega_j)) >= 0, which shrink
    entrywise as r grows, and the norm is monotone on nonnegative
    matrices.  A mixed-sign or complex symbol has no such order, and a
    column can rise with r (a real N=5 example rises by 1% between
    r = 0.02 and 0.22); the table reports the values as they are.
    A norm that does not certify at tol is reported by its best estimate
    and flags the table, as best_convex_approx flags its result.

    The table assembles M_N(alpha) once, at the largest N (where the
    DENSE_CAP check falls); each smaller window takes a leading block, in
    float64 when that block is real, as its own assembly would be.
    """
    grid = _grid(r_schedule)
    sizes = [_integer(n, "N-schedule entry") for n in n_schedule]
    if not sizes:
        raise DomainError("N-schedule must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError(f"N-schedule must be strictly increasing, got {sizes}")
    # the smallest window is refused as its own assembly would refuse it
    _integer(sizes[0], "truncation size", 1)
    # every window is an ascending prefix of the largest one, so its matrix
    # and dilation weights are leading blocks of that window's
    full = assemble(symbol, sizes[-1], prime_budget)
    indices = np.asarray(full.indices)
    weights = [dilation_weight(r, indices) for r in grid]
    rows, converged = [], True
    for n_max in sizes:
        dim = int(np.searchsorted(indices, n_max, side="right"))
        m = _real_if_real(full.entries[:dim, :dim])
        for r, w in zip(grid, weights):
            w = w[:dim]
            report = operator_norm(w[:, None] * m * w[None, :] - m, tol)
            converged &= report.converged
            rows.append((r, n_max, report.norm))
    return DiagnosticTable(rows=tuple(rows), converged=converged)
