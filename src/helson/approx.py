"""Best compact approximants as convex combinations of dilated operators.

For a truncated symbol alpha and a grid r_1 < ... < r_K in (0,1) the
solver minimizes

    f(c) = || M_N(alpha) - sum_k c_k M_N(alpha_{r_k}) ||

over the probability simplex.  f is a max-type convex function, and a
subgradient at c comes free from the certified leading singular pair
(u, v) of the difference: df/dc_k ∋ -Re(u^H B_k v).  The reported value
is always an upper bound on the distance from M_N(alpha) to the convex
hull of the family; nothing stronger than this grid-restricted bound is
claimed.

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

from .errors import ConvergenceError, DomainError
from .operator import HelsonMatrix, assemble
from .spectral import operator_norm
from .core import _rvalue, dilation_weight

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ConvexWeights:
    """Simplex weights c_k aligned with the dilation grid r_k."""

    r_grid: tuple
    weights: tuple

    def __post_init__(self):
        grid = tuple(_rvalue(r) for r in self.r_grid)
        w = tuple(float(x) for x in self.weights)
        if len(grid) != len(w) or not grid:
            raise DomainError("weights and r-grid must have equal nonzero length")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError(f"r-grid must be strictly increasing, got {grid}")
        if any(x < -1e-12 for x in w):
            raise DomainError(f"weights must be nonnegative, got {w}")
        if abs(sum(w) - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1, got sum {sum(w)}")
        w = tuple(max(x, 0.0) for x in w)
        object.__setattr__(self, "r_grid", grid)
        object.__setattr__(self, "weights", w)


@dataclass
class ApproxResult:
    """Outcome of the simplex minimization."""

    weights: ConvexWeights
    value: float
    history: list = field(default_factory=list)
    converged: bool = True


@dataclass
class ApproxConfig:
    """Iteration and step-schedule bounds for best_convex_approx."""

    iterations: int = 2000
    step_scale: float = 1.0
    polish_sweeps: int = 6
    inner_tol: float = 1e-9
    final_tol: float = 1e-10
    inner_max_iter: int = 20000

    def __post_init__(self):
        if self.iterations < 1 or self.polish_sweeps < 0:
            raise DomainError("iteration counts must be positive")
        if min(self.step_scale, self.inner_tol, self.final_tol) <= 0:
            raise DomainError("tolerances and step scale must be positive")


def _grid(r_grid):
    grid = tuple(_rvalue(r) for r in r_grid)
    if not grid:
        raise DomainError("r-grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(f"r-grid must be strictly increasing, got {grid}")
    return grid


def _dilated(entries, r, indices):
    """D_r M D_r: entry (i, j) of M times r^omega(n_i) r^omega(n_j)."""
    w = dilation_weight(r, indices)
    return w[:, None] * entries * w[None, :]


def dilation_family(symbol, r_grid, n_max, prime_budget=None):
    """The matrices M_N(alpha_{r_k}) for a strictly increasing grid."""
    grid = _grid(r_grid)
    base = assemble(symbol, n_max, prime_budget)
    return [
        HelsonMatrix(
            entries=_dilated(base.entries, r, base.indices),
            indices=base.indices,
            symbol_id=f"dilate({r:g})|{base.symbol_id}",
            prime_budget=prime_budget,
        )
        for r in grid
    ]


def simplex_project(w):
    """Euclidean projection onto the probability simplex (sorted threshold)."""
    w = np.asarray(w, dtype=np.float64)
    srt = np.sort(w)[::-1]
    cumulative = np.cumsum(srt) - 1.0
    rho = np.nonzero(srt * np.arange(1, len(w) + 1) > cumulative)[0][-1]
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(w - theta, 0.0)


def _golden_min(fun, lo, hi, tol=1e-12):
    """Golden-section minimum of a unimodal fun on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def best_convex_approx(symbol, r_grid, n_max, config=None, prime_budget=None):
    """Minimize ||M_N(alpha) - sum_k c_k M_N(alpha_{r_k})|| over the simplex.

    Projected subgradient with step eta0/sqrt(t), eta0 = f(uniform),
    followed by pairwise golden-section sweeps along mass-transfer lines
    (f stays convex on every line, so each sweep is exact).  K = 1 is
    immediate and K = 2 is solved by golden section alone.  Subgradient
    steps warm-start their inner norms from the previous right singular
    vector; golden section, the value it is compared against, and the
    returned value start cold from all-ones.  The returned value is
    recomputed by the certified operator norm at the final weights; a
    failed certificate flags the result instead of raising.
    """
    cfg = config or ApproxConfig()
    grid = _grid(r_grid)
    target = assemble(symbol, n_max, prime_budget)
    a = target.entries
    k_pts, dim = len(grid), a.shape[0]
    family = np.empty((k_pts, dim, dim), dtype=a.dtype)
    for k, r in enumerate(grid):
        family[k] = _dilated(a, r, target.indices)
    flat = family.reshape(k_pts, dim * dim)
    rows = family.reshape(k_pts * dim, dim)
    scale = max(float(np.linalg.norm(a)), 1.0)

    def difference(c):
        diff = c @ flat
        np.subtract(a.ravel(), diff, out=diff)
        return diff.reshape(dim, dim)

    def value_pair(c, start=None):
        """(sigma, u, v, certified); an uncertified sigma is the best estimate."""
        try:
            report = operator_norm(difference(c), cfg.inner_tol, cfg.inner_max_iter,
                                   start=start)
            ok = True
        except ConvergenceError as err:
            report, ok = err.best, False
        u, v = report.leading_pair
        return report.norm, u, v, ok

    history = []
    all_certified = True

    if k_pts == 1:
        c = np.array([1.0])
        sigma, _, _, ok = value_pair(c)
        history.append(sigma)
        all_certified &= ok
    elif k_pts == 2:
        def along(s):
            sigma, _, _, ok = value_pair(np.array([1.0 - s, s]))
            history.append(sigma)
            return sigma

        s_best, _ = _golden_min(along, 0.0, 1.0)
        c = np.array([1.0 - s_best, s_best])
    else:
        c = np.full(k_pts, 1.0 / k_pts)
        sigma0, u, v, ok = value_pair(c)
        all_certified &= ok
        eta0 = cfg.step_scale * sigma0
        best_c, best_val = c.copy(), sigma0
        history.append(sigma0)
        sigma, u_t, v_t = sigma0, u, v
        for t in range(1, cfg.iterations + 1):
            if best_val <= 1e-13 * scale:
                break
            # -Re(u^H B_k v) for every k from one product with the stack
            grad = -np.real((rows @ v_t).reshape(k_pts, dim) @ u_t.conj())
            c = simplex_project(c - (eta0 / math.sqrt(t)) * grad)
            # consecutive iterates are close, so start from the previous
            # right singular vector; where the two largest singular values
            # cross, that start can certify the smaller one
            sigma, u_t, v_t, ok = value_pair(c, start=v_t)
            all_certified &= ok
            history.append(sigma)
            if sigma < best_val:
                best_val, best_c = sigma, c.copy()
        c = best_c
        # so the line searches below compare against a cold value
        best_val, _, _, ok = value_pair(c)
        all_certified &= ok

        # exact line minimization between coordinate pairs; convex along
        # each line, so golden section cannot miss
        for _ in range(cfg.polish_sweeps):
            improved = False
            for k in range(k_pts):
                for l in range(k + 1, k_pts):
                    span = c[k] + c[l]
                    if span <= 0.0:
                        continue

                    def along(s, k=k, l=l, span=span):
                        trial = c.copy()
                        trial[k] = span - s
                        trial[l] = s
                        sig, _, _, _ = value_pair(trial)
                        return sig

                    s_best, f_best = _golden_min(along, 0.0, span)
                    if f_best < best_val - 1e-15 * scale:
                        c = c.copy()
                        c[k] = span - s_best
                        c[l] = s_best
                        best_val = f_best
                        history.append(f_best)
                        improved = True
            if not improved:
                break

    # certify the reported value at the final weights
    try:
        value = operator_norm(difference(c), tol=cfg.final_tol).norm
        certified = True
    except ConvergenceError as err:
        value = err.best.norm
        certified = False
    history.append(value)
    weights = ConvexWeights(r_grid=grid, weights=tuple(c))
    return ApproxResult(
        weights=weights,
        value=float(value),
        history=history,
        converged=bool(certified and all_certified),
    )


@dataclass(frozen=True)
class DiagnosticTable:
    """Certified values ||M_N(alpha_r) - M_N(alpha)|| indexed by (r, N)."""

    rows: tuple  # ((r, N, value), ...) ordered by N then r

    def value_at(self, r, n_max):
        for row in self.rows:
            if row[0] == r and row[1] == n_max:
                return row[2]
        raise DomainError(f"no diagnostic row at (r={r}, N={n_max})")

    def to_csv(self):
        lines = ["r,N,value"]
        for r, n_max, value in self.rows:
            lines.append(f"{r!r},{n_max},{value!r}")
        return "\n".join(lines) + "\n"


def compactness_diagnostic(symbol, r_schedule, n_schedule, prime_budget=None,
                           tol=1e-10):
    """Table of ||M_N(alpha_r) - M_N(alpha)|| over both schedules.

    For each fixed N the column is nonincreasing in r up to certificate
    tolerance; decay to 0 as r grows toward 1 is the compactness signal.
    """
    grid = [_rvalue(r) for r in r_schedule]
    sizes = [int(n) for n in n_schedule]
    if not grid or not sizes:
        raise DomainError("schedules must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(f"r-schedule must be strictly increasing, got {grid}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError(f"N-schedule must be strictly increasing, got {sizes}")
    rows = []
    for n_max in sizes:
        base = assemble(symbol, n_max, prime_budget)
        m = base.entries
        for r in grid:
            value = operator_norm(_dilated(m, r, base.indices) - m, tol=tol).norm
            rows.append((r, n_max, value))
    return DiagnosticTable(rows=tuple(rows))
