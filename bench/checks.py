"""Independent references for every benchmarked result.

Nothing here calls into the layer it checks: norms come from dense
``numpy.linalg.svd``, weighted degrees and smooth numbers from a sieve
written here, dilated matrices from the compression identity
``M(D_r alpha) = D_r M(alpha) D_r``, and divisor classes from a plain
outer product.  Each checker returns a list of ``(check_id, message)``
failures; an empty list means the result passed.
"""

import json
import math

import numpy as np

NORM_RTOL = 1e-8
ENTRY_RTOL = 1e-13
SIMPLEX_ATOL = 1e-12
CERT_SLACK = 1e-9
MATCH_RTOL = 1e-9


def _rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def svd_norm(mat):
    """Largest singular value by dense SVD."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def primes_upto(limit):
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def omega_table(limit):
    """omega(n) = sum_j j * kappa_j for n <= limit, by strided prime-power adds."""
    omega = np.zeros(limit + 1, dtype=np.int64)
    for j, p in enumerate(primes_upto(limit), start=1):
        q = int(p)
        while q <= limit:
            omega[q::q] += j
            q *= int(p)
    return omega


def smooth_numbers(n_max, budget):
    """1..n_max with every prime factor among the first ``budget`` primes."""
    allowed = [int(p) for p in primes_upto(max(2, 8 * budget * budget))[:budget]]
    out = []
    for n in range(1, n_max + 1):
        m = n
        for p in allowed:
            while m % p == 0:
                m //= p
        if m == 1:
            out.append(n)
    return out


def dilated(mat, indices, r, omega):
    """D_r M D_r with D_r = diag(r^omega(n)) on the index map."""
    d = float(r) ** omega[np.asarray(indices, dtype=np.int64)]
    return d[:, None] * np.asarray(mat) * d[None, :]


def products(indices):
    idx = np.asarray(indices, dtype=np.int64)
    return idx[:, None] * idx[None, :]


# ---------------------------------------------------------------- norms


def check_norm(reported, reference):
    """Power-iteration norm against the SVD norm at relative NORM_RTOL."""
    if _rel_err(reported, reference) > NORM_RTOL:
        return [("norm_vs_svd", f"norm {reported!r} vs SVD {reference!r}")]
    return []


def check_entries(mat, indices, values_at, sample=None):
    """Entry (i, j) must equal alpha(n_i * n_j) for the reference alpha.

    With ``sample`` set, only that many fixed pseudo-random positions are
    compared, for symbols whose reference costs as much as assembly.
    """
    mat = np.asarray(mat)
    idx = np.asarray(indices, dtype=np.int64)
    if sample is None:
        rows, cols = np.indices(mat.shape).reshape(2, -1)
    else:
        rows, cols = np.random.default_rng(0).integers(0, len(idx), (2, sample))
    prods = idx[rows] * idx[cols]
    got = mat[rows, cols]
    want = values_at(prods)
    bad = np.abs(got - want) > ENTRY_RTOL * np.maximum(np.abs(want), 1e-300)
    if bad.any():
        k = int(np.argmax(bad))
        return [("entries", f"entry at product {prods[k]} is {got[k]!r}, "
                            f"reference {want[k]!r}")]
    return []


def check_l2(check, reference_norm, alpha_window):
    """The l2 witness: op_norm matches SVD, l2 matches, and op_norm >= l2."""
    fails = check_norm(check.op_norm, reference_norm)
    want = float(np.linalg.norm(alpha_window))
    if _rel_err(check.l2_norm, want) > NORM_RTOL:
        fails.append(("l2_value", f"l2 {check.l2_norm!r} vs reference {want!r}"))
    if not check.ok:
        fails.append(("l2_witness", f"reported op_norm {check.op_norm!r} < "
                                    f"l2 {check.l2_norm!r}"))
    return fails


# -------------------------------------------------------- approximation


def check_simplex(weights):
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any() or abs(w.sum() - 1.0) > SIMPLEX_ATOL:
        return [("simplex", f"weights {w.tolist()} are not on the simplex")]
    return []


def check_approx(result, base, indices, omega):
    """Value against ||M - sum_k c_k D_rk M D_rk|| at the returned weights."""
    fails = check_simplex(result.weights.weights)
    diff = np.array(base, dtype=np.complex128)
    for r, c in zip(result.weights.r_grid, result.weights.weights):
        diff = diff - c * dilated(base, indices, r, omega)
    fails += check_norm(result.value, svd_norm(diff))
    if not result.converged:
        fails.append(("converged", "best_convex_approx reports converged=False"))
    return fails


def check_diagnostic(table, base_by_n, omega):
    """Each row (r, N, value) against ||D_r M_N D_r - M_N||."""
    fails = []
    for r, n_max, value in table.rows:
        base = base_by_n[n_max]
        want = svd_norm(dilated(base, range(1, n_max + 1), r, omega) - base)
        for cid, msg in check_norm(value, want):
            fails.append((cid, f"r={r} N={n_max}: {msg}"))
    return fails


def check_dilated_sequence(seq, r, values_at, omega, top):
    ns = np.arange(1, top + 1, dtype=np.int64)
    want = (float(r) ** omega[ns]) * values_at(ns)
    got = np.array([seq[int(n)] for n in ns])
    err = np.abs(got - want)
    if (err > ENTRY_RTOL * np.maximum(np.abs(want), 1e-300)).any():
        n = int(ns[np.argmax(err)])
        return [("dilation", f"alpha_r({n}) = {seq[n]!r}, reference "
                             f"{want[n - 1]!r}")]
    return []


def hs_reference(r):
    """prod_j 1/(1 - r^(2j)) summed in log space until the terms vanish."""
    q = float(r) ** 2
    total, j = 0.0, 1
    while q**j > 1e-18:
        total -= math.log1p(-(q**j))
        j += 1
    return math.exp(total)


def check_hs(hs, r, rtol):
    want = hs_reference(r)
    fails = []
    for label, got in (("partial_sum", hs.partial_sum), ("product_form", hs.product_form)):
        if _rel_err(got, want) > rtol:
            fails.append(("hs_sum", f"{label} {got!r} vs reference {want!r}"))
    return fails


# --------------------------------------------------------- weak product


def class_sums(mat, indices):
    """n -> sum of the entries (i, j) with n_i * n_j = n."""
    prods = products(indices).ravel()
    uniq, inverse = np.unique(prods, return_inverse=True)
    flat = np.asarray(mat, dtype=np.complex128).ravel()
    sums = np.bincount(inverse, weights=flat.real, minlength=len(uniq)) + 1j * np.bincount(
        inverse, weights=flat.imag, minlength=len(uniq)
    )
    return dict(zip(uniq.tolist(), sums.tolist()))


def sequence_values(seq):
    """Vectorized lookup of a finite sequence, 0 off its support."""
    return lambda ns: np.array([seq[int(n)] for n in np.ravel(ns)], dtype=np.complex128)


def symbol_matrix(values_at, indices):
    """M_N(alpha) entry by entry: alpha(n_i * n_j) on the index map."""
    prods = products(indices)
    return values_at(prods.ravel()).reshape(prods.shape)


def check_xnorm(result, c, indices):
    """Converged, feasible, value = nuclear norm, and a valid certificate."""
    fails = []
    if not result.converged:
        fails.append(("converged", f"not converged after {result.iterations} "
                                   f"iterations (gap {result.primal_dual_gap:.3e})"))
    scale = max(1.0, max(abs(v) for _, v in c.items()))
    sums = class_sums(result.matrix, indices)
    miss = max(abs(s - c[n]) for n, s in sums.items())
    outside = [n for n in c.support if n not in sums]
    if miss > 1e-9 * scale or outside:
        fails.append(("class_sums", f"class sums miss c by {miss:.3e}"
                                    + (f"; c({outside[0]}) has no class" if outside else "")))
    nuclear = float(np.linalg.svd(result.matrix, compute_uv=False).sum())
    if _rel_err(result.value, nuclear) > MATCH_RTOL:
        fails.append(("nuclear_norm", f"value {result.value!r} vs ||X||_* {nuclear!r}"))
    cert = result.certificate
    cert_norm = svd_norm(symbol_matrix(sequence_values(cert), indices)) if cert else 0.0
    if cert_norm > 1.0 + CERT_SLACK:
        fails.append(("certificate_norm", f"||M_N(beta)|| = {cert_norm!r} > 1"))
    pairing = abs(sum(v * c[n] for n, v in cert.items()))
    if pairing < result.value - result.primal_dual_gap - CERT_SLACK * scale:
        fails.append(("certificate_pairing", f"|(beta, c)| = {pairing!r} below "
                                             f"value - gap"))
    return fails


def check_representation(value_seq, cost, c, xnorm_value):
    """Representation.value reproduces c and its cost equals the xnorm value."""
    fails = []
    scale = max(1.0, max(abs(v) for _, v in c.items()))
    support = set(value_seq.support) | set(c.support)
    miss = max((abs(value_seq[n] - c[n]) for n in support), default=0.0)
    if miss > 1e-8 * scale:
        fails.append(("rep_value", f"representation misses c by {miss:.3e}"))
    if _rel_err(cost, xnorm_value) > MATCH_RTOL:
        fails.append(("rep_cost", f"rep_cost {cost!r} vs value {xnorm_value!r}"))
    return fails


# ------------------------------------------------------------------ CLI


def parse_cli(returncode, stdout):
    """(payload, failures) for one CLI run; exit 2 and bad JSON fail.

    Exit 3 may leave stdout empty: the README lets a convergence failure
    report its best estimate on stderr.
    """
    if returncode not in (0, 3):
        return None, [("exit_code", f"exit {returncode}")]
    if returncode == 3 and not stdout.strip():
        return None, []
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [("cli_json", f"stdout is not JSON: {exc}")]


def check_exit_contract(returncode, converged):
    """README contract: exit 3 if and only if the result did not converge."""
    want = 0 if converged else 3
    if returncode != want:
        return [("exit_code", f"exit {returncode} with converged={converged}; "
                              f"the README contract says exit {want}")]
    return []


def check_match(label, got, want):
    if _rel_err(got, want) > MATCH_RTOL:
        return [("cli_match", f"{label} {got!r} vs in-process {want!r}")]
    return []
