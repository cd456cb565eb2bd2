"""In-memory spans around calls into the library's public functions.

The tracer wraps functions where callers look them up: every ``helson``
module attribute bound to a wrapped function is replaced for the traced
pass and restored afterwards.  Each span records name, start, end and
parent; a span's self time is its duration minus that of its child
spans.  Functions called per element (listed as hot) must be leaves: they
keep aggregate counts and times only, so a pass with millions of calls
does not hold millions of spans.
"""

import functools
import sys
import time

# layer -> public functions wrapped in that module
WRAPPED = {
    "sieve": ("weighted_degree", "smooth_indices"),
    "core": ("dilation_hs_sum", "dirichlet_convolve"),
    "operator": ("assemble", "dilate_symbol"),
    "spectral": ("operator_norm", "l2_lower_bound_check"),
    "approx": ("best_convex_approx", "compactness_diagnostic"),
    "weakprod": ("xnorm", "representation_from_matrix"),
}
# called per element; each nearest enclosing span counts their calls
HOT = ("sieve.weighted_degree", "fixtures.value")


class Tracer:
    """Span stack plus per-name [calls, total_s, self_s] aggregates."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.stats = {}
        self._stack = []  # [span_id, name, start, child_s, hot_calls]
        self._next_id = 0

    def stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def span(self, name, fn, on_return=None):
        """Wrap fn so each call records a span.

        ``on_return(result, hot_calls)`` runs after the span closes;
        hot_calls maps each HOT name to its calls made directly under it.
        """
        tracer = self
        totals = self.stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, name, time.perf_counter(), 0.0, [0] * len(HOT)]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((frame[0], parent, name, frame[2], end))
            if on_return is not None:
                on_return(out, dict(zip(HOT, frame[4])))
            return out

        return traced

    def leaf(self, name, fn):
        """Aggregate-only wrapper for a hot function that calls no wrapped one."""
        stack = self._stack
        totals = self.stat(name)
        slot = HOT.index(name)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration
                if stack:
                    stack[-1][3] += duration
                    stack[-1][4][slot] += 1

        return traced

    def wrap(self, name, fn, on_return=None):
        if name in HOT:
            return self.leaf(name, fn)
        return self.span(name, fn, on_return)


def install(tracer, on_return=None):
    """Patch every helson module binding of the WRAPPED functions.

    ``on_return`` maps a span name to its callback (see Tracer.span).
    Returns a callable that restores the original bindings.
    """
    on_return = on_return or {}
    modules = [m for name, m in list(sys.modules.items())
               if name == "helson" or name.startswith("helson.")]
    patched = []
    for layer, names in WRAPPED.items():
        home = sys.modules[f"helson.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            span_name = f"{layer}.{fname}"
            wrapped = tracer.wrap(span_name, original, on_return.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def restore():
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return restore

