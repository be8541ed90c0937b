"""Span recorder for the traced benchmark run.

Wrappers are installed from here, around the library's public layer
functions, at every name a caller looks up: ``engine`` does
``from .pce import expand``, so ``pce_loops.engine.expand`` is wrapped as
well as ``pce_loops.pce.expand``.  ``lang.eval_expr`` recurses through its own
module global, so only the copy ``engine`` calls is wrapped, which counts
one call per update evaluated.  ``MultiPoly.__mul__`` is left alone: it is
too hot to wrap without changing what is measured.

Each span is (name, thread id, start, end).  ``simulate`` runs chunks on a
thread pool, so spans from several threads overlap in time; self time
splits each instant equally between the threads that have a span open, so
self times never add up to more than the traced wall time.

Counts come from the wrapped calls' arguments and return values.
"""

import bisect
import inspect
import statistics
import threading
import time
from collections import Counter, defaultdict

# (span name, owners, attribute).  An owner is a pce_loops submodule
# ("quad"), a class in one ("dist.Density"), or "" for the package itself.
TARGETS = (
    ("quad.build_rule", ("quad", "orthopoly", "pce", ""), "build_rule"),
    ("orthopoly.gram_schmidt", ("orthopoly", "pce", ""), "gram_schmidt"),
    ("dist.raw_moment", ("dist.Density",), "raw_moment"),
    ("dist.sample", ("dist.Density",), "sample"),
    ("pce.expand", ("pce", "engine", "bench", ""), "expand"),
    ("pce.error_se", ("pce", "bench", ""), "error_se"),
    ("poly.substitute", ("poly.MultiPoly",), "substitute"),
    ("engine.one_step_expectation", ("engine",), "one_step_expectation"),
    ("engine.close_monomials", ("engine", ""), "close_monomials"),
    ("engine.polynomialize", ("engine", "bench", ""), "polynomialize"),
    ("engine.lagrange_schedule", ("engine", ""), "lagrange_schedule"),
    ("engine.propagate", ("engine", "bench", ""), "propagate"),
    ("engine.simulate", ("engine", "bench", ""), "simulate"),
    ("lang.eval_expr", ("engine",), "eval_expr"),
    ("lang.parse", ("lang", ""), "parse"),
)

# Per-layer metrics in report order, with units.  BENCHMARK.json lists
# all but SAMPLING_ONLY.
PER_LAYER = (
    ("quad.build_rule.ms", "ms"),
    ("quad.build_rule.calls", "count"),
    ("quad.build_rule.nodes", "count"),
    ("quad.build_rule.repeat_frac", "ratio"),
    ("orthopoly.gram_schmidt.ms", "ms"),
    ("orthopoly.gram_schmidt.calls", "count"),
    ("orthopoly.gram_schmidt.repeat_frac", "ratio"),
    ("orthopoly.gram_residual.max", "1"),
    ("dist.raw_moment.ms", "ms"),
    ("dist.raw_moment.calls", "count"),
    ("pce.expand.ms", "ms"),
    ("pce.expand.calls", "count"),
    ("pce.expand.terms", "count"),
    ("pce.error_se.ms", "ms"),
    ("pce.error_se.calls", "count"),
    ("poly.substitute.ms", "ms"),
    ("poly.substitute.calls", "count"),
    ("engine.one_step_expectation.ms", "ms"),
    ("engine.one_step_expectation.calls", "count"),
    ("engine.close_monomials.ms", "ms"),
    ("engine.closure.monomials", "count"),
    ("engine.closure.step_nonzeros", "count"),
    ("engine.polynomialize.ms", "ms"),
    ("engine.polynomialize.calls", "count"),
    ("engine.polynomialize.sites", "count"),
    ("engine.lagrange_schedule.ms", "ms"),
    ("engine.propagate.ms", "ms"),
    ("engine.propagate.monomial_steps", "count"),
    ("engine.simulate.ms", "ms"),
    ("engine.simulate.sample_steps", "count"),
    ("dist.sample.ms", "ms"),
    ("dist.sample.calls", "count"),
    ("lang.eval_expr.ms", "ms"),
    ("lang.eval_expr.calls", "count"),
    ("lang.parse.ms", "ms"),
    ("lang.parse.calls", "count"),
)


# Metrics that only simulate moves.  They read 0 on every workload but
# monte-carlo, which BENCHMARK.json does not name, so run.py's JSON result
# leaves them out; its printed lines, suite.py and diff.py keep them.
SAMPLING_ONLY = frozenset((
    "engine.simulate.ms", "engine.simulate.sample_steps",
    "dist.sample.ms", "dist.sample.calls",
    "lang.eval_expr.ms", "lang.eval_expr.calls",
))


def _density_key(d):
    return (d.family, tuple(sorted(d.params.items())))


class Recorder:
    """Installs the span wrappers, keeps spans in memory, restores on exit.

    Use as a context manager; every wrapped attribute is put back to the
    original object when the block ends, also on error.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.rule_keys = []
        self.basis_keys = []
        self.gram_residual_max = 0.0
        self._lock = threading.Lock()
        self._saved = []

    # -- installing --------------------------------------------------------

    def _owner(self, path):
        obj = self.package
        if path:
            module, _, cls = path.partition(".")
            obj = getattr(obj, module)
            if cls:
                obj = getattr(obj, cls)
        return obj

    def __enter__(self):
        try:
            for name, owners, attr in TARGETS:
                objs = [self._owner(o) for o in owners]
                original = objs[0].__dict__[attr]
                for o, path in zip(objs, owners):
                    if o.__dict__.get(attr) is not original:
                        raise RuntimeError(f"{path or 'pce_loops'}.{attr} is not the "
                                           f"{owners[0]}.{attr} its callers expect")
                wrapper = self._wrap(name, original)
                for o in objs:
                    self._saved.append((o, attr, original))
                    setattr(o, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name, threading.get_ident(), t0, clock()))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    hook(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts from arguments and return values ---------------------------

    def _count_quad_build_rule(self, args, rule):
        self.counts["quad.build_rule.nodes"] += len(rule)
        self.rule_keys.append((_density_key(args["density"]), len(rule)))

    def _count_orthopoly_gram_schmidt(self, args, basis):
        self.basis_keys.append((_density_key(args["density"]), args["max_degree"],
                                args["n_nodes"]))
        self.gram_residual_max = max(self.gram_residual_max, basis.gram_residual)

    def _count_pce_expand(self, args, expansion):
        self.counts["pce.expand.terms"] += len(expansion.coeffs)

    def _count_engine_close_monomials(self, args, result):
        closure, step = result
        self.counts["engine.closure.monomials"] += len(closure)
        self.counts["engine.closure.step_nonzeros"] += sum(len(p.terms) for p in step.values())

    def _count_engine_polynomialize(self, args, pp):
        self.counts["engine.polynomialize.sites"] += len(pp.provenance)

    def _count_engine_propagate(self, args, table):
        steps, monomials = table.values.shape
        self.counts["engine.propagate.monomial_steps"] += (steps - 1) * monomials

    def _count_engine_simulate(self, args, table):
        self.counts["engine.simulate.sample_steps"] += args["samples"] * args["iterations"]

    # -- report ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything recorded."""
        ms = self_times_ms(self.spans)
        calls = Counter(s[0] for s in self.spans)
        out = {}
        for metric, _unit in PER_LAYER:
            layer, _, quantity = metric.rpartition(".")
            if quantity == "ms":
                out[metric] = ms.get(layer, 0.0)
            elif quantity == "calls":
                out[metric] = calls[layer]
            elif quantity == "repeat_frac":
                keys = self.rule_keys if layer == "quad.build_rule" else self.basis_keys
                out[metric] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
            elif metric == "orthopoly.gram_residual.max":
                out[metric] = self.gram_residual_max
            else:
                out[metric] = self.counts[metric]
        return out


def _innermost_pieces(spans):
    """Split the time one thread spends inside (properly nested) spans into
    (start, end, name) pieces, each owned by the innermost open span."""
    pieces = []
    stack = []
    cursor = None

    def close_until(t):
        nonlocal cursor
        while stack and stack[-1][1] <= t:
            name, end = stack.pop()
            pieces.append((cursor, end, name))
            cursor = end

    for name, t0, t1 in sorted(spans, key=lambda s: (s[1], -s[2])):
        close_until(t0)
        if stack:
            pieces.append((cursor, t0, stack[-1][0]))
        stack.append((name, t1))
        cursor = t0
    close_until(float("inf"))
    return [p for p in pieces if p[1] > p[0]]


def self_times_ms(spans):
    """Self time per span name, in ms.

    On one thread a span's self time is its duration minus the part its
    child spans cover.  Where threads overlap, each instant is shared
    equally by the threads that have a span open at that instant.
    """
    by_thread = defaultdict(list)
    for name, tid, t0, t1 in spans:
        by_thread[tid].append((name, t0, t1))
    pieces = [p for s in by_thread.values() for p in _innermost_pieces(s)]
    if not pieces:
        return {}
    bounds = sorted({t for p in pieces for t in p[:2]})
    cover = [0] * len(bounds)
    for t0, t1, _ in pieces:
        cover[bisect.bisect_left(bounds, t0)] += 1
        cover[bisect.bisect_left(bounds, t1)] -= 1
    # shared[i]: weighted time from bounds[0] to bounds[i]
    shared = [0.0] * len(bounds)
    open_threads = 0
    for i in range(1, len(bounds)):
        open_threads += cover[i - 1]
        dt = bounds[i] - bounds[i - 1]
        shared[i] = shared[i - 1] + (dt / open_threads if open_threads else 0.0)
    out = defaultdict(float)
    for t0, t1, name in pieces:
        out[name] += 1e3 * (shared[bisect.bisect_left(bounds, t1)]
                            - shared[bisect.bisect_left(bounds, t0)])
    return dict(out)


def median_metrics(runs):
    """Per-metric median over several traced processes."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
