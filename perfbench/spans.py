"""In-memory span tracer for the traced run of the benchmark.

The tracer replaces public mavik functions with timing wrappers at the
module attribute through which their callers look them up (for example
``mavik.engine.orthogonal_project`` for the fit loop and
``mavik.linalg.linear_combine`` for the projection), so the package itself
is not edited.  Every call becomes a span ``[name, start, end, parent, op]``
kept in memory until the run ends; ``op`` identifies the benchmark
operation the span belongs to.  A span's self time is its duration minus
the durations of its direct children.  Work counts are recorded at the same
boundaries.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

# (name, unit, better) of every per-layer metric, in report order.  A name's
# prefix is the layer it belongs to.  Times are self times unless the entry
# says otherwise in ``layer_metrics``.
PER_LAYER = (
    ("core.linear_combine_s", "s", "lower"),
    ("core.linear_combine_calls", "count", "lower"),
    ("core.multiply_s", "s", "lower"),
    ("core.multiply_calls", "count", "lower"),
    ("core.replay_s", "s", "lower"),
    ("linalg.project_s", "s", "lower"),
    ("linalg.project_calls", "count", "lower"),
    ("linalg.eig_s", "s", "lower"),
    ("linalg.eig_calls", "count", "lower"),
    ("linalg.eig_dim", "count", "lower"),
    ("linalg.eig_retained_frac", "ratio", "higher"),
    ("linalg.rank_s", "s", "lower"),
    ("engine.candidates", "count", "lower"),
    ("engine.fit_calls", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.normalization_s", "s", "lower"),
    ("engine.fit_s.vca", "s", "lower"),
    ("engine.fit_s.grad", "s", "lower"),
    ("engine.fit_s.coeff", "s", "lower"),
    ("coefficients.gram_s", "s", "lower"),
    ("coefficients.expand_s", "s", "lower"),
    ("coefficients.terms", "count", "lower"),
    ("serialize.to_json_s", "s", "lower"),
    ("serialize.dump_s", "s", "lower"),
    ("serialize.from_json_s", "s", "lower"),
    ("serialize.nodes", "count", "lower"),
    ("serialize.basis_bytes", "count", "lower"),
    ("io.json_load_s", "s", "lower"),
    ("postprocess.reduce_s", "s", "lower"),
    ("postprocess.dimension_s", "s", "lower"),
    ("postprocess.removed", "count", "higher"),
    ("retrieval.scan_s", "s", "lower"),
    ("retrieval.harness_s", "s", "lower"),
    ("retrieval.fits_per_trial", "count", "lower"),
    ("retrieval.refit_frac", "ratio", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Counts that depend only on the inputs; two traced passes over the same
# operations must reproduce them exactly.
WORK_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count") + (
    "linalg.eig_retained_frac",
    "retrieval.refit_frac",
)

_FIT_SPAN = {"vca": "engine.fit.vca", "gradient": "engine.fit.grad", "coefficient": "engine.fit.coeff"}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, module, attr, name, count=None):
        """Replace ``module.attr`` by a wrapper that records a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``count(counts, result, *args, **kwargs)`` records work
        counts after the call returns.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self.counts, out, *args, **kwargs)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _fit_name(X, config):
    return _FIT_SPAN[config.mode.kind]


def _count_eig(counts, result, A, N, rank_tol=None):
    counts["eig_dim"] += A.shape[0]
    counts["eig_retained"] += result.retained_rank


def install(tracer, workloads_module):
    """Wrap every traced boundary; undo with ``tracer.unwrap()``."""
    from mavik import coefficients, engine, linalg, postprocess, retrieval, serialize

    wrap = tracer.wrap
    wrap(engine, "fit", _fit_name)
    wrap(retrieval, "fit", _fit_name)
    wrap(engine, "linear_combine", "core.linear_combine")
    wrap(linalg, "linear_combine", "core.linear_combine")
    wrap(engine, "multiply", "core.multiply")
    wrap(
        engine,
        "orthogonal_project",
        "linalg.project",
        count=lambda c, out, cands, f_prev: c.update(candidates=len(cands)),
    )
    wrap(engine, "normalization_gram", "engine.normalization")
    wrap(engine, "gen_eig_sym", "linalg.eig", count=_count_eig)
    wrap(engine, "numerical_rank", "linalg.rank")
    wrap(engine, "coeff_gram", "coefficients.gram")
    wrap(
        coefficients,
        "expand_many",
        "coefficients.expand",
        count=lambda c, out, *a, **k: c.update(terms=sum(len(v.terms) for v in out)),
    )
    wrap(engine, "replay_many", "core.replay")
    wrap(serialize, "replay", "core.replay")
    wrap(
        serialize,
        "basis_to_json",
        "serialize.to_json",
        count=lambda c, out, *a, **k: c.update(nodes=len(out["nodes"])),
    )
    wrap(
        serialize,
        "dump_json",
        "serialize.dump",
        count=lambda c, out, obj, path: c.update(basis_bytes=os.path.getsize(path)),
    )
    wrap(serialize, "basis_from_json", "serialize.from_json")
    wrap(
        postprocess,
        "reduce_basis",
        "postprocess.reduce",
        count=lambda c, out, *a, **k: c.update(removed=len(out.removed)),
    )
    wrap(postprocess, "estimate_dimension", "postprocess.dimension")
    wrap(retrieval, "run_retrieval", "retrieval.trial")
    wrap(
        retrieval,
        "scan_g_profiles",
        "retrieval.scan",
        count=lambda c, out, X, mode, max_degree, epsilons: c.update(grid=len(epsilons)),
    )
    wrap(workloads_module, "load_json", "io.json_load")


def layer_metrics(spans, first, counts, factors):
    """Per-layer metrics of the spans ``spans[first:]`` and their counts.

    A span's time is multiplied by ``factors[op]`` of its operation, which
    converts it to the reference seconds of the operation's timing.

    ``engine.fit_s.<mode>`` is inclusive time in ``fit``; every other time
    is self time.  ``retrieval.harness_s`` is the self time of
    ``run_retrieval`` (sampling, noise, target matching);
    ``bench.unattributed_s`` is the self time of the benchmark's operation
    spans, time in no traced boundary.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent is not None:
            child[parent] += end - start
    own = defaultdict(float)
    incl = defaultdict(float)
    calls = Counter()
    trial_fits = scan_fits = 0
    for i in range(first, len(spans)):
        name, start, end, parent, op = spans[i]
        own[name] += (end - start - child[i]) * factors[op]
        incl[name] += (end - start) * factors[op]
        calls[name] += 1
        if name.startswith("engine.fit.") and parent is not None:
            parent_name = spans[parent][0]
            scan_fits += parent_name == "retrieval.scan"
            trial_fits += parent_name in ("retrieval.scan", "retrieval.trial")
    fit_names = _FIT_SPAN.values()
    trials = calls["retrieval.trial"]
    return {
        "core.linear_combine_s": own["core.linear_combine"],
        "core.linear_combine_calls": calls["core.linear_combine"],
        "core.multiply_s": own["core.multiply"],
        "core.multiply_calls": calls["core.multiply"],
        "core.replay_s": own["core.replay"],
        "linalg.project_s": own["linalg.project"],
        "linalg.project_calls": calls["linalg.project"],
        "linalg.eig_s": own["linalg.eig"],
        "linalg.eig_calls": calls["linalg.eig"],
        "linalg.eig_dim": counts["eig_dim"],
        "linalg.eig_retained_frac": (
            counts["eig_retained"] / counts["eig_dim"] if counts["eig_dim"] else 0.0
        ),
        "linalg.rank_s": own["linalg.rank"],
        "engine.candidates": counts["candidates"],
        "engine.fit_calls": sum(calls[n] for n in fit_names),
        "engine.self_s": sum(own[n] for n in fit_names),
        "engine.normalization_s": own["engine.normalization"],
        "engine.fit_s.vca": incl["engine.fit.vca"],
        "engine.fit_s.grad": incl["engine.fit.grad"],
        "engine.fit_s.coeff": incl["engine.fit.coeff"],
        "coefficients.gram_s": own["coefficients.gram"],
        "coefficients.expand_s": own["coefficients.expand"],
        "coefficients.terms": counts["terms"],
        "serialize.to_json_s": own["serialize.to_json"],
        "serialize.dump_s": own["serialize.dump"],
        "serialize.from_json_s": own["serialize.from_json"],
        "serialize.nodes": counts["nodes"],
        "serialize.basis_bytes": counts["basis_bytes"],
        "io.json_load_s": own["io.json_load"],
        "postprocess.reduce_s": own["postprocess.reduce"],
        "postprocess.dimension_s": own["postprocess.dimension"],
        "postprocess.removed": counts["removed"],
        "retrieval.scan_s": own["retrieval.scan"],
        "retrieval.harness_s": own["retrieval.trial"],
        "retrieval.fits_per_trial": trial_fits / trials if trials else 0.0,
        "retrieval.refit_frac": scan_fits / counts["grid"] if counts["grid"] else 0.0,
        "bench.unattributed_s": sum(v for n, v in own.items() if n.startswith("op.")),
    }
