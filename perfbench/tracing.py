"""Layer tracing from outside the program.

The tracer replaces public functions of the ``fedagg`` modules with wrappers
that record a span (name, start, end, parent span) and, for a few functions,
work counts taken from their arguments or results. Every module namespace
that holds the original function gets the wrapper, so calls made through
``from .x import f`` names are seen too. Nothing under ``src/`` changes.

The barrier solver is counted by wrapping ``minimize_linear`` where
``mm_general`` and ``mm_symmetric`` look it up: the wrapper hands the solver a
counting proxy of its ``ConstraintSet``, where one ``grad`` call is one Newton
step and one ``value`` call is one constraint evaluation of ``len(g)`` rows.

Spans stay in memory; ``dump`` writes them when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter

# (module, function) pairs that get a span. Spans of the same name are
# summed; self time subtracts the time covered by direct child spans.
SPANNED = (
    ("transform", "haar_matrix"),
    ("transform", "haar_rotate"),
    ("transform", "haar_derotate"),
    ("simulate", "mbtc_aggregate"),
    ("simulate", "mbtc_noise_surrogate"),
    ("simulate", "qsgd_quantize"),
    ("simulate", "rotated_uniform_quantize"),
    ("region", "is_feasible"),
    ("region", "cond_mutual_info"),
    ("region", "sum_mutual_info"),
    ("mm_general", "optimize"),
    ("mm_general", "build_surrogate"),
    ("mm_general", "solve_surrogate"),
    ("mm_symmetric", "optimize_symmetric"),
    ("mm_symmetric", "enumerate_selections"),
    ("mm_symmetric", "theta"),
    ("flharness", "fl_round"),
    ("flharness", "local_gradient"),
    ("model", "validate_psd"),
)

# name, unit: the per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("transform.qr_builds", "count"),
    ("transform.qr_s", "s"),
    ("transform.rotate_s", "s"),
    ("transform.segment_hit_ratio", "ratio"),
    ("simulate.aggregate_self_s", "s"),
    ("simulate.noise_combine_s", "s"),
    ("simulate.quantize_s", "s"),
    ("region.feasibility_checks", "count"),
    ("region.subset_evals", "count"),
    ("region.subset_eval_s", "s"),
    ("mm_general.mm_iterations", "count"),
    ("mm_general.surrogate_build_self_s", "s"),
    ("mm_general.solve_s", "s"),
    ("mm_symmetric.solves", "count"),
    ("mm_symmetric.mm_iterations", "count"),
    ("mm_symmetric.selection_rows", "count"),
    ("mm_symmetric.theta_calls", "count"),
    ("mm_symmetric.theta_s", "s"),
    ("barrier.solves", "count"),
    ("barrier.solve_s", "s"),
    ("barrier.newton_steps", "count"),
    ("barrier.constraint_evals", "count"),
    ("barrier.rows_evaluated", "count"),
    ("barrier.newton_steps_per_solve", "ratio"),
    ("barrier.evals_per_step", "ratio"),
    ("flharness.rounds", "count"),
    ("flharness.aggregate_s", "s"),
    ("flharness.local_grad_s", "s"),
    ("model.psd_validations", "count"),
    ("model.validate_psd_s", "s"),
)


class _CountingConstraints:
    """Proxy of a barrier ConstraintSet that counts the solver's calls."""

    def __init__(self, inner, counts: Counter):
        self._inner = inner
        self._counts = counts

    def value(self, x):
        g = self._inner.value(x)
        self._counts["barrier.constraint_evals"] += 1
        self._counts["barrier.rows_evaluated"] += len(g)
        return g

    def grad(self, x):
        self._counts["barrier.newton_steps"] += 1
        return self._inner.grad(x)

    def hess_weighted(self, x, w):
        return self._inner.hess_weighted(x, w)


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is zero reads 0: the layer did no work."""
    return num / den if den else 0.0


class Tracer:
    """Spans and counts for one process; install() before the job runs."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self._clock = time.perf_counter
        self._default_seg = None  # transform.DEFAULT_SEGMENT_LEN, set by install()

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Return fn wrapped in a span; hooks see the arguments or the result."""
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self):
        """Wrap every public function in SPANNED plus the barrier entry points."""
        import fedagg.cli  # noqa: F401  - loads every fedagg module
        from fedagg import barrier, mm_general, mm_symmetric, transform

        self._default_seg = transform.DEFAULT_SEGMENT_LEN
        hooks = {
            "haar_rotate": (self._count_segments, None),
            "haar_derotate": (self._count_segments, None),
            "enumerate_selections": (None, self._count_selections),
        }
        for module, func in SPANNED:
            mod = sys.modules[f"fedagg.{module}"]
            orig = getattr(mod, func)
            on_call, on_result = hooks.get(func, (None, None))
            _replace_everywhere(
                orig, self.wrap(f"{module}.{func}", orig, on_call, on_result)
            )
        solver = barrier.minimize_linear
        mm_general.minimize_linear = self._barrier_wrapper(solver, "mm_general")
        mm_symmetric.minimize_linear = self._barrier_wrapper(solver, "mm_symmetric")

    def _barrier_wrapper(self, solver, caller: str):
        counts = self.counts

        def counted(f, cons, *args, **kwargs):
            counts[f"{caller}.barrier_calls"] += 1
            return solver(f, _CountingConstraints(cons, counts), *args, **kwargs)

        return self.wrap("barrier.minimize_linear", counted)

    def _count_segments(self, args, kwargs):
        v = args[0]
        seg = args[2] if len(args) > 2 else kwargs.get("segment_len", self._default_seg)
        n = getattr(v, "shape", (len(v),))[-1]
        self.counts["transform.segments_requested"] += math.ceil(n / seg)

    def _count_selections(self, result):
        self.counts["mm_symmetric.selection_rows"] += len(result)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - child[i])
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics of LAYER_METRICS, from spans and counts."""
        t = self.totals()
        c = self.counts

        def calls(*names):
            return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

        def secs(*names):
            return sum(t.get(n, (0, 0.0, 0.0))[1] for n in names)

        def self_secs(name):
            return t.get(name, (0, 0.0, 0.0))[2]

        qr = calls("transform.haar_matrix")
        steps = c["barrier.newton_steps"]
        solves = calls("barrier.minimize_linear")
        values = {
            "transform.qr_builds": qr,
            "transform.qr_s": secs("transform.haar_matrix"),
            "transform.rotate_s": secs("transform.haar_rotate", "transform.haar_derotate"),
            "transform.segment_hit_ratio": (
                1.0 - _ratio(qr, c["transform.segments_requested"])
                if c["transform.segments_requested"]
                else 0.0
            ),
            "simulate.aggregate_self_s": self_secs("simulate.mbtc_aggregate"),
            "simulate.noise_combine_s": secs("simulate.mbtc_noise_surrogate"),
            "simulate.quantize_s": secs(
                "simulate.qsgd_quantize", "simulate.rotated_uniform_quantize"
            ),
            "region.feasibility_checks": calls("region.is_feasible"),
            "region.subset_evals": calls("region.cond_mutual_info", "region.sum_mutual_info"),
            "region.subset_eval_s": secs("region.cond_mutual_info", "region.sum_mutual_info"),
            "mm_general.mm_iterations": calls("mm_general.build_surrogate"),
            "mm_general.surrogate_build_self_s": self_secs("mm_general.build_surrogate"),
            "mm_general.solve_s": secs("mm_general.solve_surrogate"),
            "mm_symmetric.solves": calls("mm_symmetric.optimize_symmetric"),
            "mm_symmetric.mm_iterations": c["mm_symmetric.barrier_calls"],
            "mm_symmetric.selection_rows": c["mm_symmetric.selection_rows"],
            "mm_symmetric.theta_calls": calls("mm_symmetric.theta"),
            "mm_symmetric.theta_s": secs("mm_symmetric.theta"),
            "barrier.solves": solves,
            "barrier.solve_s": secs("barrier.minimize_linear"),
            "barrier.newton_steps": steps,
            "barrier.constraint_evals": c["barrier.constraint_evals"],
            "barrier.rows_evaluated": c["barrier.rows_evaluated"],
            "barrier.newton_steps_per_solve": _ratio(steps, solves),
            "barrier.evals_per_step": _ratio(c["barrier.constraint_evals"], steps),
            "flharness.rounds": calls("flharness.fl_round"),
            "flharness.aggregate_s": secs("flharness.aggregate"),
            "flharness.local_grad_s": secs("flharness.local_gradient"),
            "model.psd_validations": calls("model.validate_psd"),
            "model.validate_psd_s": secs("model.validate_psd"),
        }
        return {name: values[name] for name, _ in LAYER_METRICS}

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _replace_everywhere(orig, wrapper):
    """Point every fedagg module attribute bound to orig at wrapper."""
    for name, mod in list(sys.modules.items()):
        if name != "fedagg" and not name.startswith("fedagg."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
