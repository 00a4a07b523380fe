"""Span tracing around the public functions of each pimdse layer.

Every wrapped function is patched at the name its caller looks up (a
module global such as ``pimdse.search.map_model``, or a class attribute
such as ``DesignPoint.point_id``), so the program itself is unchanged and
the originals are restored on exit. Spans are kept in memory as parallel
lists and written out once, after the traced run.

A span records its layer name, start and end (``perf_counter_ns``), the
index of the enclosing span and the request key (candidate, point or leaf)
that was current when it opened. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from contextlib import contextmanager

RUN = "run"      # root span around the traced unit of work
SETUP = "setup"  # root span around the workload's set-up
CHECK = "check"  # root span around output checks (oracle calls)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.keys: list[str | None] = []
        self.stack: list[int] = []
        self.key: str | None = None
        self.counters: dict[str, float] = {}
        # id(programmed tiles) -> (rows, 2 * planes * out_dim), for counting
        # the ADC reads of arrays programmed in an earlier patched context.
        self.programmed: dict[int, tuple[int, int]] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.keys.append(self.key)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as a span; ``observe(args, kwargs, result)`` runs
        after the span closes, so its cost is not charged to the layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "key"],
            "spans": [
                [n, s, e, p, k]
                for n, s, e, p, k in zip(self.names, self.starts, self.ends, self.parents, self.keys)
            ],
            "counters": self.counters,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))


def _patched(owner, attr: str, tracer: Tracer, name: str, observe=None):
    """Wrapped replacement for ``owner.attr``, or None when it is absent or
    not a function, property or cached property (then it goes untraced)."""
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if isinstance(original, property) and original.fget is not None:
        return original, property(tracer.wrap(name, original.fget, observe))
    if isinstance(original, functools.cached_property):
        replacement = functools.cached_property(tracer.wrap(name, original.func, observe))
        replacement.__set_name__(owner, attr)
        return original, replacement
    if inspect.isfunction(original):
        return original, tracer.wrap(name, original, observe)
    return None


@contextmanager
def patched(tracer: Tracer, targets):
    """Patch every ``(owner, attr, layer_name, observe)`` target, then restore."""
    saved = []
    try:
        for owner, attr, name, observe in targets:
            swap = _patched(owner, attr, tracer, name, observe)
            if swap is None:
                continue
            original, replacement = swap
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# nominal work counts, from argument shapes and the crossbar/converter specs
# ---------------------------------------------------------------------------

def crossbar_observers(tracer: Tracer):
    """Observers for ``program_signed`` and ``mvm`` that count programmed
    cells, nominal ADC reads and the simulated saturation statistics.

    Programmed cells per matrix are ``in_dim * out_dim * 2 * planes`` with
    ``planes = ceil(w_bits / cell_bits)``. Nominal ADC reads per drive
    vector are ``ceil(a_bits / dac_bits) * ceil(in_dim / rows) *
    out_dim * 2 * planes``, the sweep the cost model charges.
    """
    import numpy as np

    from pimdse import crossbar

    program_sig = inspect.signature(crossbar.program_signed)
    mvm_sig = inspect.signature(crossbar.mvm)
    programmed = tracer.programmed

    def on_program(args, kwargs, result):
        bound = program_sig.bind(*args, **kwargs).arguments
        in_dim, out_dim = np.shape(bound["matrix"])
        spec = bound["spec"]
        vcols = out_dim * 2 * math.ceil(bound["w_bits"] / spec.cell_bits)
        # An id is reused only after its object is freed; the next array
        # programmed at that address overwrites the entry.
        programmed[id(result)] = (spec.rows, vcols)
        tracer.count("crossbar.programmed_cells", in_dim * vcols)

    def on_mvm(args, kwargs, result):
        bound = mvm_sig.bind(*args, **kwargs).arguments
        shape = programmed.get(id(bound["pt"]))
        if shape is not None:
            rows, vcols = shape
            x_shape = np.shape(bound["x"])
            vectors = x_shape[1] if len(x_shape) == 2 else 1
            slices = math.ceil(bound["a_bits"] / bound["conv"].dac_bits)
            tracer.count(
                "crossbar.adc_reads", vectors * slices * math.ceil(x_shape[0] / rows) * vcols
            )
        log = result[1]
        tracer.count("crossbar.clip_count", log.clip_count)
        tracer.counters["crossbar.max_overflow"] = max(
            tracer.counters.get("crossbar.max_overflow", 0), log.max_overflow
        )

    return on_program, on_mvm


def layer_targets(tracer: Tracer):
    """Every traced name, at each place a caller looks it up."""
    from pimdse import cost_model, crossbar, design_space, mapping, pipeline, reference, search

    on_program, on_mvm = crossbar_observers(tracer)

    def on_mutate(args, kwargs, result):
        parent = args[0] if args else kwargs["point"]
        tracer.count("design_space.mutate.changed", result != parent)

    return [
        (search, "run_search", "search.run_search", None),
        (search, "mutate", "design_space.mutate", on_mutate),
        (search, "validate", "design_space.validate", None),
        (design_space, "validate", "design_space.validate", None),
        (design_space.DesignPoint, "point_id", "design_space.point_id", None),
        (search, "map_model", "mapping.map_model", None),
        (mapping, "map_model", "mapping.map_model", None),
        (mapping, "functional_forward", "mapping.functional_forward", None),
        (search, "model_cost", "cost_model.model_cost", None),
        (cost_model, "stage_times", "cost_model.stage_times", None),
        (pipeline, "stage_times", "cost_model.stage_times", None),
        (search, "simulate", "pipeline.simulate", None),
        (pipeline.LookupModel, "latencies", "pipeline.lookup_latencies", None),
        (search, "surrogate_loss", "evaluator.surrogate_loss", None),
        (mapping, "program_signed", "crossbar.program_signed", on_program),
        (crossbar, "program_signed", "crossbar.program_signed", on_program),
        (mapping, "mvm", "crossbar.mvm", on_mvm),
        (crossbar, "mvm", "crossbar.mvm", on_mvm),
        (mapping, "mbsa_square", "crossbar.mbsa_square", None),
        (reference, "reference_forward", "reference.reference_forward", None),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

class LayerStats:
    """Calls, inclusive and self time per layer, split by root span.

    Calls and time per call count the set-up and the traced unit; shares
    and per-candidate counts count the traced unit only."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.names)
        dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child = [0] * n
        root = [0] * n
        for i, p in enumerate(tracer.parents):
            if p < 0:
                root[i] = i
            else:  # a parent opens before its children, so p < i
                root[i] = root[p]
                child[p] += dur[i]
        self.total_ns = {RUN: 0}
        self.calls: dict[tuple[str, str], int] = {}
        self.incl_ns: dict[tuple[str, str], int] = {}
        self.self_ns: dict[tuple[str, str], int] = {}
        for i, name in enumerate(tracer.names):
            scope = tracer.names[root[i]]
            if i == root[i]:
                self.total_ns[scope] = self.total_ns.get(scope, 0) + dur[i]
                continue
            key = (scope, name)
            self.calls[key] = self.calls.get(key, 0) + 1
            self.incl_ns[key] = self.incl_ns.get(key, 0) + dur[i]
            self.self_ns[key] = self.self_ns.get(key, 0) + dur[i] - child[i]

    def n(self, name: str, scopes=(RUN, SETUP)) -> int:
        return sum(self.calls.get((scope, name), 0) for scope in scopes)

    def incl(self, name: str, scopes=(RUN, SETUP)) -> int:
        return sum(self.incl_ns.get((scope, name), 0) for scope in scopes)

    def us_per_call(self, name: str, scopes=(RUN, SETUP)) -> float:
        calls = self.n(name, scopes)
        return self.incl(name, scopes) / calls / 1e3 if calls else 0.0

    def per_candidate(self, name: str, candidates: int) -> float:
        return _ratio(self.n(name, (RUN,)), candidates)

    def share(self, name: str) -> float:
        total = self.total_ns[RUN]
        return self.incl_ns.get((RUN, name), 0) / total if total else 0.0

    def self_share(self, name: str) -> float:
        total = self.total_ns[RUN]
        return self.self_ns.get((RUN, name), 0) / total if total else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, candidates: int, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metric set; a layer the workload never enters reads 0."""
    st = LayerStats(tracer)
    c = tracer.counters
    evaluations = c.get("search.metric_fn_calls", 0)
    return {
        "design_space.mutate.calls": st.n("design_space.mutate"),
        "design_space.mutate.us_per_call": st.us_per_call("design_space.mutate"),
        "design_space.mutate.changed_ratio": _ratio(
            c.get("design_space.mutate.changed", 0), st.n("design_space.mutate")
        ),
        "design_space.point_id.per_candidate": st.per_candidate("design_space.point_id", candidates),
        "design_space.point_id.us_per_call": st.us_per_call("design_space.point_id"),
        "design_space.validate.per_candidate": st.per_candidate("design_space.validate", candidates),
        "mapping.map_model.us_per_call": st.us_per_call("mapping.map_model"),
        "mapping.map_model.share": st.share("mapping.map_model"),
        "mapping.functional_forward.self_share": st.self_share("mapping.functional_forward"),
        "cost_model.model_cost.us_per_call": st.us_per_call("cost_model.model_cost"),
        "cost_model.model_cost.share": st.share("cost_model.model_cost"),
        "cost_model.stage_times.per_candidate": st.per_candidate("cost_model.stage_times", candidates),
        "cost_model.stage_times.us_per_call": st.us_per_call("cost_model.stage_times"),
        "pipeline.simulate.us_per_call": st.us_per_call("pipeline.simulate"),
        "pipeline.simulate.share": st.share("pipeline.simulate"),
        "pipeline.lookup_latencies.per_candidate": st.per_candidate(
            "pipeline.lookup_latencies", candidates
        ),
        "evaluator.surrogate_loss.us_per_call": st.us_per_call("evaluator.surrogate_loss"),
        "evaluator.surrogate_loss.share": st.share("evaluator.surrogate_loss"),
        "search.self_share": st.self_share("search.run_search"),
        "search.evaluations": evaluations,
        "search.cache_hit_ratio": 1.0 - _ratio(evaluations, candidates) if candidates else 0.0,
        "search.skipped_children": c.get("search.skipped_children", 0),
        "crossbar.program_signed.calls": st.n("crossbar.program_signed"),
        "crossbar.program_signed.us_per_call": st.us_per_call("crossbar.program_signed"),
        "crossbar.program_signed.ns_per_cell": _ratio(
            st.incl("crossbar.program_signed"), c.get("crossbar.programmed_cells", 0)
        ),
        "crossbar.program_signed.share": st.share("crossbar.program_signed"),
        "crossbar.mvm.calls": st.n("crossbar.mvm"),
        "crossbar.mvm.us_per_call": st.us_per_call("crossbar.mvm"),
        "crossbar.mvm.ns_per_adc_read": _ratio(
            st.incl("crossbar.mvm"), c.get("crossbar.adc_reads", 0)
        ),
        "crossbar.mvm.share": st.share("crossbar.mvm"),
        "crossbar.mbsa_square.calls": st.n("crossbar.mbsa_square"),
        "crossbar.mbsa_square.share": st.share("crossbar.mbsa_square"),
        "crossbar.clip_count": c.get("crossbar.clip_count", 0),
        "crossbar.max_overflow": c.get("crossbar.max_overflow", 0),
        "reference.reference_forward.us_per_call": st.us_per_call(
            "reference.reference_forward", (CHECK,)
        ),
        "trace.overhead_ratio": overhead_ratio,
    }
