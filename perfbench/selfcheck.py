"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced on a tiny design space and checks
that each run reports exactly the metrics declared in ``BENCHMARK.json``,
passes its own output checks, and that the traced run reaches the layers it
should. It then feeds each output check a wrong output and requires the
check to catch it. Exits 0 when everything holds; takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import run

run.cap_blas_threads()
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from pimdse import crossbar, mapping  # noqa: E402
from pimdse.cost_model import default_tech  # noqa: E402
from pimdse.design_space import SpaceDescriptor  # noqa: E402

TINY = wl.Sizes(
    space=SpaceDescriptor(
        num_blocks=2, dense_dims=(16, 32), sparse_dims=(16,), num_sparse_features=4, embedding_dim=8
    ),
    search_config=(
        ("num_generations", 4), ("num_children", 2), ("population_init_size", 4), ("tournament_size", 2),
    ),
    search_seeds=2,
    forward_panel=((64, 0, 100), (32, 60, 100), (16, 200, 300)),
    xbar_panel=((16, 0, 300), (32, 0, 100), (64, 0, 100)),
    setup_probes=1,
    trace_read_cycles=1,
)

# Layers each traced workload must reach, and the crossbar layers the
# search workload must bypass.
REACHED = {
    "search_default": (
        "design_space.mutate.calls", "mapping.map_model.us_per_call",
        "cost_model.model_cost.us_per_call", "cost_model.stage_times.per_candidate",
        "pipeline.simulate.us_per_call", "evaluator.surrogate_loss.us_per_call",
        "search.evaluations",
    ),
    "forward_default": (
        "crossbar.program_signed.calls", "crossbar.program_signed.ns_per_cell",
        "crossbar.mvm.calls", "crossbar.mvm.ns_per_adc_read", "crossbar.mbsa_square.calls",
        "mapping.functional_forward.self_share", "reference.reference_forward.us_per_call",
    ),
    "xbar_stationary": (
        "crossbar.program_signed.calls", "crossbar.mvm.calls", "crossbar.mvm.ns_per_adc_read",
    ),
}
BYPASSED = {"search_default": ("crossbar.program_signed.calls", "crossbar.mvm.calls")}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_metrics(label: str, metrics: dict, declared: dict, positive: bool) -> None:
    expect(set(metrics) == set(declared), f"{label}: metric names match BENCHMARK.json")
    values = [v[0] if isinstance(v, tuple) else v for v in metrics.values()]
    expect(all(math.isfinite(v) and (v > 0 or not positive) for v in values),
           f"{label}: metric values finite" + (" and positive" if positive else ""))


def check_workloads() -> None:
    e2e, layers = run.declared_metrics(0), run.declared_metrics(1)
    for name in wl.WORKLOADS:
        res = wl.run_workload(name, 1, 0.05, TINY, run.PATHS)
        check_metrics(name, res["metrics"], e2e, positive=True)
        expect(not res["problems"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{name}: correct, {res['attempted']} attempted, 0 failed")
        expect(all(unit == e2e[k] for k, (_, unit) in res["metrics"].items()), f"{name}: units")

        res, tracer = wl.run_traced(name, 1, TINY)
        check_metrics(f"{name} traced", res["metrics"], layers, positive=False)
        expect(not res["problems"] and res["failed"] == 0, f"{name} traced: correct")
        m = res["metrics"]
        expect(all(m[k] > 0 for k in REACHED[name]), f"{name} traced: reaches its layers")
        if name in BYPASSED:
            expect(all(m[k] == 0 for k in BYPASSED[name]), f"{name} traced: bypasses the crossbar")
        spans = tracer.to_json()["spans"]
        expect(bool(spans) and all(end >= start for _, start, end, _, _ in spans),
               f"{name} traced: {len(spans)} well-formed spans")


def check_catches_wrong_outputs() -> None:
    # forward: a clean forward whose output differs from the reference
    cases = wl.forward_setup(2, TINY)
    check = wl.ForwardCheck(cases)
    case = cases[0]
    out, logs = mapping.functional_forward(case.mm, case.dense, case.sparse, case.weights)
    check.record(0, out, logs)
    clean_logs = {k: crossbar.SaturationLog() for k in logs}
    check.record(0, out + 1, clean_logs)
    expect(check.failed == 1, "forward check counts a wrong clean output as failed")
    expect(len(check.problems()) == 1, "forward check flags an output that changed between repetitions")
    expect(wl.ForwardCheck(cases).problems() == ["no forward had clean logs"],
           "forward check flags a run with no clean forward")

    # xbar: a clean read whose result is not weight @ x
    rng = np.random.default_rng(3)
    w = rng.integers(-7, 8, size=(5, 12))
    tiles = crossbar.program_signed(w.T, 4, crossbar.CrossbarSpec(16, 16, 1))
    lossless = crossbar.ConverterSpec(dac_bits=1, adc_bits=8)  # 8 >= 1 + 1 + log2(16)
    good = wl.ReadStream(0, [wl.Leaf("good", w, tiles, lossless)])
    bad = wl.ReadStream(0, [wl.Leaf("bad", w + 1, tiles, lossless)])
    good.read(0)
    bad.read(0)
    expect(good.clean == good.reads == 1 and good.failed == 0, "xbar check passes an exact read")
    expect(bad.failed == 1, "xbar check counts a wrong clean read as failed")
    expect(not good.problems() and wl.ReadStream(0, []).problems() == ["no read had a clean log"],
           "xbar check flags a stream with no clean read")

    # search: a top entry that does not re-evaluate to its record
    tech = default_tech()
    case = wl.search_case(5, TINY, tech)
    result, _, _ = wl.run_search_timed(case, TINY)
    _, problems, fp = wl.check_search(case, result, TINY, tech)
    expect(not problems, "search check passes a genuine search")
    top = list(result.top_entries)
    top[0] = dataclasses.replace(top[0], loss=top[0].loss * 2)
    _, problems, fp2 = wl.check_search(case, dataclasses.replace(result, top_entries=top), TINY, tech)
    expect(bool(problems) and fp2 != fp, "search check flags a wrong top entry and its fingerprint moves")


def main() -> int:
    check_workloads()
    check_catches_wrong_outputs()
    print(f"{len(failures)} failed" if failures else "self-check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
