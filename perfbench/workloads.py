"""The three pimdse benchmark workloads, their output checks and traced runs.

Every workload is closed-loop and serial in one process: the next call
starts only when the previous one has returned and has been checked.
Checks run outside the timed calls.

* ``search_default`` runs ``run_search`` with the default ``SearchConfig``
  on ``DEFAULT_SPACE`` and ``default_tech()``, with loss and metrics built
  the way ``pimdse search`` builds them. How fast a search runs depends on
  where its seed leads it (single searches range over ~2x), so one run
  cycles through ``search_seeds`` distinct search seeds derived from the
  workload seed and weights each seed equally.
* ``forward_default`` runs ``functional_forward`` on a fixed panel of
  default-space points, one small, one typical and one large by tile
  count, one per crossbar size; the workload seed draws the weights and
  inputs. The panel is fixed because forward cost varies ~100x across
  sampled points (1k to 380k tiles), which no run length could average
  out.
* ``xbar_stationary`` programs every weight leaf of a smaller panel once in
  set-up, then streams single-vector ``mvm`` reads with fresh inputs.

``setup_s`` is the median over fresh interpreters, each timed from its
start to the end of the workload's set-up, that is, to where the first
timed call would begin.

Time per operation is reduced per unit of identical work first (per
search seed, per panel point, per leaf: the median over repetitions), so
a run's figures do not depend on how many repetitions fit in the run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from pimdse import crossbar, mapping, reference, search
from pimdse.cost_model import default_tech
from pimdse.design_space import DEFAULT_SPACE, SpaceDescriptor, sample_random, validate
from pimdse.evaluator import SurrogateParams

from tracing import CHECK, RUN, SETUP, Tracer, layer_targets, patched, per_layer_metrics

A_BITS = 8  # functional_forward's default activation width
A_MAX = (1 << (A_BITS - 1)) - 1
TAIL_LEVELS = (99, 95, 90, 75, 50)
perf = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    space: SpaceDescriptor = DEFAULT_SPACE
    search_config: tuple = ()  # SearchConfig overrides as (field, value) pairs
    search_seeds: int = 8      # distinct search seeds per run
    # Panel rows (xbar_size, min tiles, max tiles); see panel().
    # Forward: small, typical and large tile counts, the default space's
    # ~10th, ~55th and ~80th percentile (~1.3 s, ~2.3 s and ~3.5 s per
    # forward on a 2-core x86-64 host). Larger points would leave too few
    # repetitions in a run to filter the host's slow spells. The first and
    # last rows' converters are lossless, so every run compares forwards
    # with the reference.
    forward_panel: tuple = ((64, 4_000, 10_000), (32, 25_000, 40_000), (16, 80_000, 100_000))
    # xbar: each point at most ~6M physical cells (8 bytes each), because
    # all its leaves stay programmed at once.
    xbar_panel: tuple = ((16, 0, 20_000), (32, 0, 5_800), (64, 0, 1_400))
    setup_probes: int = 3
    trace_read_cycles: int = 2


DEFAULT_SIZES = Sizes()


def sub_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def percentile(values, level: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), level))


def tail_level(n: int, preferred: int) -> int:
    """``preferred``, or the highest lower level with ten samples beyond it."""
    for level in TAIL_LEVELS:
        if level <= preferred and n * (100 - level) / 100 >= 10:
            return level
    return 50


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# Run in a fresh interpreter by setup_seconds(); prints the monotonic clock
# (system-wide on Linux) at the end of the set-up.
SETUP_PROBE = """
import pickle, sys, time
import workloads
name, seed, sizes = pickle.loads(sys.stdin.buffer.read())
workloads.WORKLOADS[name][0](seed, sizes)
print(time.monotonic())
"""


def setup_seconds(name: str, seed: int, sizes: Sizes, paths: list[str]) -> float:
    """Median over ``sizes.setup_probes`` fresh interpreters of the time
    from process start to the end of the workload's set-up; ``paths`` must
    hold pimdse and this module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths + [env.get("PYTHONPATH")] if p)
    times = []
    for _ in range(sizes.setup_probes):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], input=pickle.dumps((name, seed, sizes)),
            env=env, check=True, stdout=subprocess.PIPE, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def panel(space: SpaceDescriptor, rows):
    """One ``(sequence index, point, mapped model)`` per row ``(xbar_size,
    min_tiles, max_tiles)``: the first point of a fixed sample sequence
    with that crossbar size and a tile count in range."""
    out = []
    for row in rows:
        xbar, lo, hi = row
        for i in range(100_000):
            point = sample_random(sub_seed("perfbench-panel", i), space)
            if point.reram.xbar_size != xbar:
                continue
            mm = mapping.map_model(point)
            plan = mm.tile_plan
            if lo <= plan["mvm_tiles"] + plan["dp_tiles"] + plan["fm_tiles"] <= hi:
                out.append((i, point, mm))
                break
        else:
            raise RuntimeError(f"no sampled point fits panel row {row}")
    return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("ascii")).hexdigest()


def traced_unit(tracer: Tracer, unit):
    """Run ``unit`` untraced, traced under a ``run`` span, then untraced
    again. ``unit(tracer or None)`` does one fixed amount of work. Returns
    the first untraced output, the traced output and the traced time over
    the mean untraced time (the untraced runs bracket the traced one, so
    warm-up does not count as tracing overhead)."""
    t0 = perf()
    plain = unit(None)
    t_before = perf() - t0
    with patched(tracer, layer_targets(tracer)), tracer.span(RUN):
        t0 = perf()
        out = unit(tracer)
        t_traced = perf() - t0
    t0 = perf()
    unit(None)
    t_after = perf() - t0
    return plain, out, 2 * t_traced / (t_before + t_after)


# ---------------------------------------------------------------------------
# search_default
# ---------------------------------------------------------------------------

@dataclass
class SearchCase:
    cfg: search.SearchConfig
    loss_fn: object
    metric_fn: object

    @property
    def candidates(self) -> int:
        return self.cfg.population_init_size + self.cfg.num_generations * self.cfg.num_children


def search_case(search_seed: int, sizes: Sizes, tech) -> SearchCase:
    """Config, loss and metrics for one search, as ``pimdse search`` builds them."""
    cfg = search.SearchConfig(seed=search_seed, **dict(sizes.search_config))
    return SearchCase(
        cfg,
        search.default_loss(SurrogateParams(seed=search_seed)),
        search.default_hw_metrics(tech, sizes.space, seed=search_seed),
    )


def search_seeds(seed: int, sizes: Sizes) -> list[int]:
    return [seed * sizes.search_seeds + k for k in range(sizes.search_seeds)]


def check_search(case: SearchCase, result, sizes: Sizes, tech):
    """(skipped children, problems, fingerprint) of one finished search.

    The top entries are re-evaluated with freshly built loss and metric
    functions and must match bit for bit.
    """
    cfg, log = case.cfg, result.log
    problems = []
    skipped = sum(cfg.num_children - len(g.child_ids) for g in log.generations)
    if len(log.generations) != cfg.num_generations:
        problems.append(f"{len(log.generations)} generations, expected {cfg.num_generations}")
    if len(result.population) != cfg.population_init_size:
        problems.append("population size changed")
    bests = [g.best for g in log.generations]
    if any(b > a for a, b in zip(bests, bests[1:])):
        problems.append("best criterion increased")
    fresh = search_case(cfg.seed, sizes, tech)
    top = []
    for e in result.top_entries:
        loss, metrics = fresh.loss_fn(e.point), tuple(fresh.metric_fn(e.point))
        crit = search.criterion(loss, metrics, cfg, log.targets)
        if (loss, metrics, crit) != (e.loss, e.metrics, e.criterion):
            problems.append(f"top entry {e.point_id[:12]} does not re-evaluate to its record")
        if not validate(e.point, sizes.space).ok:
            problems.append(f"top entry {e.point_id[:12]} is invalid")
        top.append([e.point_id, e.loss, list(e.metrics), e.criterion])
    fingerprint = hashlib.sha256(
        (log.to_canonical_json() + json.dumps(top)).encode("ascii")
    ).hexdigest()
    return skipped, problems, fingerprint


def run_search_timed(case: SearchCase, sizes: Sizes):
    stamps = []
    t0 = perf()
    result = search.run_search(
        case.cfg, case.loss_fn, case.metric_fn, sizes.space,
        on_generation=lambda record: stamps.append(perf()),
    )
    elapsed = perf() - t0
    return result, elapsed, np.diff(stamps)


def search_setup(seed: int, sizes: Sizes):
    tech = default_tech()
    return tech, [search_case(s, sizes, tech) for s in search_seeds(seed, sizes)]


def search_default(seed: int, seconds: float, sizes: Sizes, built) -> dict:
    tech, cases = built
    seeds = [case.cfg.seed for case in cases]
    elapsed = {s: [] for s in seeds}
    gen_times = {s: [] for s in seeds}
    fingerprints, problems = {}, []
    attempted = failed = 0
    t_begin = perf()
    for i in itertools.count():
        if i > len(seeds) and perf() - t_begin >= seconds:
            break  # at least one search per seed, and a repeat of the first
        s, case = seeds[i % len(seeds)], cases[i % len(seeds)]
        result, dt, gens = run_search_timed(case, sizes)
        elapsed[s].append(dt)
        gen_times[s].append(gens)
        skipped, errs, fp = check_search(case, result, sizes, tech)
        attempted += case.candidates
        failed += skipped
        problems += [f"search seed {s}: {e}" for e in errs]
        if fingerprints.setdefault(s, fp) != fp:
            problems.append(f"search seed {s}: fingerprint changed between repetitions")

    candidates = cases[0].candidates
    per_seed_s = [statistics.median(elapsed[s]) for s in seeds]
    # One sample per (search seed, generation): the median over repetitions.
    gen_ms = np.concatenate([np.median(np.stack(gen_times[s]), axis=0) for s in seeds]) * 1e3
    tail = tail_level(len(gen_ms), 95)
    throughput = candidates * len(seeds) / sum(per_seed_s)
    p50, ptail = percentile(gen_ms, 50), percentile(gen_ms, tail)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "throughput_per_s": throughput,
        "latency_p50_ms": p50,
        "named": {
            "candidates_per_s": (throughput, "1/s"),
            "generation_p50_ms": (p50, "ms"),
            f"generation_p{tail}_ms": (ptail, "ms"),
        },
        "samples": {
            "searches": sum(len(v) for v in elapsed.values()),
            "search_seeds": seeds,
            "candidates_per_search": candidates,
            "generation_samples": len(gen_ms),
            "latency_tail_percentile": tail,
        },
        "fingerprints": {str(s): fp for s, fp in fingerprints.items()},
    }


def keyed_fns(tracer: Tracer, case: SearchCase):
    """Loss and metric functions that give each evaluated candidate a span key."""
    ordinal = itertools.count()

    def loss_fn(point):
        tracer.key = f"c{next(ordinal)}"
        return case.loss_fn(point)

    def metric_fn(point):
        tracer.count("search.metric_fn_calls")
        try:
            return case.metric_fn(point)
        finally:
            tracer.key = None

    return loss_fn, metric_fn


def search_default_traced(seed: int, sizes: Sizes, tracer: Tracer, built) -> dict:
    tech, cases = built
    case = cases[0]

    def unit(tr):
        loss_fn, metric_fn = keyed_fns(tr, case) if tr else (case.loss_fn, case.metric_fn)
        return search.run_search(case.cfg, loss_fn, metric_fn, sizes.space)

    plain, traced, ratio = traced_unit(tracer, unit)
    _, _, fp_plain = check_search(case, plain, sizes, tech)
    skipped, problems, fp = check_search(case, traced, sizes, tech)
    if fp != fp_plain:
        problems.append("traced search differs from the untraced one")
    tracer.count("search.skipped_children", skipped)
    return {
        "attempted": case.candidates,
        "failed": skipped,
        "problems": problems,
        "candidates": case.candidates,
        "overhead_ratio": ratio,
        "fingerprints": {str(case.cfg.seed): fp},
    }


# ---------------------------------------------------------------------------
# forward_default
# ---------------------------------------------------------------------------

@dataclass
class ForwardCase:
    index: int  # position in the panel sample sequence
    mm: object
    weights: dict
    dense: np.ndarray
    sparse: np.ndarray


def forward_setup(seed: int, sizes: Sizes) -> list[ForwardCase]:
    cases = []
    for j, (index, point, mm) in enumerate(panel(sizes.space, sizes.forward_panel)):
        model = point.model
        rng = np.random.default_rng(sub_seed(seed, "forward-inputs", j))
        cases.append(
            ForwardCase(
                index,
                mm,
                mapping.random_weights(mm, sub_seed(seed, "forward-weights", j)),
                rng.integers(-A_MAX, A_MAX + 1, size=model.embedding_dim),
                rng.integers(-A_MAX, A_MAX + 1, size=(model.num_sparse_features, model.embedding_dim)),
            )
        )
    return cases


class ForwardCheck:
    """Compares forwards with ``reference_forward`` and requires every
    repetition of a case to give the same output and per-leaf clip counts.
    Only forwards whose logs are all clean are compared, so a run with no
    clean forward is a problem: it would have checked nothing."""

    def __init__(self, cases: list[ForwardCase]):
        self.cases = cases
        self.refs: dict[int, np.ndarray] = {}
        self.first: dict[int, list] = {}
        self.clean = self.failed = 0
        self.changed: list[str] = []

    def record(self, j: int, out, logs) -> None:
        case = self.cases[j]
        if j not in self.refs:
            self.refs[j] = reference.reference_forward(
                case.mm.model, case.dense, case.sparse, case.weights
            )
        if all(lg.clip_count == 0 for lg in logs.values()):
            self.clean += 1
            if not np.array_equal(out, self.refs[j]):
                self.failed += 1
        signature = [
            np.asarray(out).tolist(),
            sorted([k, lg.clip_count, lg.max_overflow] for k, lg in logs.items()),
        ]
        if self.first.setdefault(j, signature) != signature:
            self.changed.append(f"panel point {case.index}: output changed between repetitions")

    def problems(self) -> list[str]:
        return self.changed + ([] if self.clean else ["no forward had clean logs"])

    def fingerprint(self) -> str:
        return digest([[self.cases[j].index, self.first[j]] for j in sorted(self.first)])


def forward_default(seed: int, seconds: float, sizes: Sizes, cases) -> dict:
    check = ForwardCheck(cases)
    times = [[] for _ in cases]
    t_begin = perf()
    for j in itertools.cycle(range(len(cases))):
        if times[-1] and perf() - t_begin >= seconds:
            break  # every point has run at least once
        case = cases[j]
        t0 = perf()
        out, logs = mapping.functional_forward(case.mm, case.dense, case.sparse, case.weights)
        times[j].append(perf() - t0)
        check.record(j, out, logs)

    samples_ms = [t * 1e3 for ts in times for t in ts]
    tail = tail_level(len(samples_ms), 95)
    throughput = len(cases) / sum(statistics.median(ts) for ts in times)
    p50, ptail = percentile(samples_ms, 50), percentile(samples_ms, tail)
    return {
        "attempted": len(samples_ms),
        "failed": check.failed,
        "problems": check.problems(),
        "throughput_per_s": throughput,
        "latency_p50_ms": p50,
        "named": {
            "forwards_per_s": (throughput, "1/s"),
            "forward_p50_s": (p50 / 1e3, "s"),
            f"forward_p{tail}_s": (ptail / 1e3, "s"),
        },
        "samples": {
            "forwards": len(samples_ms),
            "clean_forwards": check.clean,
            "panel": [c.index for c in cases],
            "latency_tail_percentile": tail,
        },
        "fingerprints": {str(seed): check.fingerprint()},
    }


def forward_default_traced(seed: int, sizes: Sizes, tracer: Tracer, cases) -> dict:
    def unit(tr):
        outs = []
        for case in cases:
            tracer.key = f"p{case.index}"
            outs.append(
                mapping.functional_forward(case.mm, case.dense, case.sparse, case.weights)
            )
        tracer.key = None
        return outs

    plain, outs, ratio = traced_unit(tracer, unit)
    with patched(tracer, layer_targets(tracer)), tracer.span(CHECK):
        check = ForwardCheck(cases)
        for j, (out, logs) in enumerate(plain + outs):
            check.record(j % len(outs), out, logs)  # the traced pass repeats the plain one
    return {
        "attempted": len(outs),
        "failed": check.failed,
        "problems": check.problems(),
        "candidates": 0,
        "overhead_ratio": ratio,
        "fingerprints": {str(seed): check.fingerprint()},
    }


# ---------------------------------------------------------------------------
# xbar_stationary
# ---------------------------------------------------------------------------

@dataclass
class Leaf:
    name: str
    weight: np.ndarray  # (out, in); a read returns weight @ x
    tiles: object
    conv: crossbar.ConverterSpec


def leaf_weight_bits(point, op_id: str) -> int:
    """Weight width of a leaf, from the op-id convention of ``functional_forward``
    (``b<block>.<branch>.<KIND>[.<part>]`` or ``final_fc``)."""
    if op_id == "final_fc":
        return point.model.final_fc_bits
    block, branch, kind = op_id.split(".")[:3]
    blk = point.model.blocks[int(block[1:]) - 1]
    ops = blk.dense_ops if branch == "dense" else blk.sparse_ops
    return next(op.weight_bits for op in ops if op.kind.value == kind)


def xbar_setup(seed: int, sizes: Sizes) -> list[Leaf]:
    """Every weight leaf of the xbar panel, programmed."""
    leaves = []
    for j, (index, point, mm) in enumerate(panel(sizes.space, sizes.xbar_panel)):
        reram = point.reram
        spec = crossbar.CrossbarSpec(reram.xbar_size, reram.xbar_size, reram.cell_bits)
        conv = crossbar.ConverterSpec(dac_bits=reram.dac_bits, adc_bits=reram.adc_bits)
        weights = mapping.random_weights(mm, sub_seed(seed, "xbar-weights", j))
        for op_id, w in weights.items():
            tiles = crossbar.program_signed(w.T, leaf_weight_bits(point, op_id), spec)
            leaves.append(Leaf(f"p{index}:{op_id}", w, tiles, conv))
    return leaves


class ReadStream:
    """Round-robin single-vector reads with fresh inputs, each checked
    against ``weight @ x`` when its saturation log is clean. A stream with
    no clean read is a problem: it would have checked nothing."""

    def __init__(self, seed: int, leaves: list[Leaf]):
        self.leaves = leaves
        self.rng = np.random.default_rng(sub_seed(seed, "xbar-inputs"))
        self.times = [[] for _ in leaves]
        self.first_cycle: list = []
        self.reads = self.clean = self.failed = 0

    def read(self, k: int, tracer: Tracer | None = None) -> None:
        leaf = self.leaves[k]
        x = self.rng.integers(-A_MAX, A_MAX + 1, size=leaf.weight.shape[1])
        if tracer is not None:
            tracer.key = leaf.name
        t0 = perf()
        y, log = crossbar.mvm(leaf.tiles, x, A_BITS, leaf.conv)
        self.times[k].append(perf() - t0)
        self.reads += 1
        if log.clip_count == 0:
            self.clean += 1
            if not np.array_equal(y, leaf.weight @ x):
                self.failed += 1
        if len(self.first_cycle) < len(self.leaves):
            self.first_cycle.append([leaf.name, y.tolist(), log.clip_count, log.max_overflow])

    def fingerprint(self) -> str:
        return digest(self.first_cycle)

    def problems(self) -> list[str]:
        return [] if self.clean else ["no read had a clean log"]


def xbar_stationary(seed: int, seconds: float, sizes: Sizes, leaves) -> dict:
    stream = ReadStream(seed, leaves)
    t_begin = perf()
    for k in itertools.cycle(range(len(leaves))):
        if stream.times[-1] and perf() - t_begin >= seconds:
            break  # every leaf has been read at least once
        stream.read(k)

    samples_us = [t * 1e6 for ts in stream.times for t in ts]
    tail = tail_level(len(samples_us), 99)
    throughput = len(leaves) / sum(statistics.median(ts) for ts in stream.times)
    p50, ptail = percentile(samples_us, 50), percentile(samples_us, tail)
    return {
        "attempted": stream.reads,
        "failed": stream.failed,
        "problems": stream.problems(),
        "throughput_per_s": throughput,
        "latency_p50_ms": p50 / 1e3,
        "named": {
            "reads_per_s": (throughput, "1/s"),
            "read_p50_us": (p50, "us"),
            f"read_p{tail}_us": (ptail, "us"),
        },
        "samples": {
            "reads": stream.reads,
            "clean_reads": stream.clean,
            "leaves": len(leaves),
            "latency_tail_percentile": tail,
        },
        "fingerprints": {str(seed): stream.fingerprint()},
    }


def xbar_stationary_traced(seed: int, sizes: Sizes, tracer: Tracer, leaves) -> dict:
    def unit(tr):
        stream = ReadStream(seed, leaves)
        for _ in range(sizes.trace_read_cycles):
            for k in range(len(leaves)):
                stream.read(k, tr)
        tracer.key = None
        return stream

    plain, stream, ratio = traced_unit(tracer, unit)
    problems = stream.problems()
    if stream.fingerprint() != plain.fingerprint():
        problems.append("traced reads differ from the untraced ones")
    return {
        "attempted": stream.reads,
        "failed": stream.failed,
        "problems": problems,
        "candidates": 0,
        "overhead_ratio": ratio,
        "fingerprints": {str(seed): stream.fingerprint()},
    }


# name -> (set-up, untraced run, traced run). The set-up builds everything
# the first timed call needs; run and traced run take what it returns.
WORKLOADS = {
    "search_default": (search_setup, search_default, search_default_traced),
    "forward_default": (forward_setup, forward_default, forward_default_traced),
    "xbar_stationary": (xbar_setup, xbar_stationary, xbar_stationary_traced),
}


def run_workload(name: str, seed: int, seconds: float, sizes: Sizes, paths: list[str]) -> dict:
    """Untraced run: the end-to-end metrics, with ``value, unit`` pairs.
    ``setup_s`` is taken in fresh interpreters (see setup_seconds) before
    this process builds its own set-up."""
    setup, run, _ = WORKLOADS[name]
    setup_s = setup_seconds(name, seed, sizes, paths)
    res = run(seed, seconds, sizes, setup(seed, sizes))
    res["metrics"] = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (res["throughput_per_s"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
    }
    res["named"] = {"setup_s": (setup_s, "s"), "peak_rss_mb": res["metrics"]["peak_rss_mb"], **res["named"]}
    return res


def run_traced(name: str, seed: int, sizes: Sizes) -> tuple[dict, Tracer]:
    """Traced run: the per-layer metrics; no end-to-end figure is taken."""
    tracer = Tracer()
    setup, _, traced = WORKLOADS[name]
    with patched(tracer, layer_targets(tracer)), tracer.span(SETUP):
        built = setup(seed, sizes)
    res = traced(seed, sizes, tracer, built)
    res["metrics"] = per_layer_metrics(tracer, res["candidates"], res["overhead_ratio"])
    return res, tracer
