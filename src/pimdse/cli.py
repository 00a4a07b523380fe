"""Command-line entry point.

Subcommands: ``space count``, ``space sample``, ``map``, ``simulate``,
``search``. All output JSON is emitted with sorted keys so reruns with the
same inputs are byte-identical. Exit codes: 0 ok, 1 output pipe closed
by its reader (``pimdse space sample -n 50 | head -1``), 2 parse error,
3 validation error, 4 internal error. Set PIMDSE_LOG to control verbosity.

Every input file (``--point``, ``--space``, ``--tech``, ``--search-config``)
is decoded by :func:`pimdse.design_space.from_plain`: each record is a JSON
object with no unknown key; every value has its field's JSON type (integers
for ``int``, never booleans or fractions; finite numbers for ``float``; lists
of the stated length; a listed operator kind); keys a record gives defaults
for may be left out. A file that breaks one of these rules exits 2 naming the
field by its JSON path, as does one that fails the record's own range checks
(naming the field); a design point that decodes but fails ``validate`` exits 3.
The ``--external`` loss CSV is read with the other inputs, before ``search``
writes anything; one that cannot be read or holds a bad row exits 2. A
``simulate --csv`` path that cannot be written exits 2 before anything is
printed.

A ``--tech`` file whose costs overflow float64 exits 2 naming the file and
the first value that is not finite: ``simulate`` before any output;
``search`` when it aborts on one (an initial point, or the child past the
skip limit; other such children are skipped like any failing child). A
``--search-config`` whose lambdas or targets push a criterion past float64
is treated the same way and exits 2 naming the search config, and the
``--tech`` file too when one is given (with ``"targets": null`` a tech
file can make the targets, the first point's metrics, subnormal). A ``search``
that aborts, for this or any other reason, removes the files and
directories it made, result files included. Every JSON file written is
strict: no NaN or Infinity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .cost_model import TechParams, default_tech, model_cost
from .design_space import (
    DEFAULT_SPACE,
    DesignPoint,
    SpaceDescriptor,
    canonical_json,
    cardinality,
    cardinality_report,
    from_plain,
    sample_random,
    validate,
)
from .evaluator import SurrogateParams, ingest_external
from .mapping import map_model
from .pipeline import schedule, simulate
from .search import (
    CriterionOverflow,
    SearchAborted,
    SearchConfig,
    default_hw_metrics,
    default_lookup_model,
    default_loss,
    derive_seed,
    run_search,
)

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

logger = logging.getLogger("pimdse")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _dump(obj: dict, stream=None) -> None:
    stream = sys.stdout if stream is None else stream
    json.dump(obj, stream, sort_keys=True, indent=2, allow_nan=False)
    stream.write("\n")


def _first_non_finite(obj, path: str = "") -> str | None:
    """``"path = value"`` of the first number in ``obj``, in the order
    :func:`_dump` writes them, that is infinite or NaN."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else f"{path} = {obj!r}"
    if isinstance(obj, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in sorted(obj.items())]
    else:
        items = [(f"{path}[{i}]", v) for i, v in enumerate(obj)] if isinstance(obj, list) else []
    return next(filter(None, (_first_non_finite(v, where) for where, v in items)), None)


def _load(cls, path: str, what: str):
    """Decode ``cls`` from the JSON file at ``path``, or exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_plain(cls, json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:  # deep nesting recurses
        raise CliError(f"cannot load {what} {path}: {exc}", EXIT_PARSE) from exc


def _space(args) -> SpaceDescriptor:
    return _load(SpaceDescriptor, args.space, "space descriptor") if args.space else DEFAULT_SPACE


def _tech(args) -> TechParams:
    return _load(TechParams, args.tech, "tech params") if args.tech else default_tech()


def _point(args, space: SpaceDescriptor) -> DesignPoint:
    point = _load(DesignPoint, args.point, "design point")
    report = validate(point, space)
    if not report.ok:
        raise CliError(
            "design point fails validation:\n  " + "\n  ".join(report.violations),
            EXIT_VALIDATION,
        )
    return point


def cmd_space(args) -> int:
    space = _space(args)
    if args.action == "count":
        if args.report:
            _dump(cardinality_report(space))
        else:
            print(cardinality(space))
        return EXIT_OK
    # sample
    for i in range(args.num):
        point = sample_random(derive_seed(args.seed, "cli-sample", i), space)
        print(canonical_json(point))
    return EXIT_OK


def cmd_map(args) -> int:
    point = _point(args, _space(args))
    mm = map_model(point)
    _dump(mm.to_dict())
    return EXIT_OK


def cmd_simulate(args) -> int:
    point = _point(args, _space(args))
    tech = _tech(args)
    mm = map_model(point)
    cost = model_cost(mm, tech)
    lookup = default_lookup_model(tech, point.model.num_sparse_features, args.seed)
    report = simulate(mm, tech, lookup_model=lookup, overlap=not args.no_overlap)
    timeline = schedule(
        mm, tech, overlap=not args.no_overlap, lookup_time=lookup.latencies[0]
    )
    payload = {"cost": cost.to_dict(), "throughput": report.to_dict(), "timeline": timeline.to_dict()}
    found = _first_non_finite(payload)
    if found:  # the default profile is finite, so only a --tech file gets here
        raise CliError(f"tech params {args.tech} give a value that is not finite: {found}", EXIT_PARSE)
    if args.csv:  # written first, so a bad path exits 2 before any output
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(cost.to_csv())
        except OSError as exc:  # a directory, or under a missing one
            raise CliError(f"cannot write cost CSV {args.csv}: {exc}", EXIT_PARSE) from exc
    _dump(payload)
    return EXIT_OK


def cmd_search(args) -> int:
    space = _space(args)
    tech = _tech(args)
    cfg = _load(SearchConfig, args.search_config, "search config")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    external = None
    if args.external:
        try:
            external = ingest_external(args.external, logger=logger)
        except (OSError, ValueError, csv.Error) as exc:  # ParseError names the line
            raise CliError(f"cannot load external losses {args.external}: {exc}", EXIT_PARSE) from exc

    out_dir = Path(args.out)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # innermost first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a path component that is a file, or no permission
        raise CliError(f"cannot create output directory {out_dir}: {exc}", EXIT_PARSE) from exc

    manifest = {
        "command": "search",
        "config_paths": {
            "search_config": str(args.search_config),
            "space": str(args.space) if args.space else "<default>",
            "tech": str(args.tech) if args.tech else "<default>",
            "external_losses": str(args.external) if args.external else None,
        },
        "seed": cfg.seed,
        "tool_version": __version__,
        "output_directory": str(out_dir),
    }
    loss_fn = default_loss(SurrogateParams(seed=cfg.seed), external=external)
    metric_fn = default_hw_metrics(tech, space, seed=cfg.seed)
    written = []  # the files this run opened, removed again if it aborts
    try:
        with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            written.append(fh.name)
            _dump(manifest, fh)  # manifest lands before any result file
        with open(out_dir / "criterion.csv", "w", encoding="utf-8") as csv_fh:
            written.append(csv_fh.name)
            csv_fh.write("# manifest=manifest.json\n")
            csv_fh.write("generation,best,median\n")

            def flush_generation(record):
                csv_fh.write(f"{record.generation},{record.best!r},{record.median!r}\n")
                csv_fh.flush()

            result = run_search(cfg, loss_fn, metric_fn, space, on_generation=flush_generation)
        with open(out_dir / "search_log.json", "w", encoding="utf-8") as fh:
            written.append(fh.name)
            _dump({**result.log.to_dict(), "_manifest": "manifest.json"}, fh)
        top = {
            "_manifest": "manifest.json",
            "entries": [
                {
                    "rank": rank,
                    "point_id": e.point_id,
                    "loss": e.loss,
                    "metrics": list(e.metrics),
                    "criterion": e.criterion,
                    "point": e.point.to_dict(),
                }
                for rank, e in enumerate(result.top_entries, start=1)
            ],
        }
        with open(out_dir / "top_points.json", "w", encoding="utf-8") as fh:
            written.append(fh.name)
            _dump(top, fh)
    except Exception as exc:  # an aborted search leaves nothing it wrote behind
        for name in written:
            os.remove(name)
        for d in created:
            d.rmdir()
        cause = exc.__cause__ if isinstance(exc, SearchAborted) else None
        if isinstance(cause, CriterionOverflow):  # the config's weights scale the tech's metrics
            inputs = f"search config {args.search_config}"
            if args.tech:
                inputs += f" with tech params {args.tech}"
            raise CliError(f"{inputs} gives a criterion that is not finite: {cause}", EXIT_PARSE) from exc
        if isinstance(cause, OverflowError):
            msg = f"tech params {args.tech} give a value that is not finite: {cause}"
            raise CliError(msg, EXIT_PARSE) from exc
        raise

    print(f"search complete: best criterion {result.top_entries[0].criterion!r}")
    print(f"results in {out_dir}")
    return EXIT_OK


def nonnegative_int(text: str) -> int:
    if (n := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pimdse",
        description="Design-space exploration for PIM recommender accelerators",
    )
    parser.add_argument("--version", action="version", version=f"pimdse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="inspect or sample the design space")
    space_sub = p_space.add_subparsers(dest="action", required=True)
    p_count = space_sub.add_parser("count", help="print the exact cardinality")
    p_count.add_argument("--space", help="space descriptor JSON")
    p_count.add_argument("--report", action="store_true", help="emit the counting-convention report")
    p_count.set_defaults(func=cmd_space)
    p_sample = space_sub.add_parser("sample", help="print random design points")
    p_sample.add_argument("--space", help="space descriptor JSON")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("-n", "--num", type=nonnegative_int, default=1)
    p_sample.set_defaults(func=cmd_space)

    p_map = sub.add_parser("map", help="map a design point onto engines and tiles")
    p_map.add_argument("--point", required=True)
    p_map.add_argument("--space", help="space descriptor JSON")
    p_map.set_defaults(func=cmd_map)

    p_sim = sub.add_parser("simulate", help="cost and pipeline reports for a point")
    p_sim.add_argument("--point", required=True)
    p_sim.add_argument("--tech", help="technology parameter JSON")
    p_sim.add_argument("--space", help="space descriptor JSON")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--no-overlap", action="store_true", help="serialize engine programming")
    p_sim.add_argument("--csv", help="also write the cost report as CSV to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_search = sub.add_parser("search", help="run the evolutionary search")
    p_search.add_argument("--search-config", required=True)
    p_search.add_argument("--space", help="space descriptor JSON")
    p_search.add_argument("--tech", help="technology parameter JSON")
    p_search.add_argument("--external", help="CSV of externally measured losses")
    p_search.add_argument("--out", required=True, help="output directory")
    p_search.add_argument("--seed", type=int, help="override the config seed")
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PIMDSE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # as Python's SIGPIPE note advises, the unwritten rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # noqa: BLE001
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
