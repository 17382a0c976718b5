"""Command-line front end.

Subcommands: build-source, profile, extract, verify, charsum. Inputs are JSON
files validated against the packaged schemas; outputs are CSV/JSON plus a run
manifest recording input digests, seed, version and timing.

Exit codes: 0 = all checked bounds satisfied, 1 = a checked bound failed (the
failing rows are reported), 2 = input or budget error (no partial CSV). A
sweep row with an input or budget error is recorded, the other rows are
written, and the sweep exits 2 even if a bound failed too.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import inspect
import json
import os
import sys
import time
from importlib import resources

import jsonschema

from . import __version__, analysis, extractors as ex, sources as src, suites
from .canonical import canonical_json, digest
from .errors import AddextError, BudgetError, InputError


def _schema(name: str) -> dict:
    text = resources.files("addext.schemas").joinpath(name).read_text()
    return json.loads(text)


_INPUT_DIGESTS: dict[str, str] = {}


def _load_validated(path: str, schema_name: str) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    jsonschema.validate(obj, _schema(schema_name))
    _INPUT_DIGESTS[path] = digest(obj)
    return obj


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")


def _manifest(args, inputs: list[str], outputs: list[str], started: str,
              elapsed: float) -> None:
    out = outputs[0] + ".manifest.json"
    _write_json(out, {
        "command": " ".join(sys.argv[1:]) if sys.argv[1:] else args.command,
        "inputs": {p: _INPUT_DIGESTS[p] for p in inputs},
        "seed": getattr(args, "seed", None),
        "threads": getattr(args, "threads", None),
        "version": __version__,
        "started_utc": started,
        "elapsed_seconds": elapsed,
        "outputs": outputs,
    })


def _load_source(path: str) -> src.Source:
    obj = _load_validated(path, "source.v1.json")
    group = src.Group.from_json(obj["group"])
    if "elements" in obj:
        spec = src.ExplicitSpec(tuple(src._elem_from_json(x) for x in obj["elements"]))
        built = src.build_source(spec, group)
        declared = src.spec_from_json(obj["spec"]) if "spec" in obj else spec
        return src.Source(group, declared, built.elements, dict(obj.get("notes", {})))
    return src.build_source(src.spec_from_json(obj["spec"]), group)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build_source(args) -> int:
    started = _utcnow()
    t0 = time.perf_counter()
    X = _load_source(args.spec)
    _write_json(args.out, X.to_json())
    _manifest(args, [args.spec], [args.out], started, time.perf_counter() - t0)
    return 0


def cmd_profile(args) -> int:
    started = _utcnow()
    t0 = time.perf_counter()
    X = _load_source(args.source)
    prof = src.additive_profile(X, args.alpha).to_json()
    prof["source_digest"] = X.digest
    if args.out:
        _write_json(args.out, prof)
        _manifest(args, [args.source], [args.out], started, time.perf_counter() - t0)
    else:
        print(canonical_json(prof))
    return 0


def cmd_extract(args) -> int:
    started = _utcnow()
    t0 = time.perf_counter()
    X = _load_source(args.source)
    cfg = ex.build_for_group(args.extractor, X.group, args.m)
    outputs = ex.extract_many(cfg, X.sorted_elements)
    rows = [[canonical_json(src._elem_json(x)), y]
            for x, y in zip(X.sorted_elements, outputs)]
    dist = analysis.extractor_distribution(outputs, ex.output_size(cfg))
    report = analysis.EvalReport(
        config_digest=digest(cfg.to_json()), source_digest=X.digest, size=len(X),
        distance=analysis.distance_to_uniform(dist),
        extra={"outputs": dist.counts, "config": cfg.to_json()})
    report.seconds = time.perf_counter() - t0
    _write_csv(args.out, ["element", "output"], rows)
    _write_json(args.out + ".report.json", report.to_json())
    _manifest(args, [args.source], [args.out, args.out + ".report.json"],
              started, time.perf_counter() - t0)
    return 0


def cmd_charsum(args) -> int:
    started = _utcnow()
    t0 = time.perf_counter()
    X = _load_source(args.source)
    grp = X.group
    order = grp.order
    if args.characters == "all":
        if order > suites.CHARSUM_SCAN_CAP:
            raise InputError(f"group order {order} too large for --characters all; "
                             f"use a range a:b")
        freq_idx = range(1, order)
    else:
        try:
            lo, hi = (int(t) for t in args.characters.split(":"))
        except ValueError as exc:
            raise InputError("--characters expects 'all' or 'lo:hi'") from exc
        if not 0 <= lo < hi <= order:
            raise InputError("character range out of bounds")
        budget = src.element_budget()
        if hi - lo > budget:
            raise BudgetError(f"character range of {hi - lo} frequencies exceeds "
                              f"the element budget {budget}")
        freq_idx = range(lo, hi)
    if grp.kind in ("zp", "zn"):
        mags = analysis.charsum_table(list(X.elements), order, freq_idx)
    else:
        mags = analysis.vector_charsum_table(X, freq_idx)
    rows = [[canonical_json(src._elem_json(grp.element_from_index(i))), analysis.fmt17(v)]
            for i, v in zip(freq_idx, mags)]
    _write_csv(args.out, ["frequency", "magnitude"], rows)
    _manifest(args, [args.source], [args.out], started, time.perf_counter() - t0)
    return 0


def cmd_verify(args) -> int:
    started = _utcnow()
    t0 = time.perf_counter()
    grid = _load_validated(args.grid, "grid.v1.json") if args.grid else {}
    if args.suite == "sweep":
        rows = grid.get("rows")
        if rows is None:
            raise InputError("sweep requires a grid file with a 'rows' list")
        result = suites.suite_sweep(rows, threads=args.threads)
        csv_rows = [r.csv_row() for r in result.rows]
        _write_csv(args.out, analysis.CSV_COLUMNS, csv_rows)
        _write_json(args.out + ".summary.json",
                    {"suite": "sweep", "ok": result.ok, "failures": result.failures,
                     "rows": [r.to_json() for r in result.rows]})
    else:
        fn = suites.SUITES.get(args.suite)
        if fn is None:
            raise InputError(f"unknown suite {args.suite!r}")
        kwargs = dict(grid.get("kwargs", {}))
        sig = inspect.signature(fn)
        if "seed" in sig.parameters and "seed" not in kwargs and args.seed is not None:
            kwargs["seed"] = args.seed
        result = fn(**kwargs)
        header = sorted({k for row in result.rows for k in row})
        csv_rows = [[_cell(row.get(k)) for k in header] for row in result.rows]
        _write_csv(args.out, header, csv_rows)
        _write_json(args.out + ".summary.json", result.to_json())
    _manifest(args, [args.grid] if args.grid else [], [args.out],
              started, time.perf_counter() - t0)
    if not result.ok:
        for f in result.failures[:10]:
            print(f"FAIL {args.suite}: {canonical_json(f)}", file=sys.stderr)
        return 2 if result.input_errors else 1
    return 0


def _cell(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return analysis.fmt17(v)
    if isinstance(v, (dict, list, tuple)):
        return canonical_json(v)
    return v


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).replace(
        microsecond=0).isoformat()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1,
                        help="master seed recorded in the run manifest (default 1)")
    common.add_argument("--threads", type=_positive_int, default=os.cpu_count(),
                        help="recorded in the run manifest; sweeps run their "
                             "rows in grid order on one thread "
                             "(default: available parallelism)")

    ap = argparse.ArgumentParser(
        prog="addext",
        description="Extractors for structured additive sources and an exact "
                    "verification harness.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-source", parents=[common],
                       help="materialize a source spec to JSON")
    b.add_argument("--spec", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build_source)

    p = sub.add_parser("profile", parents=[common],
                       help="measured additive profile of a source")
    p.add_argument("--source", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_profile)

    e = sub.add_parser("extract", parents=[common],
                       help="run an extractor over a source")
    e.add_argument("--source", required=True)
    e.add_argument("--extractor", required=True,
                   choices=list(ex.GROUP_KINDS))
    e.add_argument("--m", type=int, default=1, help="output bits (default 1)")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_extract)

    v = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    v.add_argument("--suite", required=True,
                   choices=sorted(suites.SUITES) + ["sweep"])
    v.add_argument("--grid", help="JSON grid: suite kwargs or sweep rows")
    v.add_argument("--out", required=True)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("charsum", parents=[common],
                       help="character-sum table of a source")
    c.add_argument("--source", required=True)
    c.add_argument("--characters", default="all", help="'all' or 'lo:hi'")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_charsum)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AddextError, jsonschema.ValidationError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
