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
import functools
import json
import os
import sys
import time
from importlib import resources
from typing import Iterable

import jsonschema
from jsonschema import Draft7Validator
from jsonschema.exceptions import best_match

from . import __version__, analysis, extractors as ex, sources as src, suites
from .canonical import canonical_json, digest
from .errors import AddextError, InputError
from .numtheory import to_digits


def _schema(name: str) -> dict:
    text = resources.files("addext.schemas").joinpath(name).read_text()
    return json.loads(text)


_ELEMENT_REF = {"$ref": "#/definitions/element"}
_DRAFT7_ITEMS = Draft7Validator.VALIDATORS["items"]


def _plain_element(x) -> bool:
    """A JSON int >= 0 or a list of them: accepted by the element schema."""
    if type(x) is int:
        return x >= 0
    return type(x) is list and all(type(a) is int and a >= 0 for a in x)


def _items(validator, items, instance, schema):
    """Draft-7 ``items``, except that a list of plain elements against the
    element schema yields no errors without a descent per entry. Anything
    else (floats, bools, strings, ...) goes through the Draft-7 rule, so
    every error is jsonschema's own."""
    if items == _ELEMENT_REF and type(instance) is list and all(map(_plain_element, instance)):
        return
    yield from _DRAFT7_ITEMS(validator, items, instance, schema)


_Validator = jsonschema.validators.extend(Draft7Validator, {"items": _items})


@functools.cache
def _validator(name: str):
    """The packaged schema ``name``, compiled once per process."""
    return _Validator(_schema(name))


_INPUT_DIGESTS: dict[str, str] = {}


def _load_validated(path: str, schema_name: str) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # malformed JSON, or an int past 4,300 digits
            raise InputError(f"{path}: {exc}") from None
    error = best_match(_validator(schema_name).iter_errors(obj))
    if error is not None:
        raise error
    _INPUT_DIGESTS[path] = digest(obj)
    return obj


def _write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
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
    _write_json(outputs[0] + ".manifest.json", {
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

# Each command returns its exit code, its input files and its output files;
# main writes the run manifest next to the first output, if there is one.
Outcome = tuple[int, list[str], list[str]]


def cmd_build_source(args, t0: float) -> Outcome:
    X = _load_source(args.spec)
    _write_json(args.out, X.to_json())
    return 0, [args.spec], [args.out]


def cmd_profile(args, t0: float) -> Outcome:
    X = _load_source(args.source)
    prof = src.additive_profile(X, args.alpha).to_json()
    prof["source_digest"] = X.digest
    if not args.out:
        print(canonical_json(prof))
        return 0, [args.source], []
    _write_json(args.out, prof)
    return 0, [args.source], [args.out]


def cmd_extract(args, t0: float) -> Outcome:
    X = _load_source(args.source)
    cfg = ex.build_for_group(args.extractor, X.group, args.m)
    outputs = ex.extract_many(cfg, X.sorted_elements)
    rows = [[src._elem_text(x), y] for x, y in zip(X.sorted_elements, outputs)]
    dist = analysis.extractor_distribution(outputs, ex.output_size(cfg))
    report = analysis.EvalReport(
        config_digest=digest(cfg.to_json()), source_digest=X.digest, size=len(X),
        distance=analysis.distance_to_uniform(dist),
        extra={"outputs": dist.counts, "config": cfg.to_json()})
    report.seconds = time.perf_counter() - t0
    _write_csv(args.out, ["element", "output"], rows)
    _write_json(args.out + ".report.json", report.to_json())
    return 0, [args.source], [args.out, args.out + ".report.json"]


def cmd_charsum(args, t0: float) -> Outcome:
    X = _load_source(args.source)
    grp = X.group
    order = grp.order
    if args.characters == "all":
        if order > suites.CHARSUM_SCAN_CAP:
            raise InputError(f"--characters all takes groups of order at most "
                             f"{suites.CHARSUM_SCAN_CAP}; use a range a:b")
        freq_idx = range(1, order)
    else:
        try:
            lo, hi = (int(t) for t in args.characters.split(":"))
        except ValueError as exc:
            raise InputError("--characters expects 'all' or 'lo:hi'") from exc
        if not 0 <= lo < hi <= order:
            raise InputError("character range out of bounds")
        src.check_cost("the --characters range", held=hi - lo)
        freq_idx = range(lo, hi)
    mags = analysis.charsum_table(analysis.character_digits(X), grp.zmn[0], freq_idx)
    step = analysis.CHARSUM_CHUNK  # rows are made and written this many at a time
    rows = ([src._elem_text(x), analysis.fmt17(v)] for lo in range(0, len(freq_idx), step)
            for x, v in zip(grp.from_digits(to_digits(freq_idx[lo:lo + step], *grp.zmn)),
                            mags[lo:lo + step]))
    _write_csv(args.out, ["frequency", "magnitude"], rows)
    return 0, [args.source], [args.out]


def cmd_verify(args, t0: float) -> Outcome:
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
        fn = suites.SUITES[args.suite]
        kwargs = dict(grid.get("kwargs", {}))
        if "seed" in fn.checks:
            kwargs.setdefault("seed", args.seed)
        result = fn(**kwargs)
        header = sorted({k for row in result.rows for k in row})
        csv_rows = [[_cell(row.get(k)) for k in header] for row in result.rows]
        _write_csv(args.out, header, csv_rows)
        _write_json(args.out + ".summary.json", result.to_json())
    code = 0
    if not result.ok:
        for f in result.failures[:10]:
            print(f"FAIL {args.suite}: {canonical_json(f)}", file=sys.stderr)
        if args.suite == "sweep":  # rows that ran, in grid order, past the row errors
            errors = {f["grid_index"] for f in result.failures}
            ran = (i for i in range(len(rows)) if i not in errors)
            for i, r in zip(ran, result.rows):
                if r.asserted and not r.ok:
                    print("FAIL sweep: " + canonical_json(
                        {"grid_index": i, "config_digest": r.config_digest,
                         "source_digest": r.source_digest, "distance": r.distance,
                         "bound": r.bound}), file=sys.stderr)
        code = 2 if result.input_errors else 1
    return code, [args.grid] if args.grid else [], [args.out]


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
    started, t0 = _utcnow(), time.perf_counter()
    try:
        code, inputs, outputs = args.fn(args, t0)
        if outputs:
            _manifest(args, inputs, outputs, started, time.perf_counter() - t0)
        return code
    except (AddextError, jsonschema.ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
