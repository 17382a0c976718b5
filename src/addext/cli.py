"""Command-line front end.

Subcommands: build-source, profile, extract, verify, charsum. Inputs are JSON
files read key by key by sources.read_object and its typed readers, which
refuse what the packaged schemas refuse; outputs are CSV/JSON plus a run
manifest recording input digests, seed, version and timing.

Exit codes: 0 = all checked bounds satisfied, 1 = a checked bound failed (the
failing rows are reported), 2 = input or budget error (no partial CSV). A
sweep row that fails, whatever it raises, is recorded, the other rows are
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
from typing import Iterable

import numpy as np

from . import __version__, analysis, extractors as ex, sources as src, suites
from .canonical import canonical_json, digest
from .errors import AddextError, InputError
from .numtheory import to_digits


_INPUT_DIGESTS: dict[str, str] = {}


def _load_validated(path: str) -> dict:
    """The JSON document at ``path``, its digest recorded for the run manifest.
    A document nested too deeply to load or digest is an ``InputError``; what
    it holds is checked by the readers of sources and suites."""
    try:
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:  # malformed JSON, or an int past 4,300 digits
                raise InputError(f"{path}: {exc}") from None
        _INPUT_DIGESTS[path] = digest(obj)
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
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


def _manifest(args, argv: list[str], inputs: list[str], outputs: list[str], started: str,
              elapsed: float) -> None:
    _write_json(outputs[0] + ".manifest.json", {
        "command": " ".join(argv),
        "inputs": {p: _INPUT_DIGESTS[p] for p in inputs},
        "seed": args.seed,
        "threads": args.threads,
        "version": __version__,
        "started_utc": started,
        "elapsed_seconds": elapsed,
        "outputs": outputs,
    })


def _load_source(path: str) -> src.Source:
    """The source a source file describes, built from its spec. An
    ``elements`` list must be the elements built, and a ``size`` or
    ``digest`` that of the source built (InputError otherwise); with a list,
    the file's notes are kept."""
    obj = src.read_object(_load_validated(path), f"source file {path}", {
        "group": lambda v, _: src.Group.from_json(v), "spec": lambda v, _: src.spec_from_json(v),
        "elements": src._element_array, "size": src.json_int, "digest": None,
        "notes": src.json_object}, ("elements", "size", "digest", "notes"))
    X = src.build_source(obj["spec"], obj["group"])
    if "elements" in obj:
        listed = obj["elements"]
        if not (isinstance(listed, np.ndarray) and listed.shape[1:] == X.elements.shape[1:]
                and np.array_equal(src._sorted_unique(listed), X.elements)):
            raise InputError(f"{path}: the elements are not the {len(X)} elements that its "
                             f"{X.spec.variant} spec builds")
        X = src.Source(X.group, X.spec, X.elements, dict(obj.get("notes", {})))
    if "size" in obj and obj["size"] != len(X):
        raise InputError(f"{path}: size {obj['size']} is not the {len(X)} elements built")
    if "digest" in obj and obj["digest"] != X.digest:
        raise InputError(f"{path}: digest {obj['digest']} is not the digest {X.digest} "
                         f"of the elements built")
    return X


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each command returns its exit code, its input files and its output files;
# main writes the run manifest next to the first output, if there is one.
Outcome = tuple[int, list[str], list[str]]


def cmd_build_source(args) -> Outcome:
    X = _load_source(args.spec)
    _write_json(args.out, X.to_json())
    return 0, [args.spec], [args.out]


def cmd_profile(args) -> Outcome:
    X = _load_source(args.source)
    prof = src.additive_profile(X, args.alpha).to_json()
    prof["source_digest"] = X.digest
    if not args.out:
        print(canonical_json(prof))
        return 0, [args.source], []
    _write_json(args.out, prof)
    return 0, [args.source], [args.out]


def cmd_extract(args) -> Outcome:
    t0 = time.perf_counter()
    X = _load_source(args.source)
    cfg = ex.build_for_group(args.extractor, X.group, args.m)
    outputs, report = analysis.evaluate(X, cfg)
    report.extra["config"] = cfg.to_json()
    report.seconds = time.perf_counter() - t0
    with open(args.out, "w", newline="") as fh:
        fh.write("element,output\r\n" + _element_rows(X.group, X.elements, outputs, "%d"))
    _write_json(args.out + ".report.json", report.to_json())
    return 0, [args.source], [args.out, args.out + ".report.json"]


def cmd_charsum(args) -> Outcome:
    X = _load_source(args.source)
    grp = X.group
    order = grp.order
    try:  # all: every nonzero frequency, 1:order
        lo, hi = (1, order) if args.characters == "all" else \
            (int(t) for t in args.characters.split(":"))
    except ValueError as exc:
        raise InputError("--characters expects 'all' or 'lo:hi'") from exc
    if not 0 <= lo < hi <= order:
        raise InputError("character range out of bounds")
    src.check_cost("the --characters range", held=hi - lo)
    freq_idx = range(lo, hi)
    mags = analysis.charsum_table(analysis.character_digits(X), grp.zmn[0], freq_idx)
    step = analysis.CHARSUM_CHUNK  # rows are made and written this many at a time
    with open(args.out, "w", newline="") as fh:
        fh.write("frequency,magnitude\r\n")
        for lo in range(0, len(freq_idx), step):
            freqs = grp.from_digits(to_digits(freq_idx[lo:lo + step], *grp.zmn))
            fh.write(_element_rows(grp, freqs, mags[lo:lo + step], "%.17g"))
    return 0, [args.source], [args.out]


def _element_rows(group: src.Group, elements: np.ndarray, values: np.ndarray, cell: str) -> str:
    """The CSV rows (as the csv module writes them) of an element array and
    a value per element: each element's canonical JSON, quoted where it
    holds a comma, and its value formatted by ``cell`` (a %-format, as
    _cell formats a float for "%.17g"). One %-format of all rows, its
    arguments the columns interleaved by slice assignments."""
    count = len(elements)
    columns = [*elements.reshape(count, -1).T, values]
    args = [None] * (count * len(columns))
    for j, column in enumerate(columns):
        args[j::len(columns)] = column.tolist()
    element = "%d" if group.kind in ("zp", "zn") else "[" + ",".join(["%d"] * group.n) + "]"
    if "," in element:
        element = f'"{element}"'
    return f"{element},{cell}\r\n" * count % tuple(args)


def cmd_verify(args) -> Outcome:
    grid = _load_validated(args.grid) if args.grid else {}
    if args.suite == "sweep":  # a sweep's grid has rows, a named suite's its kwargs
        # each row is read by the sweep, so that a faulty row is that row's error
        rows = src.read_object(grid, "grid", {"rows": src._list_of(lambda row, _: row)})["rows"]
        result = suites.suite_sweep(rows, threads=args.threads)
        header, records = analysis.CSV_COLUMNS, [r.to_json() for r in result.rows]
        summary = {"suite": "sweep", "ok": result.ok, "failures": result.failures,
                   "rows": records}
    else:
        fn = suites.SUITES[args.suite]
        kwargs = src.read_object(grid, "grid", {"kwargs": src.json_object},
                                 ("kwargs",)).get("kwargs", {})
        if "seed" in fn.checks:
            kwargs = {"seed": args.seed, **kwargs}
        result = fn(**kwargs)
        records, summary = result.rows, result.to_json()
        header = sorted({k for row in records for k in row})
    _write_csv(args.out, header, ([_cell(r.get(k)) for k in header] for r in records))
    _write_json(args.out + ".summary.json", summary)
    code = 0
    if not result.ok:
        for f in result.failures[:10]:
            print(f"FAIL {args.suite}: {canonical_json(f)}", file=sys.stderr)
        if args.suite == "sweep":  # rows that ran, in grid order, past the failed rows
            errors = {f["grid_index"] for f in result.failures}
            ran = (i for i in range(len(rows)) if i not in errors)
            for i, r in zip(ran, result.rows):
                if r.asserted and not r.ok:
                    print("FAIL sweep: " + canonical_json(
                        {"grid_index": i, "config_digest": r.config_digest,
                         "source_digest": r.source_digest, "distance": r.distance,
                         "bound": r.bound}), file=sys.stderr)
        # a failed sweep row is an input fault, whatever it raised
        code = 2 if args.suite == "sweep" and result.failures else 1
    return code, [args.grid] if args.grid else [], [args.out]


def _cell(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{float(v):.17g}"  # a numpy float64 formats slower than a float
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on the first call, then shared by
    every main call, so that in-process commands leave no parser behind."""
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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    started, t0 = _utcnow(), time.perf_counter()
    try:
        code, inputs, outputs = args.fn(args)
        if outputs:
            _manifest(args, argv, inputs, outputs, started, time.perf_counter() - t0)
        return code
    except (AddextError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
