"""Reference check of the CLI's outputs.

Each output file is reduced to a fingerprint:

* its discrete content (integers, strings, booleans, keys, row order and the
  positions of the floats) is digested exactly: extract CSVs, source JSON,
  profile integers, config and source digests, ``ok`` verdicts;
* its finite floats (character-sum magnitudes, distances, bounds, ratios)
  are kept as weighted sums over chunks of ``CHUNK`` values. Two chunks agree
  when their sums differ by at most the sum of the per-value tolerance
  ``RTOL * max(1, |v|)`` times the weights, so a route that changes values by
  ~1e-16 passes and a value off by more than ~1e-7 (for values of order 1)
  fails;
* timing fields are dropped: the ``seconds`` CSV column and JSON key,
  ``elapsed_seconds`` and ``started_utc``.

``references.json`` holds the fingerprints of every command's outputs and its
exit code, for every input variant of every workload, as recorded with

    python3 benchmarks/reference.py --record

at the commit that introduced the benchmark. Re-record only when an output
is meant to change.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

RTOL = 1e-9
CHUNK = 64
TIMING_KEYS = frozenset({"seconds", "elapsed_seconds", "started_utc"})
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _typed(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def _load(path: str):
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            return []
        keep = [i for i, h in enumerate(rows[0]) if h not in TIMING_KEYS]
        return [[rows[0][i] for i in keep]] + [[_typed(r[i]) for i in keep] for r in rows[1:]]
    with open(path) as fh:
        return _drop_timing(json.load(fh))


def _drop_timing(obj):
    if isinstance(obj, dict):
        return {k: _drop_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_drop_timing(v) for v in obj]
    return obj


def _split_floats(obj, floats: list):
    """The object with each finite float replaced by a marker; floats collected."""
    if isinstance(obj, float) and math.isfinite(obj):
        floats.append(obj)
        return "<float>"
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _split_floats(v, floats) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_split_floats(v, floats) for v in obj]
    return obj


def _chunks(floats: list[float]):
    for lo in range(0, len(floats), CHUNK):
        part = floats[lo:lo + CHUNK]
        weights = [1 + j / CHUNK for j in range(len(part))]
        yield (sum(w * v for w, v in zip(weights, part)),
               sum(w * RTOL * max(1.0, abs(v)) for w, v in zip(weights, part)))


def _reduce(path: str) -> tuple[str, list[float]]:
    """Digest of the file's discrete content, and its finite floats in order."""
    floats: list[float] = []
    exact = _split_floats(_load(path), floats)
    blob = json.dumps(exact, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest(), floats


def fingerprint(path: str) -> dict:
    digest, floats = _reduce(path)
    return {"digest": digest, "floats": len(floats), "sketch": [s for s, _ in _chunks(floats)]}


def command_files(argv: list[str], outdir: str) -> list[str]:
    """Output files of a command: its ``--out`` file and the files named after it."""
    out = argv[argv.index("--out") + 1]
    return sorted(f for f in os.listdir(outdir) if f.startswith(out))


def fingerprints(argv: list[str], outdir: str) -> dict:
    return {f: fingerprint(os.path.join(outdir, f)) for f in command_files(argv, outdir)}


def compare(expected: dict, argv: list[str], outdir: str) -> list[str]:
    """Mismatches between a command's outputs in ``outdir`` and its reference."""
    problems = []
    files = command_files(argv, outdir)
    if files != sorted(expected):
        problems.append(f"output files {files} != {sorted(expected)}")
    for name in files:
        if name not in expected:
            continue
        ref = expected[name]
        digest, floats = _reduce(os.path.join(outdir, name))
        if digest != ref["digest"]:
            problems.append(f"{name}: discrete content differs")
            continue
        for i, ((got, tol), want) in enumerate(zip(_chunks(floats), ref["sketch"])):
            if abs(got - want) > tol:
                problems.append(f"{name}: floats {i * CHUNK}..{(i + 1) * CHUNK - 1} "
                                f"differ (sum {got!r} vs {want!r})")
                break
    return problems


def load() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def main() -> int:
    """Record the references of every variant (or the chosen ones)."""
    import run
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", action="store_true", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    ap.add_argument("--variant", type=int, action="append")
    args = ap.parse_args()
    refs = load() if os.path.exists(REFERENCES) else {}
    refs.update({"rtol": RTOL, "chunk": CHUNK, "variants": workloads.VARIANTS})
    for wl in args.workload or workloads.WORKLOADS:
        for v in args.variant or range(workloads.VARIANTS):
            with run.Scratch(f"record-{wl}-{v}") as work:
                commands = workloads.build(wl, v, work.inputs)
                outdir = work.new_pass()
                _, result = run.run_pass(commands, work, outdir)
                recorded = {}
                for cmd, rec in zip(commands, result["commands"]):
                    if rec["exit"] != 0 or rec["traceback"]:
                        raise SystemExit(f"{wl} variant {v}: {cmd['name']} failed:\n"
                                         f"{rec['stderr']}")
                    recorded[cmd["name"]] = {"exit": rec["exit"],
                                             "files": fingerprints(cmd["argv"], outdir)}
            refs.setdefault("workloads", {}).setdefault(wl, {})[str(v)] = recorded
            print(f"recorded {wl} variant {v}", file=sys.stderr)
            with open(REFERENCES, "w") as fh:
                json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
