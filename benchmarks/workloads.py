"""Seeded inputs for the four benchmark workloads.

``build(workload, seed, indir)`` writes every source and grid the workload
needs as JSON under ``indir`` and returns the CLI commands of one pass. The
program only ever sees these files: sources are explicit element lists or
the paper's structured specs (GAP, AP, Bohr, line), never a program-side
``random`` spec.

Inputs come from ``random.Random("<workload>:<seed % VARIANTS>")``, so the
same seed always gives the same inputs and ``references.json`` can hold the
expected outputs of every variant. Sizes are fixed per command and only the
content (offsets, steps, frequencies, points) changes with the seed, so the
work of a pass does not depend on the seed.

Every modulus below is prime (the program does not check that ``Group.zp``
gets a prime, so the benchmark checks its own inputs with ``is_prime``).
"""

from __future__ import annotations

import json
import math
import os
import random

VARIANTS = 16
WORKLOADS = ("extract", "diagnose", "sweep", "verify")
SWEEP_THREADS = 2

SUITES = ("weil", "partial-ap", "l1", "xor", "lines", "gap-profile", "bohr",
          "cauchy-davenport", "transport", "zp-trend", "moments", "norms")


def variant_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed % VARIANTS}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_moduli(obj) -> None:
    """Every prime the inputs name must be prime: ``Group`` accepts a composite p."""
    if isinstance(obj, dict):
        if obj.get("kind") in ("zp", "zp_vec", "fq_vec", "all_aps") and not _is_prime(obj["p"]):
            raise ValueError(f"benchmark input names a composite modulus: {obj}")
        for v in obj.values():
            _check_moduli(v)
    elif isinstance(obj, list):
        for v in obj:
            _check_moduli(v)


# ---------------------------------------------------------------------------
# source helpers
# ---------------------------------------------------------------------------

def _explicit(group: dict, elements: list) -> dict:
    return {"group": group, "spec": {"variant": "explicit", "elements": elements}}


def _vectors(rng: random.Random, count: int, base: int, n: int) -> list[list[int]]:
    # coordinate-wise sampling: rng.sample(range(base**n)) overflows past 2^63
    seen: set[tuple] = set()
    out = []
    while len(out) < count:
        v = tuple(rng.randrange(base) for _ in range(n))
        if v not in seen:
            seen.add(v)
            out.append(list(v))
    return out


def _nonzero_vector(rng: random.Random, base: int, n: int) -> list[int]:
    while True:
        v = [rng.randrange(base) for _ in range(n)]
        if any(v):
            return v


def _gap(rng: random.Random, p: int, r: int, s: int) -> dict:
    """A proper GAP: all s^r sums distinct, so its size (and the cost of every
    diagnostic on it) is the same for every seed."""
    while True:
        steps = [rng.randrange(1, p) for _ in range(r)]
        sums = {0}
        for b in steps:
            sums = {(x + a * b) % p for x in sums for a in range(s)}
        if len(sums) == s**r:
            return {"variant": "gap", "b0": rng.randrange(p), "steps": steps, "r": r, "s": s}


def _ap(rng: random.Random, p: int, k: int) -> dict:
    return {"variant": "ap", "b0": rng.randrange(p), "step": rng.randrange(1, p), "k": k}


def _bohr_size(freqs: list[int], rho: float, modulus: int) -> int:
    return sum(all(min(f * x % modulus, modulus - f * x % modulus) < rho * modulus
                   for f in freqs) for x in range(modulus))


def _bohr_freqs(rng: random.Random, modulus: int, rho: float, lo: int, hi: int) -> list[int]:
    """Two frequencies coprime to the modulus whose Bohr set has lo..hi elements
    (keeps the cost of the set's diagnostics the same for every seed)."""
    while True:
        freqs = sorted(rng.sample(range(1, modulus), 2))
        if any(math.gcd(f, modulus) != 1 for f in freqs):
            continue
        if lo <= _bohr_size(freqs, rho, modulus) <= hi:
            return freqs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _extract(rng: random.Random) -> tuple[dict, list]:
    fq49 = {"kind": "fq_vec", "p": 7, "k": 2, "n": 6}
    fq32 = {"kind": "fq_vec", "p": 2, "k": 5, "n": 6}
    zp101 = {"kind": "zp_vec", "p": 101, "n": 10}
    z11 = {"kind": "zp_vec", "p": 11, "n": 3}
    inputs = {
        "line_f49.json": _explicit(fq49, _vectors(rng, 300, 49, 6)),
        "line_f32.json": _explicit(fq32, _vectors(rng, 400, 32, 6)),
        "ap_f101.json": _explicit(zp101, _vectors(rng, 300, 101, 10)),
        "pgc_z10007.json": _explicit({"kind": "zp", "p": 10007},
                                     rng.sample(range(10007), 2000)),
        "zp_gap_z4001.json": {"group": {"kind": "zp", "p": 4001},
                              "spec": _gap(rng, 4001, 2, 49)},
        "zpn_z11.json": _explicit(z11, _vectors(rng, 1000, 11, 3)),
    }
    runs = [("line_f49", "line", 1), ("line_f32", "line", 1), ("ap_f101", "ap", 2),
            ("pgc_z10007", "pgc", 3), ("zp_gap_z4001", "zp", 1), ("zpn_z11", "zpn", 1)]
    commands = [{"name": f"extract-{src}",
                 "argv": ["extract", "--source", f"../inputs/{src}.json",
                          "--extractor", kind, "--m", str(m), "--out", f"{src}.csv"]}
                for src, kind, m in runs]
    return inputs, commands


def _diagnose(rng: random.Random) -> tuple[dict, list]:
    z5005 = {"kind": "zn", "moduli": [5, 7, 11, 13]}
    inputs = {
        "bohr_z50021.json": {"group": {"kind": "zp", "p": 50021},
                             "spec": {"variant": "bohr", "rho": 0.3,
                                      "freqs": _bohr_freqs(rng, 50021, 0.3, 17000, 19500)}},
        "gap_z10007.json": {"group": {"kind": "zp", "p": 10007},
                            "spec": _gap(rng, 10007, 2, 60)},
        "random_z10007.json": _explicit({"kind": "zp", "p": 10007},
                                        rng.sample(range(10007), 4805)),
        "bohr_z5005.json": {"group": z5005,
                            "spec": {"variant": "bohr", "rho": 0.1,
                                     "freqs": _bohr_freqs(rng, 5005, 0.1, 180, 220)}},
        "ap_z1000003.json": {"group": {"kind": "zp", "p": 1000003},
                             "spec": _ap(rng, 1000003, 200)},
        "gap_z4001.json": {"group": {"kind": "zp", "p": 4001},
                           "spec": _gap(rng, 4001, 2, 20)},
        "random_z1000003.json": _explicit({"kind": "zp", "p": 1000003},
                                          rng.sample(range(1000003), 1000)),
    }
    commands = [{"name": "build-source-bohr_z50021",
                 "argv": ["build-source", "--spec", "../inputs/bohr_z50021.json",
                          "--out", "bohr_z50021.source.json"]}]
    for src in ("gap_z10007", "random_z10007", "bohr_z5005", "ap_z1000003"):
        commands.append({"name": f"profile-{src}",
                         "argv": ["profile", "--source", f"../inputs/{src}.json",
                                  "--alpha", "0.25", "--out", f"{src}.profile.json"]})
    for src, chars in (("gap_z4001", "all"), ("bohr_z5005", "all"),
                       ("random_z1000003", "1:257")):
        commands.append({"name": f"charsum-{src}",
                         "argv": ["charsum", "--source", f"../inputs/{src}.json",
                                  "--characters", chars, "--out", f"{src}.charsum.csv"]})
    return inputs, commands


# Sweep rows: each slot fixes the group and sizes; the seed picks the content.
_ZP_EXACT = (307, 401, 499, 1009, 1999, 2003)       # q <= 2^16: every frequency
_ZP_SAMPLED = (8009, 10007)                          # q > 2^16: 256 sampled
_ZPN = ((5, 3), (7, 2), (11, 2), (13, 2))
_PGC = (1009, 2003, 4001, 10007)
_LINE_FIELDS = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2),
                (2, 6), (11, 2), (13, 2))            # F_4 ... F_169
_ALL_LINES = (8, 9, 16, 25, 27, 32, 49, 64)
_AP_PRIMES = (11, 13, 17, 19, 23, 29, 31)
_ALL_APS = ((101, 12), (199, 20), (307, 30), (401, 40))


def _sweep_rows(rng: random.Random) -> list[dict]:
    rows = []
    for p in _ZP_EXACT + _ZP_SAMPLED:
        spec = _gap(rng, p, 2, 16) if p in _ZP_EXACT else _ap(rng, p, 400)
        rows.append({"group": {"kind": "zp", "p": p}, "source": spec,
                     "extractor": {"build": "zp", "m": 1}, "alpha": 0.25,
                     "charsum_seed": rng.randrange(1 << 30)})
    for p, n in _ZPN:
        rows.append({"group": {"kind": "zp_vec", "p": p, "n": n},
                     "source": {"variant": "explicit",
                                "elements": _vectors(rng, min(60, p**n // 2), p, n)},
                     "extractor": {"build": "zpn", "m": 1}, "alpha": 0.25,
                     "charsum_seed": rng.randrange(1 << 30)})
    for p in _PGC:
        rows.append({"group": {"kind": "zp", "p": p}, "source": _ap(rng, p, 300),
                     "extractor": {"build": "pgc", "m": 2}})
    for p, k in _LINE_FIELDS:
        q = p**k
        group = {"kind": "fq_vec", "p": p, "k": k, "n": 3}
        rows.append({"group": group,
                     "source": {"variant": "line", "a": [rng.randrange(q) for _ in range(3)],
                                "d": _nonzero_vector(rng, q, 3)},
                     "extractor": {"build": "line"}})
    for q in _ALL_LINES:
        rows.append({"family": {"kind": "all_lines", "q": q, "n": 2},
                     "extractor": {"build": "line"}})
    for p in _AP_PRIMES:
        rows.append({"group": {"kind": "zp_vec", "p": p, "n": 5},
                     "source": {"variant": "ap", "b0": [rng.randrange(p) for _ in range(5)],
                                "step": _nonzero_vector(rng, p, 5), "k": p - 1},
                     "extractor": {"build": "ap", "m": 1}})
    for p, s in _ALL_APS:
        rows.append({"family": {"kind": "all_aps", "p": p, "s": s},
                     "extractor": {"build": "zp", "m": 1}})
    return rows


def _sweep(rng: random.Random) -> tuple[dict, list]:
    """The grid once on one thread, as the baseline, then on the thread pool.

    On a shared 2-vCPU virtual machine the pooled sweep's wall time depends on
    how fast the idle core wakes up (1.1-1.7x the serial time for the same
    rows), so the serial half also keeps the pass's wall time from following
    that alone.
    """
    inputs = {"grid.json": {"rows": _sweep_rows(rng)}}
    commands = [{"name": f"verify-sweep-threads{t}",
                 "argv": ["verify", "--suite", "sweep", "--grid", "../inputs/grid.json",
                          "--out", f"sweep{t}.csv", "--threads", str(t)]}
                for t in (1, SWEEP_THREADS)]
    return inputs, commands


# Reduced sizes for the four slowest suites (bohr, cauchy-davenport, transport
# and norms take ~80% of the default run); the others run at their defaults.
_VERIFY_KWARGS = {"bohr": {"pmax": 199}, "cauchy-davenport": {"trials": 3000},
                  "transport": {"sources_per_p": 60}, "norms": {"qs": [2, 3, 4, 5], "kmax": 3}}


def _verify(rng: random.Random) -> tuple[dict, list]:
    seed = rng.randrange(1, 1 << 20)
    inputs, commands = {}, []
    for suite in SUITES:
        argv = ["verify", "--suite", suite, "--out", f"{suite}.csv", "--seed", str(seed)]
        if suite in _VERIFY_KWARGS:
            inputs[f"{suite}.grid.json"] = {"kwargs": _VERIFY_KWARGS[suite]}
            argv += ["--grid", f"../inputs/{suite}.grid.json"]
        commands.append({"name": f"verify-{suite}", "argv": argv})
    return inputs, commands


_BUILDERS = {"extract": _extract, "diagnose": _diagnose, "sweep": _sweep,
             "verify": _verify}


def build(workload: str, seed: int, indir: str) -> list[dict]:
    """Write the workload's inputs for ``seed`` under ``indir``; return its commands.

    Commands run with a fresh output directory next to ``indir`` as their
    working directory. Every command names its ``--threads`` so that the run
    manifests do not depend on the machine's core count.
    """
    inputs, commands = _BUILDERS[workload](variant_rng(workload, seed))
    _check_moduli(inputs)
    os.makedirs(indir, exist_ok=True)
    for name, obj in inputs.items():
        with open(os.path.join(indir, name), "w") as fh:
            json.dump(obj, fh)
    for cmd in commands:
        if "--threads" not in cmd["argv"]:
            cmd["argv"] += ["--threads", "1"]
    return commands
