"""Seeded request lists for the three benchmark workloads.

A request is a JSON-ready dict.  ``kind`` is ``"cli"`` (``argv`` goes to
``diracsym.cli.main`` with ``--out`` appended) or ``"lib"`` (``op`` names
a library call with no CLI command).  An ``argv`` item ``"@<id>"`` stands
for the certificate file written by request ``<id>``.

The size of a list depends only on ``seconds``: strata are taken in a
fixed order, each priced by the ``*_REF_S`` tables (serial seconds per
request, measured once on a 2-core x86-64 machine), until the budget is
spent.  The seed picks order, masses, momenta, candidates and states,
never how much work there is, so every seed costs about the same and a
faster program finishes the same list sooner.  This module does not
import diracsym.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("classify-table", "solve-scatter", "certify")
VARIANTS = ("single", "single-", "doubled", "massless")
CANDIDATES = ("P", "Tp", "Tw", "C", "TpC", "TwC", "PTC")
DEV_SEED = 1
HELD_OUT_SEED = 7919

# classify rows in the order they join the list as the budget grows: d=4
# and d=6, the d=8 golden row, the other d=8 rows; the d=2 rows (0.1 s in
# all) come late because they would only pull the median down to a single
# 0.14 s d=4 row, too short to time steadily on a shared machine.
CLASSIFY_PRIORITY = [(d, v) for d in (4, 6) for v in VARIANTS] + [
    (8, "single"),
    (8, "massless"),
    (8, "single-"),
    *((2, v) for v in VARIANTS),
    (8, "doubled"),
]
CLASSIFY_REF_S = {
    2: {"single": 0.015, "single-": 0.015, "doubled": 0.05, "massless": 0.013},
    4: {"single": 0.14, "single-": 0.14, "doubled": 0.6, "massless": 0.13},
    6: {"single": 1.05, "single-": 1.1, "doubled": 3.7, "massless": 1.06},
    8: {"single": 8.4, "single-": 8.4, "doubled": 29.0, "massless": 8.0},
}

# solve-tau strata (d, variant, ansatz, count), cheapest first.  The
# ``clifford2`` ansatz is defined for single models only.  The counts put
# the median among the d=4 cells and the tail among the d=6 cells.  The
# d=8 cells take four distinct candidates, so nearly every list holds one
# of the three candidates whose d=8 cell sets peak memory.
SCATTER_BLOCK = (
    (2, "single", "full", 14),
    (2, "single-", "full", 14),
    (2, "doubled", "full", 2),
    (2, "massless", "full", 1),
    (2, "single", "clifford2", 1),
    (2, "single-", "clifford2", 1),
    (4, "single", "full", 14),
    (4, "single-", "full", 14),
    (4, "doubled", "full", 2),
    (4, "massless", "full", 1),
    (4, "single", "clifford2", 1),
    (4, "single-", "clifford2", 1),
    (6, "single", "full", 10),
    (6, "single-", "full", 9),
    (6, "massless", "full", 1),
    (6, "single", "clifford2", 1),
    (8, "single", "full", 2),
    (8, "single-", "full", 1),
    (8, "massless", "full", 1),
)
SCATTER_REF_S = {
    ("full", 2): {"single": 0.003, "single-": 0.003, "doubled": 0.009, "massless": 0.0025},
    ("full", 4): {"single": 0.02, "single-": 0.02, "doubled": 0.072, "massless": 0.018},
    ("full", 6): {"single": 0.155, "single-": 0.155, "doubled": 0.5, "massless": 0.147},
    ("full", 8): {"single": 1.2, "single-": 1.2, "doubled": 4.2, "massless": 1.22},
    ("clifford2", 2): {"single": 0.015, "single-": 0.015},
    ("clifford2", 4): {"single": 0.125, "single-": 0.125},
    ("clifford2", 6): {"single": 1.65, "single-": 1.65},
}

# certify strata (op, d or label variant, count), cheapest first; the
# counts place the median among the d=6 spectra and the tail among the
# d=8 dispersion checks.  Each CLI certificate is also sent to ``report``.
CERTIFY_BLOCK = (
    ("gamma", 2, 1),
    ("gamma", 4, 1),
    ("density", 2, 5),
    ("dispersion", 2, 5),
    ("spectrum", 2, 5),
    ("density", 4, 10),
    ("spectrum", 4, 10),
    ("dispersion", 4, 10),
    ("spectrum", 6, 120),
    ("labels", "single", 30),
    ("labels", "single-", 30),
    ("dispersion", 6, 100),
    ("density", 8, 70),
    ("gamma", 6, 1),
    ("spectrum", 8, 60),
    ("labels", "doubled", 30),
    ("dispersion", 8, 30),
    ("gamma", 8, 1),
)
CERTIFY_REF_S = {
    ("density", 2): 0.0005,
    ("density", 4): 0.0014,
    ("density", 8): 0.029,
    ("dispersion", 2): 0.0007,
    ("dispersion", 4): 0.004,
    ("dispersion", 6): 0.021,
    ("dispersion", 8): 0.099,
    ("spectrum", 2): 0.0014,
    ("spectrum", 4): 0.0028,
    ("spectrum", 6): 0.0084,
    ("spectrum", 8): 0.035,
    ("labels", "single"): 0.02,
    ("labels", "single-"): 0.02,
    ("labels", "doubled"): 0.067,
    ("gamma", 2): 0.002,
    ("gamma", 4): 0.008,
    ("gamma", 6): 0.05,
    ("gamma", 8): 0.34,
    ("report", None): 0.0009,
}
LABEL_VARIANTS = ("single", "single-", "doubled")


class _Draws:
    """Seeded draws of rationals that never repeat within one list."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.masses: set = set()

    def mass(self) -> Fraction:
        while True:
            m = Fraction(self.rng.randint(1, 240), self.rng.randint(1, 16))
            if m not in self.masses:
                self.masses.add(m)
                return m

    def momentum(self, d: int) -> list:
        """A nonzero momentum (p = 0 is the worker's warm-up request)."""
        while True:
            p = [Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 7)) for _ in range(d)]
            if any(p):
                return p


def _take(strata, budget: float) -> list:
    """Items of ``strata`` (item, cost) for ``budget`` seconds: as many
    whole blocks as fit, else the cheapest prefix of one (at least one
    item), so that the shape of a list never depends on luck."""
    block = sum(cost for _, cost in strata)
    if budget >= block:
        return [item for item, _ in strata] * int(budget // block)
    out, spent = [], 0.0
    for item, cost in strata:
        if out and spent + cost > budget:
            break
        out.append(item)
        spent += cost
    return out


def classify_table(seed: int, seconds: float) -> list[dict]:
    strata = [((d, v), CLASSIFY_REF_S[d][v]) for d, v in CLASSIFY_PRIORITY]
    rows = _take(strata, seconds)[: len(strata)]  # a row runs at most once
    random.Random(seed).shuffle(rows)
    return [
        {
            "id": f"r{i}",
            "kind": "cli",
            "argv": ["classify", "--dims", str(d), "--variants", v, "--jobs", "1"],
            "cells": 7,
            "d": d,
            "variant": v,
        }
        for i, (d, v) in enumerate(rows)
    ]


def solve_scatter(seed: int, seconds: float) -> list[dict]:
    draws = _Draws(seed)
    # the cells of one (d, ansatz) cycle through a seeded order of the
    # candidates, so any 7 consecutive ones hold each candidate once
    cycles = {}
    strata = []
    for d, v, ansatz, count in SCATTER_BLOCK:
        cost = SCATTER_REF_S[(ansatz, d)][v]
        strata.extend([((d, v, ansatz), cost)] * count)
    massless_used = set()
    reqs = []
    for d, v, ansatz in _take(strata, seconds):
        if v == "massless":
            # mass 0 is the only massless model, so a second call at the
            # same d would share a model with the first
            if d in massless_used:
                continue
            massless_used.add(d)
            mass = Fraction(0)
        else:
            mass = draws.mass()
        order = cycles.get((d, ansatz))
        if not order:
            order = cycles[(d, ansatz)] = draws.rng.sample(CANDIDATES, len(CANDIDATES))
        cand = order.pop()
        reqs.append(
            {
                "kind": "cli",
                "argv": [
                    "solve-tau", "--dim", str(d), "--variant", v,
                    "--mass", str(mass), "--symmetry", cand,
                    "--ansatz", ansatz,
                ],
                "cells": 1,
                "d": d,
                "variant": v,
                "symmetry": cand,
                "ansatz": ansatz,
                "mass": str(mass),
            }
        )
    draws.rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = f"r{i}"
    return reqs


def _certify_request(op: str, param, draws: _Draws) -> dict:
    """One certify request; ``param`` is the label variant for ``labels``
    and the dimension d otherwise."""
    rng, d = draws.rng, param
    if op == "gamma":
        return {"kind": "cli", "argv": ["gamma", "--dim", str(d)], "d": d}
    if op == "spectrum":
        mass, p = draws.mass(), draws.momentum(d)
        return {
            "kind": "cli",
            "argv": [
                "spectrum", "--dim", str(d), "--mass", str(mass),
                "--p=" + ",".join(str(x) for x in p),
            ],
            "d": d,
            "mass": str(mass),
            "p": [str(x) for x in p],
        }
    if op == "labels":
        mass = draws.mass()
        return {
            "kind": "cli",
            "argv": ["labels", "--dim", "4", "--variant", param, "--mass", str(mass)],
            "variant": param,
        }
    if op == "dispersion":
        mass, p = draws.mass(), draws.momentum(d)
        return {
            "kind": "lib",
            "op": "dispersion_check",
            "d": d,
            "mass": str(mass),
            "p": [str(x) for x in p],
        }
    if op == "density":
        mass, p = draws.mass(), draws.momentum(d)
        n = 2 ** (d // 2)
        # a pure state from a seeded complex vector; the worker normalizes
        vec = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(n)]
        return {
            "kind": "lib",
            "op": "density_evolve",
            "d": d,
            "mass": str(mass),
            "p": [str(x) for x in p],
            "t": rng.uniform(0.05, 8.0),
            "steps": rng.randint(1, 64),
            "state": vec,
        }
    raise ValueError(f"unknown certify op: {op}")


def certify(seed: int, seconds: float) -> list[dict]:
    draws = _Draws(seed)
    strata = []
    for op, param, count in CERTIFY_BLOCK:
        cost = CERTIFY_REF_S[(op, param)]
        if op not in ("density", "dispersion"):
            cost += CERTIFY_REF_S[("report", None)]
        strata.extend([((op, param), cost)] * count)
    # a gamma request has no seeded input, so it runs once per list
    picked, seen_gamma = [], set()
    for op, param in _take(strata, seconds):
        if op == "gamma":
            if param in seen_gamma:
                continue
            seen_gamma.add(param)
        picked.append((op, param))
    reqs = [_certify_request(op, d, draws) for op, d in picked]
    draws.rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = f"r{i}"
    # each emitted certificate gets one report, at a seeded later position
    out = list(reqs)
    for r in reqs:
        if r["kind"] != "cli":
            continue
        pos = out.index(r)
        report = {
            "id": f"{r['id']}-report",
            "kind": "cli",
            "argv": ["report", "@" + r["id"]],
            "target": r["id"],
        }
        out.insert(draws.rng.randint(pos + 1, len(out)), report)
    return out


GENERATORS = {
    "classify-table": classify_table,
    "solve-scatter": solve_scatter,
    "certify": certify,
}


def requests_for(workload: str, seed: int, seconds: float) -> list[dict]:
    reqs = GENERATORS[workload](seed, seconds)
    keys = [repr((r["kind"], r.get("argv"), r.get("op"), r.get("d"), r.get("mass"),
                  r.get("p"), r.get("t"))) for r in reqs]
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"{workload}: a request repeats within one list")
    return reqs
