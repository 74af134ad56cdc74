"""Regenerate ``expected.json``, the stored references the checks use.

    python3 perfbench/make_expected.py

It solves all 112 mass-1 classify cells and the 63 ``clifford2`` cells at
d <= 6, runs ``verify_tau`` on every invertible representative, and
refuses to write unless every single-variant row agrees with
``tests/golden`` (verdict, dimension and representative).  It also stores
the d=4 little-group labels.  The run takes a few minutes.
"""

from __future__ import annotations

import json
import pathlib
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "expected.json"
sys.path.insert(0, str(ROOT / "src"))

from diracsym import little_group_labels, model_for, verify_tau  # noqa: E402
from diracsym.certificate import classification_json, rep_labels_json  # noqa: E402
from diracsym.symmetry import CANDIDATES, classify, model_for_variant, solve_tau  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _cell(sol, model, name) -> list:
    rep = sol.invertible_representative
    if rep is not None and not verify_tau(model, CANDIDATES[name], rep):
        raise SystemExit(f"verify_tau rejects d={sol.d} {sol.variant} {name}")
    return [sol.exists, sol.dim, checks.fingerprint(rep.to_json()) if rep else None]


def main() -> int:
    full, clifford2 = {}, {}
    for d in (2, 4, 6, 8):
        for v in workloads.VARIANTS:
            (rec,) = classify([d], variants=(v,), mass=Fraction(1))
            model = model_for_variant(d, v, mass=Fraction(1))
            for name, sol in rec.entries.items():
                full[checks.cell_key(d, v, name)] = _cell(sol, model, name)
            if v == "single":
                golden = json.loads((ROOT / f"tests/golden/classify_d{d}.json").read_text())
                if golden["results"]["table"][0] != classification_json(rec):
                    raise SystemExit(f"d={d} single row disagrees with tests/golden")
            print(f"full d={d} {v}", flush=True)
    for d in (2, 4, 6):
        for v in ("single", "single-", "massless"):
            model = model_for_variant(d, v, mass=Fraction(1))
            for name in workloads.CANDIDATES:
                sol = solve_tau(model, CANDIDATES[name], ansatz="clifford2", variant=v)
                clifford2[checks.cell_key(d, v, name)] = _cell(sol, model, name)
            print(f"clifford2 d={d} {v}", flush=True)
    labels = {}
    for v in workloads.LABEL_VARIANTS:
        if v == "doubled":
            model = model_for(4, mass=1, doubled=True)
        else:
            model = model_for(4, mass=1, branch=-1 if v == "single-" else 1)
        labels[v] = rep_labels_json(little_group_labels(model))
    OUT.write_text(
        json.dumps(
            {"full": full, "clifford2": clifford2, "labels": labels},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
