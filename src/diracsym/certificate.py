"""Machine-readable, byte-reproducible certificates.

Certificates carry exact matrices in the interchange scalar format
(decimal-string rationals), a canonical-JSON content hash, and the
discrepancy flags for the known typographical problems in the source
derivation that this toolkit re-certifies.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from .clifford import GammaSystem
from .symmetry import ClassificationRecord, SymmetryCandidate, TauSolution

SCHEMA_VERSION = "1"
TOOLKIT_VERSION = "0.1.0"

# Known discrepancies between the source derivation and the exact engine.
# Each certificate lists the flags relevant to its content; the engine
# verdict is always the recorded ground truth.
FLAGS = {
    "gamma_recursion_normalization": (
        "the literal doubling recursion for the gamma matrices needs a "
        "factor i on the two new spatial gammas (and a fixed Pauli "
        "assignment) for the Clifford relations and the printed "
        "intertwiner matrices to hold; this normalized form is used"
    ),
    "doubled_beta_sign_d2": (
        "the printed d=2 doubled beta block diag(s3, s3) does not join "
        "the two energy branches; diag(s3, -s3) is used, by analogy "
        "with the d=4 doubled construction"
    ),
    "doubled_tau_typography_d4": (
        "the printed d=4 doubled Tw/C intertwiners are typographically "
        "garbled; diag(a1a3, a1a3) and antidiag(a2a4, a2a4) are the "
        "forms verified against the constraint systems"
    ),
    "d8_text_contradiction": (
        "the reported d=8 invariance list is internally inconsistent "
        "about Tw; the exact solver verdict (Tw-invariant, matching the "
        "d=4 pattern) is recorded as ground truth"
    ),
    "tp_bracket_signature": (
        "the literal linear time-reflection bracket with Pk is "
        "unsatisfiable on the orbital variables alone; the workable "
        "signature {P0: anti, Pk: commute, Jkl: commute, J0k: anti} "
        "produced these verdicts"
    ),
}


def frac_json(x) -> list:
    f = Fraction(x)
    return [str(f.numerator), str(f.denominator)]


def candidate_json(c: SymmetryCandidate) -> dict:
    return {
        "name": c.name,
        "antilinear": c.antilinear,
        "t_sign": c.t_sign,
        "x_sign": c.x_sign,
        "signature": {k: v for k, v in c.signature},
    }


def tau_solution_json(sol: TauSolution) -> dict:
    return {
        "candidate": candidate_json(sol.candidate),
        "d": sol.d,
        "variant": sol.variant,
        "ansatz": sol.ansatz,
        "dim": sol.dim,
        "exists": sol.exists,
        "basis": [b.to_json() for b in sol.basis],
        "representative": (
            sol.representative.to_json() if sol.representative else None
        ),
        "invertible_representative": (
            sol.invertible_representative.to_json()
            if sol.invertible_representative
            else None
        ),
        "square_phase": (
            sol.square_phase.to_json() if sol.square_phase else None
        ),
        "orbital_inconsistencies": [
            {
                "generator": inc["generator"],
                "monomial": repr(inc["monomial"]),
                "scale": inc["scale"].to_json(),
            }
            for inc in sol.orbital_inconsistencies
        ],
    }


def gamma_json(gs: GammaSystem) -> dict:
    return {
        "d": gs.d,
        "rep_dim": gs.rep_dim,
        "metric": [1] + [-1] * gs.d,
        "gammas": [g.to_json() for g in gs.gammas],
        "relations_check": gs.check_relations(),
    }


def classification_json(rec: ClassificationRecord) -> dict:
    return {
        "d": rec.d,
        "variant": rec.variant,
        "entries": {
            name: {
                "exists": sol.exists,
                "dim": sol.dim,
                "representative": (
                    sol.invertible_representative.to_json()
                    if sol.invertible_representative
                    else None
                ),
            }
            for name, sol in rec.entries.items()
        },
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_dumps(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte, for
    str-keyed trees: the file format of certificates.  ``json`` encodes
    any indent in pure Python; this lays out the lines directly and
    leaves strings to json's C escaper.  ``nl`` is the line break and
    indentation in front of ``obj``.

    Within one list, each distinct item object is rendered once: the
    rows of ``ExactMatrix.to_json`` share their entry dicts, so a
    matrix row costs one rendering per distinct scalar.  The memo is
    local to the list, whose items all sit at one indentation and stay
    alive while it is rendered, so the object's id is the whole key."""
    if isinstance(obj, str):
        return _escape(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [_escape(k) + ": " + pretty_dumps(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        if all(isinstance(x, str) for x in obj):
            items = map(_escape, obj)
        else:
            memo = {}
            items = [
                memo.get(id(x)) or memo.setdefault(id(x), pretty_dumps(x, inner))
                for x in obj
            ]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if obj else "[]"
    return json.dumps(obj)


def content_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def make_certificate(kind: str, input_spec: dict, results, flags) -> dict:
    """Assemble a certificate; re-running the same input reproduces it
    byte-identically (no timestamps, canonical ordering)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": TOOLKIT_VERSION,
        "kind": kind,
        "input": input_spec,
        "results": results,
        "flags": {f: FLAGS[f] for f in sorted(flags)},
    }
    payload["content_hash"] = content_hash(payload)
    return payload


def verify_certificate(cert: dict) -> bool:
    """Round-trip integrity: stored hash matches recomputed hash."""
    body = {k: v for k, v in cert.items() if k != "content_hash"}
    return cert.get("content_hash") == content_hash(body)


def flags_for(dims, variants) -> set:
    flags = {"gamma_recursion_normalization", "tp_bracket_signature"}
    dims = set(dims)
    variants = set(variants)
    if 8 in dims:
        flags.add("d8_text_contradiction")
    if "doubled" in variants:
        if 2 in dims:
            flags.add("doubled_beta_sign_d2")
        if 4 in dims:
            flags.add("doubled_tau_typography_d4")
    return flags


def dispersion_json(block: dict) -> dict:
    return {
        "d": block["d"],
        "mass": frac_json(block["mass"]),
        "p": [frac_json(x) for x in block["p"]],
        "omega2": frac_json(block["omega2"]),
        "square_is_scalar": block["square_is_scalar"],
        "trace_zero": block["trace_zero"],
        "ok": block["ok"],
    }


def rep_labels_json(labels) -> list:
    return [
        {
            "energy_sign": l.energy_sign,
            "j1": frac_json(l.j1),
            "j2": frac_json(l.j2),
            "multiplicity": l.multiplicity,
        }
        for l in labels
    ]
