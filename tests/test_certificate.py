"""Certificate assembly, hashing, and reproducibility."""

import json
import pathlib
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracsym import ExactMatrix, ExactScalar, model_for, solve_tau, system_for, verify_certificate
from diracsym.certificate import (
    FLAGS,
    classification_json,
    flags_for,
    frac_json,
    gamma_json,
    make_certificate,
    pretty_dumps,
    tau_solution_json,
)
from diracsym.cli import main
from diracsym.symmetry import TW, classify


def test_frac_round_trip():
    for x in (Fraction(0), Fraction(-7, 3), Fraction(22, 5)):
        assert Fraction(*map(int, frac_json(x))) == x


def test_hash_round_trip():
    cert = make_certificate("gamma", {"d": 2}, gamma_json(system_for(2)), set())
    assert verify_certificate(cert)


def test_tampering_detected():
    cert = make_certificate("gamma", {"d": 2}, gamma_json(system_for(2)), set())
    cert["input"]["d"] = 4
    assert not verify_certificate(cert)


def test_byte_reproducible():
    def build():
        sol = solve_tau(model_for(4, mass=1), TW, variant="single")
        cert = make_certificate(
            "solve-tau",
            {"d": 4, "symmetry": "Tw"},
            tau_solution_json(sol),
            flags_for([4], ["single"]),
        )
        return json.dumps(cert, sort_keys=True)

    assert build() == build()


def test_survives_serialization_round_trip():
    rec = classify([2], variants=("single",))[0]
    cert = make_certificate(
        "classify",
        {"dims": [2], "variants": ["single"]},
        {"table": [classification_json(rec)], "mismatches": []},
        flags_for([2], ["single"]),
    )
    blob = json.dumps(cert, indent=2, sort_keys=True)
    assert verify_certificate(json.loads(blob))


def test_flag_selection():
    assert "d8_text_contradiction" in flags_for([2, 8], ["single"])
    assert "d8_text_contradiction" not in flags_for([2, 4], ["single"])
    assert "doubled_beta_sign_d2" in flags_for([2], ["doubled"])
    assert "doubled_beta_sign_d2" not in flags_for([2], ["single"])
    assert "doubled_tau_typography_d4" in flags_for([4], ["doubled"])
    base = flags_for([4], ["single"])
    assert "gamma_recursion_normalization" in base
    assert "tp_bracket_signature" in base


def test_all_flags_documented():
    for name in flags_for([2, 4, 6, 8], ["single", "doubled", "massless"]):
        assert name in FLAGS
        assert FLAGS[name]


def test_tau_solution_json_fields():
    sol = solve_tau(model_for(4, mass=1), TW, variant="single")
    blob = tau_solution_json(sol)
    assert blob["dim"] == 1
    assert blob["exists"] is True
    assert blob["candidate"]["name"] == "Tw"
    assert blob["candidate"]["antilinear"] is True
    assert blob["invertible_representative"] is not None
    assert blob["square_phase"] is not None


# quotes, backslashes, control characters, non-ASCII, astral and lone
# surrogate code points, next to any code point hypothesis draws
_TRICKY = '"\\/\x00\x07\x1f\x7f\n\té\u2028\uffff\U0001f600\ud800\udfff'
_TEXT = st.text(st.sampled_from(_TRICKY) | st.characters(exclude_categories=()), max_size=6)
_LEAVES = (
    _TEXT
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.booleans()
    | st.none()
    | st.floats()
)


def _branches(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(_TEXT, max_size=4)
        | st.dictionaries(_TEXT, inner, max_size=4)
    )


_TREES = st.recursive(_LEAVES, _branches, max_leaves=20)


@st.composite
def _aliased_trees(draw):
    """A tree holding one subtree object at several places: twice in one
    list, and again at other depths, as matrix rows share entry dicts."""
    shared = draw(_TREES)
    tree = draw(st.recursive(_LEAVES | st.just(shared), _branches, max_leaves=20))
    return [shared, tree, shared, [shared], {"k": shared}]


_E = {"re": ["1", "1"], "im": ["0", "1"]}


@settings(max_examples=200, deadline=None)
@given(_TREES | _aliased_trees())
@example(([],))
@example({"a": (), "b": {}, "": [[]]})
@example(["a", ("b",), 10**100, -0.0])
@example([_E, _E, [_E], {"k": _E}])
def test_pretty_dumps_is_json_indent_2_sorted(obj):
    assert pretty_dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_pretty_dumps_writes_the_golden_bytes():
    paths = sorted((pathlib.Path(__file__).parent / "golden").glob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert pretty_dumps(json.loads(text)) + "\n" == text, path.name


def test_solve_tau_certificate_converts_each_entry_object_once(tmp_path, monkeypatch):
    # every entry of a d = 8 doubled matrix (32 x 32) is ZERO, ONE or
    # MINUS_ONE, so each matrix converts at most three scalars
    real_scalar, real_matrix = ExactScalar.to_json, ExactMatrix.to_json
    calls, per_matrix = [], []

    def counting(a):
        calls.append(a)
        return real_scalar(a)

    def tracking(m):
        start = len(calls)
        out = real_matrix(m)
        per_matrix.append((len(calls) - start, len({id(a) for r in m.rows for a in r})))
        return out

    monkeypatch.setattr(ExactScalar, "to_json", counting)
    monkeypatch.setattr(ExactMatrix, "to_json", tracking)
    out = tmp_path / "st.json"
    argv = ["solve-tau", "--dim", "8", "--variant", "doubled", "--symmetry", "Tw"]
    assert main([*argv, "--out", str(out)]) == 0
    assert per_matrix
    assert all(made <= distinct for made, distinct in per_matrix), per_matrix
