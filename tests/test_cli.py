"""Command-line interface: certificates on disk and the exit-code contract."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import diracsym
from diracsym import ExactMatrix, make_certificate, model_for, verify_certificate
from diracsym.certificate import content_hash
from diracsym.clifford import GammaSystem
from diracsym import cli, clifford, exact, spectra
from diracsym.cli import main

from conftest import proj_equal


def run(args):
    return main(args)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_gamma_writes_valid_certificate(tmp_path):
    out = tmp_path / "g4.json"
    assert run(["gamma", "--dim", "4", "--out", str(out)]) == 0
    cert = load(out)
    assert verify_certificate(cert)
    assert cert["kind"] == "gamma"
    assert cert["results"]["rep_dim"] == 4
    assert all(r["ok"] for r in cert["results"]["relations_check"])


def test_gamma_checks_the_relations_once(tmp_path, monkeypatch):
    # the exit code reads the relation check in the certificate, so the
    # check runs once, and a failed pair in it exits 2
    real = GammaSystem.check_relations
    calls = []

    def counting(gs):
        calls.append(gs.d)
        return real(gs)

    monkeypatch.setattr(GammaSystem, "check_relations", counting)
    assert run(["gamma", "--dim", "4", "--out", str(tmp_path / "g.json")]) == 0
    assert calls == [4]

    def one_failed(gs):
        report = real(gs)
        report[-1] = {**report[-1], "ok": False}
        return report

    monkeypatch.setattr(GammaSystem, "check_relations", one_failed)
    out = tmp_path / "bad.json"
    assert run(["gamma", "--dim", "4", "--out", str(out)]) == 2
    assert not load(out)["results"]["relations_check"][-1]["ok"]


def test_gamma_and_fiber_multiply_no_dense_matrix(tmp_path, monkeypatch):
    # the relations and the fiber square are read off Pauli terms, so a
    # dense product anywhere on either path fails the test
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix product")

    monkeypatch.setattr(exact, "matmul", refuse)
    monkeypatch.setattr(exact.ExactMatrix, "__matmul__", refuse)
    for mod in (clifford, spectra):
        monkeypatch.setattr(mod, "matmul", refuse, raising=False)
    out = tmp_path / "g8.json"
    assert run(["gamma", "--dim", "8", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "golden" / "gamma_d8.json"
    assert out.read_bytes() == golden.read_bytes()
    fiber = spectra.sqrt_dirac_fiber(Fraction(2), [1, -1, 2])
    assert fiber["ok"] and fiber["omega2"] == 10


def test_solve_tau_massless_tp_representative(tmp_path, capsys):
    out = tmp_path / "tau.json"
    code = run(
        [
            "solve-tau", "--dim", "4", "--variant", "massless",
            "--mass", "0", "--symmetry", "Tp", "--out", str(out),
        ]
    )
    assert code == 0
    cert = load(out)
    rep = ExactMatrix.from_json(cert["results"]["invertible_representative"])
    assert proj_equal(rep, model_for(4, mass=0).gamma.gammas[0])


def test_classify_expectations_pass(tmp_path):
    out = tmp_path / "c.json"
    code = run(
        [
            "classify", "--dims", "4", "--expect", "Tw:yes",
            "--expect", "Tp:no", "--expect", "C:no", "--out", str(out),
        ]
    )
    assert code == 0
    cert = load(out)
    assert cert["results"]["mismatches"] == []
    row = cert["results"]["table"][0]
    assert row["entries"]["Tw"]["exists"] is True


def test_classify_expectation_mismatch_exits_2(tmp_path, capsys):
    code = run(["classify", "--dims", "4", "--expect", "Tw:no", "--out", str(tmp_path / "c.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "MISMATCH" in err and "Tw" in err


def test_spectrum_spot_value(tmp_path):
    out = tmp_path / "s.json"
    code = run(
        ["spectrum", "--dim", "4", "--mass", "3", "--p", "0,0,0,4", "--out", str(out)]
    )
    assert code == 0
    cert = load(out)
    assert cert["results"]["omega2"] == ["25", "1"]
    assert cert["results"]["ok"] is True


def test_labels_doubled(tmp_path):
    out = tmp_path / "l.json"
    assert run(["labels", "--dim", "4", "--variant", "doubled", "--out", str(out)]) == 0
    cert = load(out)
    assert len(cert["results"]) == 4


def test_report_summarizes_and_validates(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    run(["gamma", "--dim", "2", "--out", str(g)])
    run(["classify", "--dims", "2", "--out", str(c)])
    assert run(["report", str(g), str(c)]) == 0
    text = capsys.readouterr().out
    assert "hash=ok" in text
    assert "d=2 single" in text


def test_report_flags_corrupted_certificate(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gamma", "--dim", "2", "--out", str(g)])
    cert = load(g)
    cert["results"]["d"] = 99
    g.write_text(json.dumps(cert))
    assert run(["report", str(g)]) == 2


def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys):
    # rejected while parsing, before anything is built or solved
    def never(*args, **kwargs):
        raise AssertionError("called before the arguments were checked")

    monkeypatch.setattr(cli, "system_for", never)
    monkeypatch.setattr(cli, "classify", never)
    for argv, message in (
        (["classify"], "--dims"),
        (["gamma", "--dim", "3"], "even"),
        (["gamma", "--dim", "2", "--seed", "1"], "unrecognized"),
        (["report", "--out", "x", "f.json"], "unrecognized"),
        (["classify", "--dims", "3"], "even"),
        (["classify", "--dims", "2", "--expect", "Tw"], "NAME:yes|no"),
        (["gamma", "--dim", "14"], f"at most {cli.MAX_DIM}"),
        (["classify", "--dims", "4,16"], f"at most {cli.MAX_DIM}"),
        (["classify", "--dims", "2", "--jobs", "0"], "at least 1"),
        (["classify", "--dims", "2", "--jobs", "-3"], "at least 1"),
        (["classify", "--dims", "x"], "expected an even integer dimension, got 'x'"),
        (["classify", "--dims", "2", "--jobs", "x"], "expected a positive integer, got 'x'"),
        (["gamma", "--dim", "x"], "expected an even integer dimension, got 'x'"),
        (["classify", "--dims", "4,4"], "dimension 4 is given twice"),
        (["classify", "--dims", "4", "--expect", "Tw:no", "--expect", "Tw:yes"],
         "claim for Tw is given twice"),
        (["classify", "--dims", "2", "--variants", "single,single"], "variant single is given twice"),
        (["classify", "--dims", "2", "--variants", "bogus"], "unknown variant 'bogus'"),
        (["solve-tau", "--dim", "2", "--symmetry", "Tw", "--mass", "1/0"],
         "expected a rational number such as 3/7, got '1/0'"),
        (["classify", "--dims", "2", "--mass", "x"], "expected a rational number such as 3/7, got 'x'"),
        (["spectrum", "--dim", "2", "--p", "1,1/0"], "expected a rational number such as 3/7, got '1/0'"),
        (["solve-tau", "--dim", "2", "--symmetry", "Tw", "--mass", "1e100000"],
         "expected a rational number such as 3/7, got '1e100000'"),
        (["spectrum", "--dim", "2", "--p", "1E3,0"], "expected a rational number such as 3/7, got '1E3'"),
        (["classify", "--dims", "4", "--expect", "Tp-literal:yes"],
         "with NAME one of P, Tp, Tw, C, TpC, TwC, PTC"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, argv
    monkeypatch.undo()
    assert run(["spectrum", "--dim", "4", "--mass", "1", "--p", "1,2"]) == 1
    unwritable = tmp_path / "missing" / "x.json"
    capsys.readouterr()
    assert run(["gamma", "--dim", "2", "--out", str(unwritable)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {unwritable}: " in err and "Traceback" not in err
    assert run(["report", str(tmp_path / "missing.json")]) == 1
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[]")
    capsys.readouterr()
    assert run(["report", str(not_an_object)]) == 1
    err = capsys.readouterr().err
    assert "top-level JSON is not an object" in err and "Traceback" not in err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    not_utf8 = tmp_path / "bytes.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    for bad in (deep, not_utf8):
        assert run(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: unreadable certificate: " in err and "Traceback" not in err
    for flags in (5, None, "ab", []):
        # hash-valid, so only the type of the flags is wrong
        body = make_certificate("gamma", {"d": 2}, {}, set())
        del body["content_hash"]
        body["flags"] = flags
        bad_flags = tmp_path / "flags.json"
        bad_flags.write_text(json.dumps({**body, "content_hash": content_hash(body)}))
        assert run(["report", str(bad_flags)]) == 1, flags
        out, err = capsys.readouterr()
        assert f"{bad_flags}: unreadable certificate: flags is not an object" in err
        assert "flag:" not in out and "Traceback" not in err


@pytest.mark.parametrize(
    "results, missing",
    [({"table": []}, "'mismatches'"), ({"mismatches": []}, "'table'"), ([], "TypeError")],
)
def test_report_rejects_malformed_classify_results(tmp_path, capsys, results, missing):
    # hash-valid, so only the shape of the results is wrong
    path = tmp_path / "c.json"
    path.write_text(json.dumps(make_certificate("classify", {"dims": [2]}, results, set())))
    assert run(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: unreadable certificate: malformed classify results" in err
    assert missing in err and "Traceback" not in err


def test_rational_options_keep_certificate_bytes(tmp_path):
    # "6/14", "0.75" and "1/2,-3" parse to the rationals they always gave
    for argv, want in (
        (["solve-tau", "--dim", "2", "--symmetry", "C", "--mass", "6/14"], {"mass": ["3", "7"]}),
        (
            ["spectrum", "--dim", "2", "--mass", "0.75", "--p", "1/2,-3"],
            {"mass": ["3", "4"], "p": ["1/2", "-3"]},
        ),
    ):
        out = tmp_path / "c.json"
        assert run([*argv, "--out", str(out)]) == 0
        cert = load(out)
        assert verify_certificate(cert)
        assert {k: cert["input"][k] for k in want} == want


def test_massless_solve_tau_records_mass_0(tmp_path, capsys):
    base = ["solve-tau", "--dim", "4", "--variant", "massless", "--symmetry", "P"]
    given, zero = tmp_path / "given.json", tmp_path / "zero.json"
    assert run([*base, "--out", str(given)]) == 0
    assert run([*base, "--mass", "0", "--out", str(zero)]) == 0
    assert given.read_bytes() == zero.read_bytes()
    assert load(given)["input"]["mass"] == ["0", "1"]
    capsys.readouterr()
    refused = tmp_path / "refused.json"
    assert run([*base, "--mass", "3", "--out", str(refused)]) == 1
    err = capsys.readouterr().err
    assert err == "error: --variant massless is solved at mass 0, not 3\n"
    assert not refused.exists()
    single = tmp_path / "single.json"
    assert run(["solve-tau", "--dim", "4", "--symmetry", "P", "--out", str(single)]) == 0
    assert load(single)["input"]["mass"] == ["1", "1"]


def test_main_called_repeatedly_keeps_no_state(tmp_path, capsys):
    # one parser serves every call, and no claim leaks into the next call
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    golden = Path(__file__).parent / "golden" / "classify_d4.json"
    passes = []
    for n in (1, 2):
        out = tmp_path / str(n)
        out.mkdir()
        names = ["g", "s", "ce", "c", "sp", "l"]
        files = {name: str(out / f"{name}.json") for name in names}
        assert run(["gamma", "--dim", "4", "--out", files["g"]]) == 0
        assert run(
            ["solve-tau", "--dim", "4", "--variant", "doubled", "--symmetry", "Tw",
             "--out", files["s"]]
        ) == 0
        assert run(
            ["classify", "--dims", "4", "--expect", "Tw:yes", "--expect", "C:no",
             "--out", files["ce"]]
        ) == 0
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--dims", "4", "--expect", "Tw:no", "--expect", "Tw:yes"])
        assert exc.value.code == 1
        assert run(["classify", "--dims", "4", "--out", files["c"]]) == 0
        assert run(
            ["spectrum", "--dim", "4", "--mass", "3", "--p", "0,0,0,4", "--out", files["sp"]]
        ) == 0
        assert run(["labels", "--variant", "doubled", "--out", files["l"]]) == 0
        assert run(["report", *files.values()]) == 0
        assert load(files["ce"])["input"]["expect"] == {"C": "no", "Tw": "yes"}
        assert Path(files["c"]).read_bytes() == golden.read_bytes()
        passes.append({name: Path(path).read_bytes() for name, path in files.items()})
    assert passes[0] == passes[1]
    capsys.readouterr()


def test_failed_internal_check_exits_2(monkeypatch, capsys):
    def failing(model):
        raise ArithmeticError("label multiplicities do not sum to rep_dim")

    monkeypatch.setattr(cli, "little_group_labels", failing)
    assert run(["labels", "--dim", "4"]) == 2
    assert "rep_dim" in capsys.readouterr().err


def test_labels_off_the_candidates_exit_2(monkeypatch, capsys):
    kept = [j for j in spectra._J_CANDIDATES if j != Fraction(1, 2)]
    monkeypatch.setattr(spectra, "_J_CANDIDATES", kept)
    assert run(["labels", "--dim", "4", "--variant", "doubled"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal check failed: " in captured.err
    assert "Traceback" not in captured.err


def test_stdout_json_when_no_out(capsys):
    assert run(["gamma", "--dim", "2"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert verify_certificate(cert)


def test_out_and_json_prints_and_writes(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["gamma", "--dim", "2", "--json", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == load(out)


def _fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter that imports this diracsym."""
    src = str(Path(diracsym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_starts_no_process_machinery():
    # nor numpy: the exact commands never touch floating point
    unwanted = "{'multiprocessing', 'concurrent.futures.process', 'numpy'}"
    for module in ("diracsym", "diracsym.cli"):
        code = f"import sys, {module}; print(sorted({unwanted} & set(sys.modules)))"
        assert _fresh_python(code).strip() == "[]", module


def test_density_evolution_loads_numpy_on_first_use():
    code = """
import sys
from diracsym import DensityState, density_evolve, model_for
assert "numpy" not in sys.modules
rho = DensityState(p=(1, 0), matrix=[[0.5, 0.5], [0.5, 0.5]])
out = density_evolve((1, 0), model_for(2), rho, t=0.7, steps=3)
print(abs(out.matrix.trace() - 1), "numpy" in sys.modules)
"""
    drift, loaded = _fresh_python(code).split()
    assert float(drift) < 1e-12
    assert loaded == "True"


# Valid values for each option type of the solving commands, dims at most 6
# and --jobs at most 4; every option also draws from the adversarial pool.
_VALID = {
    cli._even_dim: ["2", "4", "6"],
    cli._even_dims: ["2", "4", "6", "2,4", "6,2", "2,4,6"],
    cli._variants: ["single", "massless", "single-,doubled", "doubled,massless,single"],
    cli._rational: ["0", "1", "3/7", "-5/3", "0.25", "7"],
    cli._positive_int: ["1", "2", "4"],
    cli._expectation: ["P:yes", "Tw:no", "C:yes", "PTC:no"],
}
_HUGE = str(10**40)
# zero, negative and huge components, of each length a valid --dim takes
_VALID[cli._momentum] = [
    "0,0", "1,-3/7", f"{_HUGE},-1/{_HUGE}", "0,0,0,0", "1/2,-3,5/9,-7/4",
    f"-{_HUGE},0,1/{_HUGE},2", "0,0,0,0,0,0", "1,2,3,4,5,6", f"1/3,0,-{_HUGE},2,-5,7/11",
]
_ADVERSARIAL = [
    "", " ", "\t", " 4 ", "1e5", "1E3", "1/0", "0/0", "-2", "-1/3", "0",
    _HUGE, "-" + _HUGE, "1/" + _HUGE, "é", "４", "٣", "π",
    "2,", ",", "4,4", "nan", "inf", "--dim", "Tw:maybe", "single,bogus",
]


def _options(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # --out would write files named by the adversarial values
    return [a for a in sub.choices[command]._actions if a.option_strings != ["--out"]]


@st.composite
def _argv(draw, command):
    pairs = []
    dim = None  # the --dim argparse keeps, when it is a valid one
    for action in _options(command):
        opt = action.option_strings[0]
        if action.nargs == 0:  # -h and --json take no value
            if draw(st.integers(0, 9)) == 0:
                pairs.append([opt])
            continue
        valid = list(action.choices or _VALID[action.type])
        if action.type is cli._momentum and dim:
            # mostly a momentum of the drawn length, so spectrum gets past
            # the length check
            valid = [v for v in valid if v.count(",") + 1 == dim] * 3 + valid
        adversarial = _ADVERSARIAL
        if action.type is cli._positive_int:
            adversarial = [v for v in _ADVERSARIAL if v != _HUGE]
        kind = draw(st.sampled_from(["valid"] * 3 + ["adversarial", "absent"]))
        for _ in range(draw(st.integers(1, 2)) if kind != "absent" else 0):
            pool = valid if kind == "valid" else adversarial
            pairs.append([opt, draw(st.sampled_from(pool))])
            if opt == "--dim":
                dim = int(pairs[-1][1]) if kind == "valid" else None
    pairs = draw(st.permutations(pairs))
    stray = draw(st.sampled_from([[], ["--seed", "1"], ["é"], [""]]))
    return [command, *(token for pair in pairs for token in pair), *stray]


@settings(max_examples=150, deadline=None)
@given(
    argv=st.sampled_from(["solve-tau", "classify", "gamma", "spectrum", "labels"]).flatmap(
        _argv
    )
)
@example(argv=["solve-tau", "--dim", "４", "--symmetry", "Tw", "--mass", "1/" + _HUGE])
@example(argv=["solve-tau", "--dim", "4", "--symmetry", "C", "--variant", "doubled",
               "--ansatz", "clifford2"])
@example(argv=["solve-tau", "--dim", "2", "--symmetry", "P", "--mass", "-1/3"])
@example(argv=["classify", "--dims", "2", "--variants", "massless", "--mass", _HUGE,
               "--jobs", "4", "--expect", "C:yes"])
@example(argv=["spectrum", "--dim", "2", "--mass", "0", "--p", "0,0"])
@example(argv=["spectrum", "--dim", "4", "--mass", "-" + _HUGE, "--p", "0,0,0,0"])
@example(argv=["spectrum", "--dim", "2", "--mass", "1/" + _HUGE, "--p", f"{_HUGE},-1/{_HUGE}"])
@example(argv=["labels", "--variant", "doubled", "--mass", _HUGE])
@example(argv=["labels", "--variant", "single-", "--mass", "0"])
@example(argv=["labels", "--dim", "6", "--mass", "-5/3"])
@example(argv=["gamma", "--dim", "6", "--json"])
def test_solving_commands_exit_0_1_or_2_on_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and "-h" not in argv:
        assert verify_certificate(json.loads(out.getvalue())), argv


_DIGITS = "9" * 5000


def _hash_valid(kind, results, **fields):
    body = make_certificate(kind, {}, results, set())
    del body["content_hash"]
    body.update(fields)
    return json.dumps({**body, "content_hash": content_hash(body)})


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '[{"kind": "gamma"}]',
        "5",
        "-0.5",
        "NaN",
        "null",
        '"gamma"',
        _DIGITS,
        '{"kind": "gamma", "content_hash": ' + _DIGITS + "}",
        '{"flags": ' + _DIGITS + "}",
        '{"kind": "spectrum", "flags": {}, "results": {"omega2": NaN}}',
        '{"kind": "classify", "flags": [], "results": {}}',
        '{"kind": "classify", "flags": "gamma_recursion_normalization"}',
        '{"kind": 5, "flags": {}}',
        _hash_valid("classify", {"table": [{"d": 2, "variant": "single", "entries": []}],
                                 "mismatches": []}),
        _hash_valid("classify", {"table": [{"d": 2, "variant": "single",
                                            "entries": [["P", {"exists": True}]]}],
                                 "mismatches": []}),
        _hash_valid("classify", {"table": {"d": 2}, "mismatches": 5}),
        _hash_valid("classify", {"table": [5], "mismatches": []}),
        _hash_valid("classify", {"table": [], "mismatches": []}, flags=[]),
        _hash_valid("spectrum", {"omega2": float("nan")}),
        _hash_valid("spectrum", {"omega2": int(_DIGITS[:4000])}),
        _hash_valid(5, []),
    ],
)
def test_report_exits_0_1_or_2_on_json_of_any_shape(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["report", str(path)])
    assert code in (0, 1, 2), (text[:80], code)
    assert "Traceback" not in err.getvalue(), text[:80]
    if text == _DIGITS and hasattr(sys, "get_int_max_str_digits"):
        # past the digit limit json.load raises a plain ValueError
        assert code == 1
        assert f"{path}: unreadable certificate: " in err.getvalue()
