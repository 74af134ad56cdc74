"""Command-line interface: certificates on disk and the exit-code contract."""

import json

import pytest

from diracsym import ExactMatrix, model_for, verify_certificate
from diracsym import cli
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
    assert proj_equal(rep, model_for(4, mass=0).gamma.gamma0)


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
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, argv
    monkeypatch.undo()
    assert run(["classify", "--dims", "2", "--variants", "bogus"]) == 1
    assert run(["spectrum", "--dim", "4", "--mass", "1", "--p", "1,2"]) == 1
    assert run(["report", str(tmp_path / "missing.json")]) == 1
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[]")
    capsys.readouterr()
    assert run(["report", str(not_an_object)]) == 1
    err = capsys.readouterr().err
    assert "top-level JSON is not an object" in err and "Traceback" not in err
    assert run(["solve-tau", "--dim", "2", "--symmetry", "Tw", "--mass", "1/0"]) == 1


def test_failed_internal_check_exits_2(monkeypatch, capsys):
    def failing(model):
        raise ArithmeticError("label multiplicities do not sum to rep_dim")

    monkeypatch.setattr(cli, "little_group_labels", failing)
    assert run(["labels", "--dim", "4"]) == 2
    assert "rep_dim" in capsys.readouterr().err


def test_stdout_json_when_no_out(capsys):
    assert run(["gamma", "--dim", "2"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert verify_certificate(cert)


def test_out_and_json_prints_and_writes(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["gamma", "--dim", "2", "--json", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == load(out)
