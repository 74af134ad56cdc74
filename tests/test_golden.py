"""Golden-certificate stability: regeneration reproduces the shipped files."""

import json
import pathlib
import time

import pytest

from diracsym import verify_certificate
from diracsym.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIMS = (2, 4, 6, 8)


@pytest.mark.parametrize("d", DIMS)
def test_golden_certificates_verify(d):
    with open(GOLDEN / f"classify_d{d}.json") as fh:
        cert = json.load(fh)
    assert verify_certificate(cert)
    assert cert["kind"] == "classify"
    assert cert["input"]["dims"] == [d]


def test_golden_regeneration_is_byte_identical(tmp_path):
    t0 = time.monotonic()
    for d in DIMS:
        out = tmp_path / f"classify_d{d}.json"
        code = main(
            [
                "classify", "--dims", str(d), "--variants", "single",
                "--jobs", "4", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"classify_d{d}.json").read_bytes()
    assert time.monotonic() - t0 < 60.0


@pytest.mark.parametrize("variant", ["single", "single-", "doubled"])
def test_golden_labels_are_byte_identical(tmp_path, variant):
    out = tmp_path / f"labels_{variant}.json"
    code = main(["labels", "--variant", variant, "--mass", "7/3", "--out", str(out)])
    assert code == 0
    golden = GOLDEN / f"labels_{variant}.json"
    assert out.read_bytes() == golden.read_bytes()
    assert verify_certificate(json.loads(golden.read_text()))


# momenta with mixed signs, a zero and non-unit denominators at mass 3/7
SPECTRA = {
    4: "-2/3,5,-7/11,1/4",
    8: "1/2,-3,5/9,-7/4,0,11/13,-2,6/5",
}


@pytest.mark.parametrize("d", sorted(SPECTRA))
def test_golden_spectra_are_byte_identical(tmp_path, d):
    out = tmp_path / f"spectrum_d{d}.json"
    code = main(
        ["spectrum", "--dim", str(d), "--mass", "3/7", f"--p={SPECTRA[d]}", "--out", str(out)]
    )
    assert code == 0
    golden = GOLDEN / f"spectrum_d{d}.json"
    assert out.read_bytes() == golden.read_bytes()
    assert verify_certificate(json.loads(golden.read_text()))


# solve-tau emits the whole basis, where a classify row holds only
# representatives: a two-row class basis, an antilinear -1 square phase, a
# linear +1 one, and an empty cell whose four orbital inconsistencies
# (P1..P4) print their monomials; and two clifford2 cells, whose basis is
# the solution monomial's own encoding, phase included, not its string's
# closed form
SOLVE_TAU = {
    "solve_tau_d6_doubled_Tw": "--dim 6 --variant doubled --mass 5/3 --symmetry Tw",
    "solve_tau_d4_massless_C": "--dim 4 --variant massless --symmetry C",
    "solve_tau_d8_single_P": "--dim 8 --variant single --mass 3/7 --symmetry P",
    "solve_tau_d4_single_Tp-literal": "--dim 4 --symmetry Tp-literal",
    "solve_tau_d4_single_Tw_clifford2": (
        "--dim 4 --mass 3/7 --symmetry Tw --ansatz clifford2"
    ),
    "solve_tau_d6_massless_Tp_clifford2": (
        "--dim 6 --variant massless --symmetry Tp --ansatz clifford2"
    ),
}


@pytest.mark.parametrize("name", sorted(SOLVE_TAU))
def test_golden_solve_tau_is_byte_identical(tmp_path, name):
    out = tmp_path / f"{name}.json"
    assert main(["solve-tau", *SOLVE_TAU[name].split(), "--out", str(out)]) == 0
    golden = GOLDEN / f"{name}.json"
    assert out.read_bytes() == golden.read_bytes()
    assert verify_certificate(json.loads(golden.read_text()))


@pytest.mark.parametrize("d", [4, 8])
def test_golden_gammas_are_byte_identical(tmp_path, d):
    out = tmp_path / f"gamma_d{d}.json"
    assert main(["gamma", "--dim", str(d), "--out", str(out)]) == 0
    golden = GOLDEN / f"gamma_d{d}.json"
    assert out.read_bytes() == golden.read_bytes()
    assert verify_certificate(json.loads(golden.read_text()))


def test_golden_rows_record_expected_pattern():
    rows = {}
    for d in DIMS:
        with open(GOLDEN / f"classify_d{d}.json") as fh:
            cert = json.load(fh)
        row = cert["results"]["table"][0]
        rows[d] = {k: v["exists"] for k, v in row["entries"].items()}
        # single massive models have one-dimensional solution spaces at most
        for entry in row["entries"].values():
            assert entry["dim"] <= 1
    assert rows[6] == rows[2]
    assert rows[8] == rows[4]
    assert rows[2]["C"] and not rows[2]["Tw"]
    assert rows[4]["Tw"] and not rows[4]["C"]
