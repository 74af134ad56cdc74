"""Output checks for every request the worker ran.

The references do not come from the code under test at run time: the
golden certificates in ``tests/golden``, the stored table in
``expected.json`` (see ``make_expected.py``), and values recomputed here
with ``fractions`` and ``numpy``.  Only a representative that differs
from the stored, already verified one is sent to ``verify_tau``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from fractions import Fraction

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
TOL = 1e-12


def fingerprint(matrix_json) -> str:
    text = json.dumps(matrix_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cell_key(d: int, variant: str, name: str) -> str:
    return f"{d}/{variant}/{name}"


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def _frac_json(x: Fraction) -> list:
    return [str(x.numerator), str(x.denominator)]


def _matrix(m_json) -> np.ndarray:
    """Certificate matrix as complex floats; exact for the small
    integer entries of gamma matrices."""
    return np.array(
        [
            [
                float(Fraction(int(e["re"][0]), int(e["re"][1])))
                + 1j * float(Fraction(int(e["im"][0]), int(e["im"][1])))
                for e in row
            ]
            for row in m_json
        ]
    )


class Checker:
    """Judges one run: ``check(request, record)`` returns None when the
    output is right, else a one-line reason."""

    def __init__(self, root: pathlib.Path, workdir: pathlib.Path, expected: dict):
        self.root = root
        self.workdir = workdir
        self.expected = expected
        self.kinds = {}  # request id -> certificate kind, for report checks

    def cert_path(self, req_id: str) -> pathlib.Path:
        return self.workdir / f"{req_id}.json"

    def check(self, req: dict, rec: dict) -> str | None:
        if rec.get("error"):
            return f"exception: {rec['error']}"
        try:
            return self._check(req, rec)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"

    def _check(self, req: dict, rec: dict) -> str | None:
        if req["kind"] == "lib":
            return getattr(self, "_" + req["op"])(req, rec["result"])
        if rec["exit"] != 0:
            return f"exit code {rec['exit']}"
        command = req["argv"][0]
        if command == "report":
            return self._report(req, rec["stdout"])
        path = self.cert_path(req["id"])
        try:
            raw = path.read_bytes()
            cert = json.loads(raw)
        except (OSError, ValueError) as exc:
            return f"unreadable certificate: {exc}"
        self.kinds[req["id"]] = command
        if cert.get("kind") != command:
            return f"certificate kind {cert.get('kind')!r}"
        return getattr(self, "_" + command.replace("-", "_"))(req, cert, raw)

    # -- solver outputs ------------------------------------------------

    def _representative(self, req, table, name, rep_json, mass) -> str | None:
        key = cell_key(req["d"], req["variant"], name)
        want = table[key][2]
        if rep_json is None:
            return None if want is None else f"{name}: no representative"
        if want is not None and fingerprint(rep_json) == want:
            return None  # byte-equal to the stored representative, verified
        from diracsym.exact import ExactMatrix
        from diracsym.symmetry import CANDIDATES, model_for_variant, verify_tau

        model = model_for_variant(req["d"], req["variant"], mass=mass)
        if not verify_tau(model, CANDIDATES[name], ExactMatrix.from_json(rep_json)):
            return f"{name}: representative fails verify_tau"
        return None

    def _classify(self, req, cert, raw) -> str | None:
        d, v = req["d"], req["variant"]
        if v == "single":
            golden = self.root / "tests" / "golden" / f"classify_d{d}.json"
            if raw != golden.read_bytes():
                return f"d={d} single row differs from {golden.name}"
        (row,) = cert["results"]["table"]
        if (row["d"], row["variant"]) != (d, v) or cert["results"]["mismatches"]:
            return "wrong row"
        table = self.expected["full"]
        if len(row["entries"]) != 7:
            return "wrong number of candidates"
        for name, entry in row["entries"].items():
            exists, dim, _ = table[cell_key(d, v, name)]
            if (entry["exists"], entry["dim"]) != (exists, dim):
                return f"{name}: verdict {entry['exists']}/{entry['dim']}, want {exists}/{dim}"
            err = self._representative(req, table, name, entry["representative"], 1)
            if err:
                return err
        return None

    def _solve_tau(self, req, cert, raw) -> str | None:
        res = cert["results"]
        table = self.expected[req["ansatz"]]
        name = req["symmetry"]
        exists, dim, _ = table[cell_key(req["d"], req["variant"], name)]
        if (res["exists"], res["dim"]) != (exists, dim):
            return f"verdict {res['exists']}/{res['dim']}, want mass-1 {exists}/{dim}"
        if len(res["basis"]) != dim:
            return "basis length differs from dim"
        return self._representative(
            req, table, name, res["invertible_representative"], Fraction(req["mass"])
        )

    # -- certify outputs -----------------------------------------------

    def _gamma(self, req, cert, raw) -> str | None:
        d = req["d"]
        res = cert["results"]
        if res["rep_dim"] != 2 ** (d // 2) or len(res["gammas"]) != d + 1:
            return "wrong gamma system shape"
        if not all(r["ok"] for r in res["relations_check"]):
            return "relations_check reports a failure"
        gs = [_matrix(g) for g in res["gammas"]]
        ident = np.eye(res["rep_dim"])
        for mu, a in enumerate(gs):
            for nu, b in enumerate(gs):
                eta = 0 if mu != nu else (1 if mu == 0 else -1)
                if np.abs(a @ b + b @ a - 2 * eta * ident).max() > TOL:
                    return f"Clifford relation fails at ({mu}, {nu})"
        return None

    def _omega2(self, req) -> Fraction:
        m = Fraction(req["mass"])
        return sum((Fraction(x) ** 2 for x in req["p"]), Fraction(0)) + m * m

    def _spectrum(self, req, cert, raw) -> str | None:
        res = cert["results"]
        if not res["ok"]:
            return "dispersion not ok"
        if res["omega2"] != _frac_json(self._omega2(req)):
            return f"omega2 {res['omega2']}, want {self._omega2(req)}"
        return None

    def _labels(self, req, cert, raw) -> str | None:
        if cert["results"] != self.expected["labels"][req["variant"]]:
            return "labels differ from the stored labels"
        return None

    def _report(self, req, stdout) -> str | None:
        target = req["target"]
        kind = self.kinds.get(target)
        if kind is None:
            return f"report target {target} produced no certificate"
        line = f"{self.cert_path(target)}: kind={kind} hash=ok"
        if line not in stdout.splitlines():
            return "report does not show a good hash"
        return None

    def _dispersion_check(self, req, result) -> str | None:
        if not result["ok"]:
            return "dispersion not ok"
        if Fraction(result["omega2"]) != self._omega2(req):
            return f"omega2 {result['omega2']}, want {self._omega2(req)}"
        return None

    def _density_evolve(self, req, result) -> str | None:
        rho = np.array([[complex(re, im) for re, im in row] for row in result["matrix"]])
        if abs(np.trace(rho) - 1) > TOL:
            return "trace is not 1"
        if np.abs(rho - rho.conj().T).max() > TOL:
            return "not Hermitian"
        return None
