"""Run one request list in this interpreter and record what happened.

``run.py`` starts this file in a fresh interpreter for every workload run:

    python3 perfbench/worker.py --workdir DIR --trace 0|1

It reads ``DIR/requests.json``, sends each request to diracsym's public
entry points one after another, and writes ``DIR/records.json``: per
request its latency, exit code, captured stdout and library result, plus
the wall time and peak resident memory of the whole list.  It judges
nothing; ``checks.py`` does, after this process has ended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import resource
import sys
import time
import traceback
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import diracsym.cli  # noqa: E402
import diracsym.models  # noqa: E402
import diracsym.spectra  # noqa: E402

WARM_UP = ["spectrum", "--dim", "2", "--mass", "1", "--p=0,0"]


def _lib_call(req: dict):
    """Run a library request; returns a thunk that makes its JSON result,
    so that the conversion stays outside the timed region."""
    d, mass = req["d"], Fraction(req["mass"])
    p = [Fraction(x) for x in req["p"]]
    if req["op"] == "dispersion_check":
        model = diracsym.models.model_for(d, mass=mass, doubled=True)
        out = diracsym.spectra.dispersion_check(model, p)
        return lambda: {"ok": out["ok"], "omega2": str(out["omega2"])}
    if req["op"] == "density_evolve":
        model = diracsym.models.model_for(d, mass=mass)
        vec = np.array([complex(re, im) for re, im in req["state"]])
        vec /= np.linalg.norm(vec)
        rho0 = diracsym.spectra.DensityState(p=tuple(p), matrix=np.outer(vec, vec.conj()))
        out = diracsym.spectra.density_evolve(p, model, rho0, req["t"], steps=req["steps"])
        return lambda: {
            "matrix": [[[z.real, z.imag] for z in row] for row in out.matrix.tolist()]
        }
    raise ValueError(f"unknown library op: {req['op']}")


def _cli_argv(req: dict, workdir: pathlib.Path) -> list:
    argv = [str(workdir / f"{a[1:]}.json") if a.startswith("@") else a for a in req["argv"]]
    if argv[0] != "report":
        argv += ["--out", str(workdir / f"{req['id']}.json")]
    return argv


def warm_up(workdir: pathlib.Path) -> None:
    """One untimed request, so that the first timed one does not pay the
    one-time lazy set-up (about 6 ms) of the command path.  No list holds
    a zero momentum, so this request never repeats one of them."""
    with contextlib.redirect_stdout(io.StringIO()):
        diracsym.cli.main(WARM_UP + ["--out", str(workdir / "warm-up.json")])


def run(requests: list, workdir: pathlib.Path, tracer) -> dict:
    records = []
    t_start = time.perf_counter()
    for index, req in enumerate(requests):
        rec = {"id": req["id"], "exit": None, "error": None, "stdout": "", "result": None}
        argv = _cli_argv(req, workdir) if req["kind"] == "cli" else None
        make_result = None
        out = io.StringIO()
        sid = tracer.begin_request(index) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if argv is not None:
                    rec["exit"] = diracsym.cli.main(argv)
                else:
                    make_result = _lib_call(req)
        except SystemExit as exc:
            rec["exit"] = exc.code
        except Exception:  # recorded and counted as a failed request
            rec["error"] = traceback.format_exc(limit=-3).strip().splitlines()[-1]
        t1 = time.perf_counter()
        if tracer:
            tracer.end_request(sid)
        rec["latency_s"] = t1 - t0
        if argv is not None:
            rec["stdout"] = out.getvalue()
            cert = workdir / f"{req['id']}.json"
            if tracer and argv[0] != "report" and cert.exists():
                tracer.count_bytes(cert)
        elif make_result is not None:
            rec["result"] = make_result()
        records.append(rec)
    wall = time.perf_counter() - t_start
    return {
        "records": records,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True, type=pathlib.Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    requests = json.loads((args.workdir / "requests.json").read_text())
    warm_up(args.workdir)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    result = run(requests, args.workdir, tracer)
    if tracer:
        result["trace"] = tracer.summary()
        tracer.save(args.workdir / "spans.npz")
    (args.workdir / "records.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
