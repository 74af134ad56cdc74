"""diracsym benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload classify-table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from anywhere inside a source checkout; it imports diracsym from
``src/`` and writes only under ``.perfbench/``.  A run times the set-up of
fresh interpreters, runs the workload's seeded request list in one fresh
worker interpreter (``worker.py``), checks every output (``checks.py``),
prints each metric with its unit and sample count, and ends with one JSON
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics of
a traced worker with ``--trace 1``.  ``--workload all`` runs every
workload untraced and traced and also prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))  # verify_tau for changed representatives

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0
SETUP_LAUNCHES = 9
TAIL_BEYOND = 10
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import diracsym.cli; "
    "diracsym.cli.build_parser(); print(time.perf_counter() - t0)"
)
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
# printed for every workload; BENCHMARK.json omits cells_per_s (no cells on
# certify) and fail_ratio (0 when correct), which "failed" already carries
RESULT_METRICS = ("setup_s", "wall_s", "req_p50_s", "req_tail_s", "peak_rss_mb")


class BenchError(Exception):
    """The run could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(t_begin: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t_begin)
    if left <= 0:
        raise BenchError(f"deadline of {DEADLINE_S:.0f} s passed")
    return left


def _child(args: list, t_begin: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=_env(), capture_output=True, text=True,
            timeout=_remaining(t_begin), cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"child timed out: {exc}") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(t_begin: float) -> list[float]:
    """Import-and-parser time of fresh interpreters; the first launch,
    which may compile bytecode, is not counted."""
    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        out = _child(["-c", SETUP_SNIPPET], t_begin).stdout
        if i:
            samples.append(float(out.strip().splitlines()[-1]))
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it:
    (value, percentile, samples beyond).  When that percentile would lie
    below the median (fewer than 2 * TAIL_BEYOND + 1 samples), it is no
    tail, and the maximum is reported with 0 samples beyond."""
    s = sorted(latencies)
    n = len(s)
    rank = n - TAIL_BEYOND - 1
    if rank < n // 2:
        return s[-1], 100.0, 0
    return s[rank], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_begin = time.monotonic()
    requests = workloads.requests_for(workload, seed, seconds)
    base = ROOT / ".perfbench"
    workdir = base / f"run-{os.getpid()}-{workload}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        (workdir / "requests.json").write_text(json.dumps(requests))
        setup = [] if trace else measure_setup(t_begin)
        _child([str(HERE / "worker.py"), "--workdir", str(workdir), "--trace", str(int(trace))], t_begin)
        out = json.loads((workdir / "records.json").read_text())
        checker = checks.Checker(ROOT, workdir, checks.load_expected())
        failures = []
        for req, rec in zip(requests, out["records"], strict=True):
            reason = checker.check(req, rec)
            if reason:
                failures.append(f"{req['id']} {' '.join(req.get('argv') or [req.get('op', '')])}: {reason}")
        if trace:
            shutil.move(workdir / "spans.npz", base / f"spans-{workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    latencies = [r["latency_s"] for r in out["records"]]
    cells = sum(r.get("cells", 0) for r in requests)
    tail_value, tail_pct, beyond = tail(latencies)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures,
        "cells": cells,
        "setup_samples": setup,
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": out["wall_s"],
        "cells_per_s": cells / out["wall_s"] if cells else None,
        "req_p50_s": statistics.median(latencies),
        "req_tail_s": tail_value,
        "req_tail_pct": tail_pct,
        "req_tail_beyond": beyond,
        "peak_rss_mb": out["peak_rss_mb"],
        "fail_ratio": len(failures) / len(requests),
        "layers": out.get("trace"),
        "requests": requests,
        "latencies": latencies,
    }


def _line(name: str, value, note: str) -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<34} {shown:>12} {UNITS.get(name, ''):<6} {note}"


def describe(res: dict) -> list[str]:
    n = res["attempted"]
    lines = [
        f"# {res['workload']} seed={res['seed']} seconds={res['seconds']:g} "
        f"trace={int(res['trace'])}: {n} requests, {res['failed']} failed"
    ]
    lines += [f"  FAILED {f}" for f in res["failures"]]
    if not res["trace"]:
        k = len(res["setup_samples"])
        lines += [
            _line("setup_s", res["setup_s"], f"median of {k} interpreter launches"),
            _line("wall_s", res["wall_s"], f"{n} requests in one interpreter, jobs=1"),
            _line("cells_per_s", res["cells_per_s"], f"{res['cells']} intertwiner cells"),
            _line("req_p50_s", res["req_p50_s"], f"median of {n} requests"),
            _line(
                "req_tail_s", res["req_tail_s"],
                f"p{res['req_tail_pct']:.1f} of {n} requests, {res['req_tail_beyond']} beyond",
            ),
            _line("peak_rss_mb", res["peak_rss_mb"], "worker process, ru_maxrss"),
            _line("fail_ratio", res["fail_ratio"], f"{res['failed']}/{n} requests"),
        ]
        return lines
    layers = res["layers"]
    lines.append(f"  {'span':<34} {'calls':>9} {'incl s':>10} {'self s':>10}")
    for name, row in layers["spans"].items():
        lines.append(f"  {name:<34} {row['calls']:>9} {row['s']:>10.4f} {row['self_s']:>10.4f}")
    lines.append("  per-layer metrics:")
    for name, value in layers["metrics"].items():
        lines.append(f"  {name:<34} {value:>12.6g} {spans.unit(name)}")
    lines.append(f"  {'trace.wall_s':<34} {res['wall_s']:>12.6g}")
    lines += _d8_split(res)
    return lines


def _d8_split(res: dict) -> list[str]:
    """Generator vs elimination time per cell of the d=8 single requests."""
    per = res["layers"]["per_request"]
    out = []
    for i, req in enumerate(res["requests"]):
        if req.get("d") != 8 or req.get("variant") != "single" or req.get("ansatz", "full") != "full":
            continue
        cells = req["cells"]
        gen = per["models.generator"][i] / cells
        elim = (per["exact.rref.add_row"][i] + per["exact.rref.nullspace"][i]) / cells
        assembly = per["symmetry.solve_tau"][i] / cells
        out.append(
            f"  d=8 single, per cell of {' '.join(req['argv'][:5])}: generators {gen:.3f} s, "
            f"elimination (add_row + nullspace) {elim:.3f} s, solve_tau self {assembly:.3f} s"
        )
    return out


def result_json(res: dict) -> dict:
    if res["trace"]:
        layers = res["layers"]["metrics"]
        metrics = {k: v for k, v in layers.items() if k in spans.COUNTED or spans.METRICS[k][2]}
        metrics["trace.wall_s"] = res["wall_s"]
        units = {k: spans.unit(k) for k in metrics}
    else:
        metrics = {k: res[k] for k in RESULT_METRICS}
        units = {k: UNITS[k] for k in metrics}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "diracsym" / "__init__.py").is_file():
        print(f"error: no diracsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no golden certificates under {ROOT / 'tests' / 'golden'}", file=sys.stderr)
        return 1
    try:
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(res)))
            print(json.dumps(result_json(res)))
            return 0
        summary = {}
        for workload in workloads.WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, False)
            traced = run_workload(workload, args.seed, args.seconds, True)
            print("\n".join(describe(plain) + describe(traced)))
            overhead = traced["wall_s"] - plain["wall_s"]
            print(f"  tracing overhead: {overhead:.3f} s ({overhead / plain['wall_s']:.1%} of wall_s)")
            summary[workload] = {
                "untraced": result_json(plain),
                "traced": result_json(traced),
                "trace_overhead_s": overhead,
            }
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
