"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest -q perfbench

Smoke runs use tiny budgets, so the whole file takes well under a minute.
"""

import json
import pathlib

import pytest

import checks
import run
import spans
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(workload):
    a = workloads.requests_for(workload, 1, 20)
    assert a == workloads.requests_for(workload, 1, 20)
    assert a != workloads.requests_for(workload, 2, 20)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3, workloads.HELD_OUT_SEED])
def test_list_size_depends_on_budget_not_seed(workload, seed):
    # requests_for raises if a request repeats
    def shape(seed):
        return sorted(
            repr((r.get("argv", [r.get("op")])[0], r.get("d"), r.get("variant"), r.get("ansatz")))
            for r in workloads.requests_for(workload, seed, 20)
        )

    assert shape(seed) == shape(1)


def test_solve_scatter_never_shares_a_model():
    reqs = workloads.requests_for("solve-scatter", 1, 60)
    models = [(r["d"], r["variant"], r["mass"]) for r in reqs]
    assert len(models) == len(set(models))


def test_certify_reports_follow_their_certificate():
    reqs = workloads.requests_for("certify", 1, 20)
    pos = {r["id"]: i for i, r in enumerate(reqs)}
    reports = [r for r in reqs if r.get("argv", [""])[0] == "report"]
    producers = [r for r in reqs if r["kind"] == "cli" and r["argv"][0] != "report"]
    assert len(reports) == len(producers)
    assert all(pos[r["target"]] < pos[r["id"]] for r in reports)


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(1, 92)]
    value, pct, beyond = run.tail(lat)
    assert value == 81.0 and beyond == 10 and sum(x > value for x in lat) == 10
    assert pct == pytest.approx(100 * 81 / 91)
    # with 21 samples p52 is still at or above the median
    assert run.tail([float(i) for i in range(21)])[:2] == (10.0, pytest.approx(100 * 11 / 21))
    # below that there is no tail with ten beyond: the maximum stands in
    assert run.tail([float(i) for i in range(13)]) == (12.0, 100.0, 0)


def test_expected_table_agrees_with_goldens():
    expected = checks.load_expected()
    assert len(expected["full"]) == 112
    for d in (2, 4, 6, 8):
        golden = json.loads((ROOT / "tests" / "golden" / f"classify_d{d}.json").read_text())
        for name, entry in golden["results"]["table"][0]["entries"].items():
            exists, dim, fp = expected["full"][checks.cell_key(d, "single", name)]
            assert (exists, dim) == (entry["exists"], entry["dim"])
            rep = entry["representative"]
            assert fp == (checks.fingerprint(rep) if rep else None)


def _metric_names(section):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    res = run.run_workload(workload, 3, 0.3, trace=False)
    assert res["attempted"] >= 1
    assert res["failures"] == []
    out = run.result_json(res)
    assert out["correct"] and set(out["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    a = run.run_workload("solve-scatter", 3, 0.3, trace=True)
    b = run.run_workload("solve-scatter", 3, 0.3, trace=True)
    out = run.result_json(a)
    assert out["correct"] and set(out["metrics"]) == _metric_names("per_layer")
    assert out["metrics"]["models.generator.calls"]["value"] > 0
    # counts repeat exactly for one seed
    for name, m in out["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] == b["layers"]["metrics"][name], name


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    outer = tracer._wrap("cli.main", lambda: inner())
    inner = tracer._wrap("cli.emit", lambda: sum(range(20000)))
    sid = tracer.begin_request(0)
    outer()
    tracer.end_request(sid)
    s = tracer.summary()["spans"]
    assert s["cli.main"]["self_s"] == pytest.approx(s["cli.main"]["s"] - s["cli.emit"]["s"])
    assert s["request"]["calls"] == 1 and s["cli.emit"]["calls"] == 1


def _corrupt_verdict(workdir, requests):
    req = next(r for r in requests if r["argv"][0] == "solve-tau")
    path = workdir / f"{req['id']}.json"
    cert = json.loads(path.read_text())
    cert["results"]["dim"] += 1
    path.write_text(json.dumps(cert))


def _corrupt_representative(workdir, requests):
    for req in requests:
        path = workdir / f"{req['id']}.json"
        cert = json.loads(path.read_text())
        rep = cert["results"]["invertible_representative"]
        if rep is not None:
            rep[0][0] = {"re": ["7", "1"], "im": ["0", "1"]}
            path.write_text(json.dumps(cert))
            return
    raise AssertionError("no representative to corrupt")


@pytest.mark.parametrize("corrupt", [_corrupt_verdict, _corrupt_representative])
def test_corrupted_output_counts_as_failed(monkeypatch, corrupt):
    real_child = run._child

    def corrupting_child(args, t_begin):
        proc = real_child(args, t_begin)
        if args[0].endswith("worker.py"):
            workdir = pathlib.Path(args[2])
            corrupt(workdir, json.loads((workdir / "requests.json").read_text()))
        return proc

    monkeypatch.setattr(run, "_child", corrupting_child)
    res = run.run_workload("solve-scatter", 1, 0.3, trace=False)
    assert res["failed"] == 1
    assert res["fail_ratio"] == 1 / res["attempted"]
    assert not run.result_json(res)["correct"]
