"""Span tracing of diracsym's layers, wrapped from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper in
every loaded ``diracsym`` module that holds a reference to it (methods are
replaced on their class).  A wrapper records one span: name, start, end,
parent span and request.  Spans stay in flat in-memory arrays until
``save`` writes them out.  Nothing is patched in an untraced run.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, class or None, attribute)
LAYERS = {
    "models.generator": ("diracsym.models", None, "generator"),
    "symmetry.transform": ("diracsym.symmetry", None, "transform"),
    "symmetry.solve_tau": ("diracsym.symmetry", None, "solve_tau"),
    "exact.rref.add_row": ("diracsym.exact", "_Rref", "add_row"),
    "exact.rref.nullspace": ("diracsym.exact", None, "nullspace_from_rref"),
    "exact.matmul": ("diracsym.exact", None, "matmul"),
    "exact.determinant": ("diracsym.exact", "ExactMatrix", "determinant"),
    "clifford.system_for": ("diracsym.clifford", None, "system_for"),
    "clifford.monomial_basis": ("diracsym.clifford", None, "monomial_basis"),
    "spectra.dispersion_check": ("diracsym.spectra", None, "dispersion_check"),
    "spectra.little_group_labels": ("diracsym.spectra", None, "little_group_labels"),
    "spectra.density_evolve": ("diracsym.spectra", None, "density_evolve"),
    "certificate.make_certificate": ("diracsym.certificate", None, "make_certificate"),
    "certificate.verify_certificate": ("diracsym.certificate", None, "verify_certificate"),
    "cli.emit": ("diracsym.cli", None, "_emit"),
    "cli.main": ("diracsym.cli", None, "main"),
}
REQUEST = "request"

# per-layer metric -> (span names, statistic, in the JSON result).  "s" is
# time inside the spans, callees included; "self_s" leaves out time in
# child spans.  A layer time goes into the JSON result only when every
# workload enters that layer: elsewhere it would be a structural zero,
# which no run can tell apart from a constant.  Every metric is printed.
METRICS = {
    "models.generator.calls": (("models.generator",), "calls", True),
    "models.generator.s": (("models.generator",), "s", False),
    "symmetry.transform.calls": (("symmetry.transform",), "calls", True),
    "symmetry.transform.s": (("symmetry.transform",), "s", False),
    "symmetry.solve_tau.calls": (("symmetry.solve_tau",), "calls", True),
    "symmetry.solve_tau.self_s": (("symmetry.solve_tau",), "self_s", False),
    "exact.rref.rows": (("exact.rref.add_row",), "calls", True),
    "exact.rref.s": (("exact.rref.add_row", "exact.rref.nullspace"), "s", True),
    "exact.matmul.calls": (("exact.matmul",), "calls", True),
    "exact.matmul.s": (("exact.matmul",), "s", True),
    "exact.determinant.calls": (("exact.determinant",), "calls", True),
    "exact.determinant.s": (("exact.determinant",), "s", False),
    "clifford.system_for.calls": (("clifford.system_for",), "calls", True),
    "clifford.system_for.s": (("clifford.system_for",), "s", True),
    "clifford.monomial_basis.calls": (("clifford.monomial_basis",), "calls", True),
    "clifford.monomial_basis.s": (("clifford.monomial_basis",), "s", False),
    "spectra.dispersion_check.calls": (("spectra.dispersion_check",), "calls", True),
    "spectra.dispersion_check.s": (("spectra.dispersion_check",), "s", False),
    "spectra.little_group_labels.calls": (("spectra.little_group_labels",), "calls", True),
    "spectra.little_group_labels.s": (("spectra.little_group_labels",), "s", False),
    "spectra.density_evolve.calls": (("spectra.density_evolve",), "calls", True),
    "spectra.density_evolve.s": (("spectra.density_evolve",), "s", False),
    "certificate.make_certificate.s": (("certificate.make_certificate",), "s", True),
    "certificate.verify_certificate.calls": (("certificate.verify_certificate",), "calls", True),
    "certificate.verify_certificate.s": (("certificate.verify_certificate",), "s", False),
    "cli.emit.s": (("cli.emit",), "s", True),
    "cli.main.self_s": (("cli.main",), "self_s", True),
}
# counters the wrappers keep beside the spans; all in the JSON result
COUNTED = ("exact.rref.rank", "exact.rref.nullity", "exact.rref.fill", "certificate.bytes")


def unit(metric: str) -> str:
    if metric == "certificate.bytes":
        return "bytes"
    return "s" if metric.endswith(("_s", ".s")) else "count"


class Tracer:
    def __init__(self):
        self.names = [REQUEST, *LAYERS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("i")
        self.counts = Counter()
        self._stack = [-1]
        self._request = -1

    def _open(self, name_idx: int) -> int:
        sid = len(self.name)
        self.name.append(name_idx)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, index: int) -> int:
        self._request = index
        return self._open(0)

    end_request = _close

    def _wrap(self, name: str, fn):
        idx = self.names.index(name)
        hook = self._count_rref if name == "exact.rref.nullspace" else None
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args)
            sid = tracer._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return wrapper

    def _count_rref(self, rref, n_unknowns) -> None:
        """Rank, nullity and fill of a finished elimination."""
        rank = len(rref.pivots)
        self.counts["exact.rref.rank"] += rank
        self.counts["exact.rref.nullity"] += n_unknowns - rank
        self.counts["exact.rref.fill"] += sum(len(r) for r in rref.pivots.values())

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "diracsym"]
        for name, (mod_name, cls_name, attr) in LAYERS.items():
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def count_bytes(self, path) -> None:
        """Add the size of a certificate file the CLI wrote."""
        self.counts["certificate.bytes"] += os.path.getsize(path)

    def arrays(self) -> dict:
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int32, count=n).copy()
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n).copy()
        request = np.frombuffer(self.request, dtype=np.int32, count=n).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name": name,
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent,
            "request": request,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name", "start", "end", "parent", "request")},
        )

    def summary(self) -> dict:
        """Per-layer metrics, a per-span table and per-request layer time."""
        a = self.arrays()
        n_names = len(self.names)
        calls = np.bincount(a["name"], minlength=n_names)
        incl = np.bincount(a["name"], weights=a["dur"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=a["self"], minlength=n_names)
        stat = {"calls": calls, "s": incl, "self_s": self_s}
        metrics = {}
        for metric, (names, kind, _) in METRICS.items():
            value = sum(stat[kind][self.names.index(s)] for s in names)
            metrics[metric] = int(value) if kind == "calls" else float(value)
        for metric in COUNTED:
            metrics[metric] = int(self.counts[metric])
        spans = {
            s: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, s in enumerate(self.names)
        }
        per_request = {}
        for s, kind in (
            ("models.generator", "dur"),
            ("exact.rref.add_row", "dur"),
            ("exact.rref.nullspace", "dur"),
            ("symmetry.solve_tau", "self"),
        ):
            mask = a["name"] == self.names.index(s)
            per_request[s] = np.bincount(
                a["request"][mask], weights=a[kind][mask], minlength=self._request + 1
            ).tolist()
        return {"metrics": metrics, "spans": spans, "per_request": per_request}
