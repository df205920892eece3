"""Spans around the shellbound package's layer boundaries, installed from outside.

Tracer.install replaces each function listed in LAYERS, in every loaded
shellbound module that binds it (the package re-exports names, and modules
import them with ``from ... import``), by a wrapper that records one span per
call: its name, start, end, parent span and item id, plus the counts that
layer has (kernel samples, geometry-cache builds and their bytes, repeated
pair integrals).  Tracer.uninstall puts the originals back.

Spans are kept in memory, one column per field, and written out with save().
install() also measures, once, how long a wrapper runs outside its span's
own start and end stamps; layer_totals subtracts that for every direct
child span, so a parent's self time does not include its children's
tracing cost.
The tracer keeps a single span stack, so it assumes the package runs on one
thread; the package starts its own thread pool only when SHELLBOUND_THREADS
is above 1, and install refuses that setting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  Span names drop the leading underscore of
# _quadrature so that they are valid metric names.
LAYERS = (
    ("shellbound.geometry", "build_surface", "geometry.build_surface"),
    ("shellbound._quadrature", "_diag_geometry", "quadrature.patch_geometry"),
    ("shellbound._quadrature", "_pair_geometry", "quadrature.pair_geometry"),
    ("shellbound._quadrature", "diag_weighted_sum", "quadrature.diag_sum"),
    ("shellbound._quadrature", "offdiag_weighted_sum", "quadrature.offdiag_sum"),
    ("shellbound.kernels", "static_kernel_array", "kernels.static_kernel"),
    ("shellbound.principal", "pair_integral", "principal.pair_integral"),
    ("shellbound.principal", "assemble_phi", "principal.assemble_phi"),
    ("shellbound.principal", "solve_ground_state", "principal.solve_ground_state"),
    ("shellbound.principal", "energy_from_coupling", "principal.energy_from_coupling"),
    ("shellbound.jacobi", "jacobi_eigh", "jacobi.eigh"),
    ("shellbound.cli", "load_config", "cli.load_config"),
    ("shellbound.variational", "solve_variational", "variational.solve_variational"),
    ("shellbound.bounds", "gersgorin_energy_bound", "bounds.gersgorin_energy_bound"),
    ("shellbound.hybrid", "solve_hybrid_ground_state", "hybrid.solve_hybrid_ground_state"),
)

_COLUMNS = {
    "name": "i",
    "parent": "i",
    "item": "i",
    "start": "d",
    "end": "d",
    "samples": "q",
    "built": "b",
    "nbytes": "q",
    "repeat": "b",
}


class Tracer:
    def __init__(self):
        self.cols = {key: array(code) for key, code in _COLUMNS.items()}
        self.names: list[str] = []
        self.items: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        self._item = self._intern("items", "")
        self._seen_pairs: dict[int, set] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.child_overhead = 0.0

    def _intern(self, table: str, text: str) -> int:
        key = (table, text)
        if key not in self._ids:
            values = getattr(self, table)
            self._ids[key] = len(values)
            values.append(text)
        return self._ids[key]

    def set_item(self, item: str) -> None:
        """Attribute the spans that follow to item (a job, a solve, "setup")."""
        self._item = self._intern("items", item)

    def _open(self, name_id: int) -> int:
        c = self.cols
        idx = len(c["name"])
        c["name"].append(name_id)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["item"].append(self._item)
        c["samples"].append(0)
        c["built"].append(0)
        c["nbytes"].append(0)
        c["repeat"].append(0)
        c["end"].append(0.0)
        self._stack.append(idx)
        c["start"].append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.cols["end"][idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern("names", name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = self._intern("names", name)
        cache_info = getattr(fn, "cache_info", None)
        if name == "kernels.static_kernel":
            on_call = self._count_samples
        elif name == "principal.pair_integral":
            on_call = functools.partial(self._mark_repeat, inspect.signature(fn))
        else:
            on_call = None

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            if on_call is not None:
                on_call(idx, args, kwargs)
            misses = cache_info().misses if cache_info is not None else 0
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if cache_info is not None and cache_info().misses > misses:
                self.cols["built"][idx] = 1
                self.cols["nbytes"][idx] = sum(a.nbytes for a in out)
            return out

        functools.update_wrapper(traced, fn)
        if cache_info is not None:
            # _quadrature.clear_caches calls these through the module attribute.
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _count_samples(self, idx: int, args, kwargs) -> None:
        d = args[3] if len(args) > 3 else kwargs["d"]
        self.cols["samples"][idx] = int(np.size(d))

    def _mark_repeat(self, signature, idx: int, args, kwargs) -> None:
        a = signature.bind(*args, **kwargs).arguments
        # The key holds the meshes themselves, so an id cannot be reused
        # while the item lasts.
        key = (a["mesh_i"], a["mesh_j"], float(a["nu"]))
        seen = self._seen_pairs.setdefault(self._item, set())
        if key in seen:
            self.cols["repeat"][idx] = 1
        else:
            seen.add(key)

    def calibrate(self, calls: int = 2000, tries: int = 5) -> float:
        """Seconds a traced call spends in its wrapper outside its own span,
        which its parent's span would count: the median over tries of an
        empty parent's duration, less its children's, per child."""
        probe = Tracer()
        child = probe._wrap(lambda: None, "calibrate.child")
        per_call = []
        for _ in range(tries):
            with probe.span("calibrate.parent"):
                for _ in range(calls):
                    child()
            c = probe.cols
            parent = len(c["start"]) - calls - 1
            children = sum(e - s for s, e in zip(c["start"][parent + 1:], c["end"][parent + 1:]))
            per_call.append((c["end"][parent] - c["start"][parent] - children) / calls)
        return sorted(per_call)[tries // 2]

    def install(self) -> None:
        threads = os.environ.get("SHELLBOUND_THREADS", "")
        if threads not in ("", "1"):
            raise RuntimeError("tracing needs SHELLBOUND_THREADS unset or 1")
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.child_overhead = self.calibrate()
        for module_name, _, _ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "shellbound" or n.startswith("shellbound."))]
        for module_name, attr, name in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        self._seen_pairs.clear()

    def save(self, path: str) -> None:
        """Write every span to path as a .npz of columns plus name tables."""
        cols = {key: np.array(col, dtype=col.typecode) for key, col in self.cols.items()}
        tables = json.dumps({"names": self.names, "items": self.items,
                             "child_overhead": self.child_overhead})
        with open(path, "wb") as f:
            np.savez(f, tables=np.array(tables), **cols)


def load(path: str) -> dict:
    with np.load(path) as z:
        spans = {key: z[key] for key in _COLUMNS}
        spans.update(json.loads(str(z["tables"])))
    return spans


def layer_totals(spans: dict) -> dict[str, float]:
    """Additive totals per span name: calls, self_s, samples, builds, bytes,
    repeats, and calls and samples per (parent name, child name) pair.

    Self time is a span's duration less its direct children's, and less the
    measured wrapper cost (child_overhead) of each direct child."""
    names = spans["names"]
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    children = np.bincount(parent[has_parent], minlength=name.size)
    self_time = dur - child_time - children * spans.get("child_overhead", 0.0)
    totals: dict[str, float] = {}
    for nid, label in enumerate(names):
        mask = name == nid
        if not mask.any():
            continue
        totals[f"{label}.calls"] = int(mask.sum())
        totals[f"{label}.self_s"] = float(self_time[mask].sum())
        totals[f"{label}.samples"] = int(spans["samples"][mask].sum())
        totals[f"{label}.builds"] = int(spans["built"][mask].sum())
        totals[f"{label}.bytes"] = int(spans["nbytes"][mask].sum())
        totals[f"{label}.repeats"] = int(spans["repeat"][mask].sum())
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    for p_id, c_id in set(zip(parent_name[has_parent].tolist(), name[has_parent].tolist())):
        mask = (parent_name == p_id) & (name == c_id)
        key = f"{names[p_id]}>{names[c_id]}"
        totals[f"{key}.calls"] = int(mask.sum())
        totals[f"{key}.samples"] = int(spans["samples"][mask].sum())
    return totals


def add_totals(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}


def layer_metrics(t: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from summed layer_totals."""

    def get(key):
        return t.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    pg, pair = "quadrature.patch_geometry", "quadrature.pair_geometry"
    diag, off, kern = "quadrature.diag_sum", "quadrature.offdiag_sum", "kernels.static_kernel"
    solves = get("principal.solve_ground_state.calls") + get("principal.energy_from_coupling.calls")
    evals = (get("principal.solve_ground_state>principal.assemble_phi.calls")
             + get("principal.energy_from_coupling>principal.pair_integral.calls"))
    m = {
        f"{pg}.builds": get(f"{pg}.builds"),
        f"{pg}.hits": get(f"{pg}.calls") - get(f"{pg}.builds"),
        f"{pg}.self_s": get(f"{pg}.self_s"),
        f"{pg}.bytes": get(f"{pg}.bytes"),
        f"{pair}.builds": get(f"{pair}.builds"),
        f"{pair}.self_s": get(f"{pair}.self_s"),
        f"{pair}.bytes": get(f"{pair}.bytes"),
    }
    for s in (diag, off):
        m[f"{s}.calls"] = get(f"{s}.calls")
        m[f"{s}.samples"] = get(f"{s}>{kern}.samples")
        m[f"{s}.self_s"] = get(f"{s}.self_s")
    m[f"{kern}.calls"] = get(f"{kern}.calls")
    m[f"{kern}.samples"] = get(f"{kern}.samples")
    m[f"{kern}.self_s"] = get(f"{kern}.self_s")
    m["principal.assemble_phi.calls"] = get("principal.assemble_phi.calls")
    m["principal.evals_per_solve"] = ratio(evals, solves)
    m["principal.pair_integral.calls"] = get("principal.pair_integral.calls")
    m["principal.pair_integral.repeat_share"] = ratio(
        get("principal.pair_integral.repeats"), get("principal.pair_integral.calls"))
    m["jacobi.eigh.calls"] = get("jacobi.eigh.calls")
    for name in ("jacobi.eigh", "geometry.build_surface", "cli.load_config",
                 "variational.solve_variational", "bounds.gersgorin_energy_bound",
                 "hybrid.solve_hybrid_ground_state"):
        m[f"{name}.self_s"] = get(f"{name}.self_s")
    m["geometry.build_surface.calls"] = get("geometry.build_surface.calls")
    return m
