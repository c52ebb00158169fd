"""Span recorder for the traced run.

Wraps the public functions of each layer from outside the program: every
attribute that holds one of the original functions -- in every loaded
``gencliff`` module and class -- is rebound to a wrapper.  Rebinding every
holder matters because ``cli`` imports ``theorem_1_1``, ``verify_triple`` and
``check_relations`` by name, and the kernel calls ``p_mul`` through its
module globals.  Nothing under ``src/`` is edited.

A span is (name, parent span, start, end); every span of one file belongs to
the file's run id.  Spans are kept in memory in typed arrays and written out
once, at the end of the run, as one JSON header line followed by the raw
columns.  ``summarize`` turns a span file into per-layer metrics; a layer's
self time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from contextlib import contextmanager

KERNEL = "<kernel>"         # whichever module gencliff._core selected

# (metric prefix, module, attribute path in that module)
TARGETS = (
    ("kernel.sec_dorfman", KERNEL, "sec_dorfman"),
    ("kernel.sec_jacobi_residual", KERNEL, "sec_jacobi_residual"),
    ("kernel.flux_contract", KERNEL, "flux_contract"),
    ("kernel.mat_apply_const", KERNEL, "mat_apply_const"),
    ("kernel.p_mul", KERNEL, "p_mul"),
    ("scalar.ScalarField.__init__", "gencliff.scalar", "ScalarField.__init__"),
    ("scalar.parse_expr", "gencliff.scalar", "parse_expr"),
    ("polygcd.p_gcd", "gencliff.polygcd", "p_gcd"),
    ("polygcd.p_divexact", "gencliff.polygcd", "p_divexact"),
    ("cartan.exterior_d", "gencliff.cartan", "exterior_d"),
    ("cartan.interior", "gencliff.cartan", "interior"),
    ("cartan.lie_derivative", "gencliff.cartan", "lie_derivative"),
    ("courant.dorfman", "gencliff.courant", "dorfman"),
    ("courant.dorfman_twisted", "gencliff.courant", "dorfman_twisted"),
    ("courant.pairing", "gencliff.courant", "pairing"),
    ("gcs.vanishes", "gencliff.gcs", "vanishes"),
    ("gcs.EndField.__matmul__", "gencliff.gcs", "EndField.__matmul__"),
    ("gcs.EndField.apply", "gencliff.gcs", "EndField.apply"),
    ("clifford.check_relations", "gencliff.clifford", "check_relations"),
    ("clifford.verify_triple", "gencliff.clifford", "verify_triple"),
    ("clifford.induce", "gencliff.clifford", "induce"),
    ("clifford.project", "gencliff.clifford", "project"),
    ("clifford.theorem_1_1", "gencliff.clifford", "theorem_1_1"),
    ("twistor.rot_T", "gencliff.twistor", "rot_T"),
    ("twistor.rotate_family", "gencliff.twistor", "rotate_family"),
    ("twistor.connection_data", "gencliff.twistor", "connection_data"),
    ("twistor.check_dI_commutator", "gencliff.twistor", "check_dI_commutator"),
    ("twistor.check_flatness", "gencliff.twistor", "check_flatness"),
    ("twistor.twistor_structure", "gencliff.twistor", "twistor_structure"),
    ("twistor.theorem_1_3", "gencliff.twistor", "theorem_1_3"),
    ("tduality.check_intertwine", "gencliff.tduality", "check_intertwine"),
    ("tduality.props_5_2_to_5_4", "gencliff.tduality", "props_5_2_to_5_4"),
    ("tduality.conjugate", "gencliff.tduality", "conjugate"),
)

# theorem_1_1 lists the families it matched against the closed-form anomaly
# at the end of its note (cli drops the note from the report).
_ANOMALY_MARK = "(non-tensorial): "


def _count(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _theorem_1_1(counters, args, rep):
    note = rep.note
    matched = (set(note.split(_ANOMALY_MARK, 1)[1].split(", "))
               if _ANOMALY_MARK in note else set())
    _count(counters, "clifford.theorem_1_1.samples",
           sum(f.sample_count for f in rep.families))
    _count(counters, "clifford.theorem_1_1.families_anomaly_matched",
           len(matched))
    _count(counters, "clifford.theorem_1_1.families_vanished",
           sum(1 for f in rep.families
               if f.vanished and f.name not in matched))


# Counters read at a wrapped boundary: (counters, call args, return value).
HOOKS = {
    "kernel.p_mul": lambda c, a, r: _count(
        c, "kernel.p_mul.term_products", len(a[0]) * len(a[1])),
    "gcs.vanishes": lambda c, a, r: _count(
        c, "gcs.vanishes.samples", r.sample_count),
    "clifford.theorem_1_1": _theorem_1_1,
    "twistor.theorem_1_3": lambda c, a, r: _count(
        c, "twistor.theorem_1_3.nijenhuis_checks", r.nijenhuis_checks),
    "tduality.check_intertwine": lambda c, a, r: _count(
        c, "tduality.check_intertwine.checks", r.checks),
}
TARGET_NAMES = frozenset(t[0] for t in TARGETS)
COUNTERS = ("kernel.p_mul.term_products", "gcs.vanishes.samples",
            "clifford.theorem_1_1.samples",
            "clifford.theorem_1_1.families_vanished",
            "clifford.theorem_1_1.families_anomaly_matched",
            "twistor.theorem_1_3.nijenhuis_checks",
            "tduality.check_intertwine.checks")

_COLUMNS = (("name", "H"), ("parent", "q"), ("start", "d"), ("end", "d"))


class Recorder:
    """In-memory span store of one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.cols = {c: array.array(t) for c, t in _COLUMNS}
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _name_index(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, idx):
        sid = len(self.cols["end"])
        self.cols["name"].append(idx)
        self.cols["parent"].append(self.stack[-1])
        self.cols["end"].append(0.0)
        self.stack.append(sid)
        self.cols["start"].append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.cols["end"][sid] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        """A span around a block of driver code, not around a function."""
        sid = self._open(self._name_index(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name, fn, hook=None):
        idx = self._name_index(name)
        opened, closed, counters = self._open, self._close, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = opened(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(sid)
            if hook is not None:
                hook(counters, args, result)
            return result
        return traced

    def dump(self, path):
        header = {"run_id": self.run_id, "names": self.names,
                  "count": len(self.cols["end"]), "counters": self.counters,
                  "columns": _COLUMNS, "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c, _ in _COLUMNS:
                self.cols[c].tofile(fh)


def _resolve(module):
    if module == KERNEL:
        return sys.modules["gencliff._core"].kernel
    return sys.modules[module]


def install(rec):
    """Wrap every target and rebind every attribute that holds it."""
    wrappers = {}
    for name, module, path in TARGETS:
        owner = _resolve(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = vars(owner)[attr]
        wrappers[id(fn)] = (name, fn, rec.wrap(name, fn, HOOKS.get(name)))
    rebound = set()
    for modname, mod in list(sys.modules.items()):
        if modname != "gencliff" and not modname.startswith("gencliff."):
            continue
        holders = [mod] + [v for v in vars(mod).values()
                           if isinstance(v, type)
                           and v.__module__.startswith("gencliff")]
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[1] is val:
                    setattr(holder, attr, hit[2])
                    rebound.add(hit[0])
    missing = TARGET_NAMES - rebound
    if missing:
        raise RuntimeError(f"trace targets not rebound: {sorted(missing)}")


def load(path):
    """Read a span file: (header, {column: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header["byteorder"] != sys.byteorder:
            raise ValueError("span file written with another byte order")
        cols = {}
        for c, t in header["columns"]:
            cols[c] = array.array(t)
            cols[c].fromfile(fh, header["count"])
    return header, cols


def summarize(header, cols):
    """Per-target ``.calls`` and ``.self_s``, the counters, and the share of
    ScalarField normalizations that reach the hard GCD (``p_gcd``).  Spans
    that are not targets (the driver's roots) only serve as parents."""
    names = header["names"]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    name, parent, start, end = (cols[c] for c, _ in _COLUMNS)
    init = names.index("scalar.ScalarField.__init__")
    gcd = names.index("polygcd.p_gcd")
    gcd_from_init = 0
    for sid in range(header["count"]):
        k = name[sid]
        dur = end[sid] - start[sid]
        calls[k] += 1
        self_s[k] += dur
        p = parent[sid]
        if p >= 0:
            self_s[name[p]] -= dur
            if k == gcd and name[p] == init:
                gcd_from_init += 1
    out = {}
    for k, n in enumerate(names):
        if n in TARGET_NAMES:
            out[f"{n}.calls"] = calls[k]
            out[f"{n}.self_s"] = self_s[k]
    out.update(header["counters"])
    out["polygcd.p_gcd.per_normalization"] = (
        gcd_from_init / calls[init] if calls[init] else 0.0)
    return out
