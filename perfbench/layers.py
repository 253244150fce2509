"""Span recorder for the traced run.

`install()` wraps the public callables of each `orthosig` module from the
outside: the module attribute, every other module's imported name for the
same object, and class methods.  Each wrapped call records a span (name,
start, end, parent).  Self time is a span's duration minus the durations of
its child spans; it is accumulated as calls end, and the first
`SPAN_CAP` spans are also kept and written out by `Recorder.dump`.

The private construction rungs and per-stage decode steps are not wrapped:
their time shows up in the self time of the public callable above them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from time import perf_counter

SPAN_CAP = 200_000

# (metric name, module, attribute path); several paths may share a name.
TARGETS = [
    ("fields.mat_mul", "fields", "FqContext.mat_mul"),
    ("fields.mat_vec", "fields", "FqContext.mat_vec"),
    ("fields.rref", "fields", "FqContext.rref"),
    ("fields.det", "fields", "FqContext.det"),
    ("fields.vec_ops", "fields", "FqContext.v_add"),
    ("fields.vec_ops", "fields", "FqContext.v_scale"),
    ("fields.vec_ops", "fields", "FqContext.v_neg"),
    ("matgroups.Mat.mul", "matgroups", "Mat.__mul__"),
    ("matgroups.Mat.init", "matgroups", "Mat.__init__"),
    ("matgroups.Mat.inv", "matgroups", "Mat.inv"),
    ("matgroups.Mat.pow", "matgroups", "Mat.pow"),
    ("matgroups.element_order", "matgroups", "element_order"),
    ("matgroups.mulclose", "matgroups", "mulclose"),
    ("matgroups.singer_generator", "matgroups", "singer_generator"),
    ("matgroups.standard_generators", "matgroups", "standard_generators"),
    ("forms.canon", "forms", "QuadraticSpace.canon"),
    ("forms.isotropic_points", "forms", "QuadraticSpace.isotropic_points"),
    ("forms.membership", "forms", "membership"),
    ("forms.generators", "forms", "o_generators"),
    ("forms.generators", "forms", "so_generators"),
    ("forms.enumerate_isometry_group", "forms", "enumerate_isometry_group"),
    ("forms.align_spaces", "forms", "align_spaces"),
    ("forms.build_space", "forms", "build_space"),
    ("spreads.act_subspace", "spreads", "act_subspace"),
    ("spreads.subspace", "spreads", "subspace"),
    ("spreads.span_points", "spreads", "span_points"),
    ("spreads.schreier_transversal", "spreads", "schreier_transversal"),
    ("spreads.verify_partition", "spreads", "verify_partition"),
    ("spreads.PartialSpread.check_pairwise", "spreads", "PartialSpread.check_pairwise"),
    ("lscore.spread_construction", "lscore", "spread_construction"),
    ("lscore.ts_subspace_transporters", "lscore", "ts_subspace_transporters"),
    ("lscore.canonical_ls", "lscore", "canonical_ls"),
    ("lscore.cyclic_blocks", "lscore", "cyclic_blocks"),
    ("lscore.project_ls", "lscore", "project_ls"),
    ("lscore.verify_ls", "lscore", "verify_ls"),
    ("lscore.plan.decode", "lscore", "<plan>.decode"),
    ("factorize.tame_factor", "factorize", "tame_factor"),
    ("factorize.compose", "factorize", "compose"),
    ("factorize.rank", "factorize", "rank"),
    ("factorize.unrank", "factorize", "unrank"),
    ("pgm.keygen", "pgm", "keygen"),
    ("pgm.encrypt", "pgm", "encrypt"),
    ("pgm.decrypt", "pgm", "decrypt"),
    ("serial.save_ls", "serial", "save_ls"),
    ("serial.load_ls", "serial", "load_ls"),
]

LAYER_NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS))
RUNGS = ("literal", "cyclic", "twisted", "transversal")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        # open spans: [span index, time covered by children, name id, start]
        self._stack: list[list] = [[-1, 0.0]]
        self._next = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin(self, nid):
        idx = self._next
        self._next += 1
        if idx < SPAN_CAP:
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0])
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [idx, 0.0, nid, 0.0]
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def end(self, frame):
        t1 = perf_counter()
        self._stack.pop()
        idx, child, nid, t0 = frame
        dur = t1 - t0
        self._stack[-1][1] += dur
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if idx < SPAN_CAP:
            self.span_start[idx] = t0
            self.span_end[idx] = t1

    def call(self, nid, fn, args, kwargs):
        frame = self.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(frame)

    def span(self, name: str):
        """Context manager for a benchmark-side span, such as one operation."""
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = call(nid, fn, args, kwargs)
            if after is not None:
                after(self, out, args)
            return out

        return traced

    def layer_table(self) -> dict:
        """{layer name: {"calls", "self_s"}} for every target, plus counters."""
        out = {}
        for name in LAYER_NAMES + [n for n in self.names if n not in LAYER_NAMES]:
            nid = self._ids.get(name)
            out[name] = {
                "calls": self.calls[nid] if nid is not None else 0,
                "self_s": self.self_s[nid] if nid is not None else 0.0,
            }
        return {"layers": out, "counters": dict(self.counters), "spans": self._next}

    def dump(self, path: str):
        """Write a JSON header line, then one line per kept span in start
        order: name id, parent span index (-1 for none), start, end."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": self._next,
                                 "kept": len(self.span_start)}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_name[i]} {self.span_parent[i]} "
                         f"{self.span_start[i]:.9f} {self.span_end[i]:.9f}\n")


class _Span:
    def __init__(self, rec, nid):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        self.frame = self.rec.begin(self.nid)
        return self

    def __exit__(self, *exc):
        self.rec.end(self.frame)
        return False


# ----------------------------------------------------------------------
# counters attached to particular callables


def _rung(rec, plan, args):
    rec.count(f"lscore.spread_construction.{plan.shape}.calls")


def _products(rec, report, args):
    rec.count("lscore.verify_ls.products_checked", report.products_checked)


def _file_bytes(name):
    def after(rec, out, args):
        path = args[1] if name == "serial.save_ls" else args[0]
        rec.count(f"{name}.bytes", os.path.getsize(path))
    return after


AFTER = {
    "lscore.spread_construction": _rung,
    "lscore.verify_ls": _products,
    "serial.save_ls": _file_bytes("serial.save_ls"),
    "serial.load_ls": _file_bytes("serial.load_ls"),
}


def _resolve(mod, path):
    """[(owner, attribute name)] that the target path names."""
    if path.startswith("<plan>."):
        meth = path.split(".", 1)[1]
        return [(cls, meth) for cls in vars(mod).values()
                if isinstance(cls, type) and cls.__module__ == mod.__name__
                and meth in vars(cls) and "plan" in cls.__name__.lower()]
    if "." in path:
        cls_name, meth = path.split(".")
        return [(getattr(mod, cls_name), meth)]
    return [(mod, path)]


def install(rec: Recorder):
    """Wrap every target; returns the number of attributes replaced."""
    mods = {name: importlib.import_module(f"orthosig.{name}")
            for name in ("fields", "matgroups", "forms", "spreads", "lscore",
                         "factorize", "pgm", "serial", "cli")}
    loaded = [m for name, m in sys.modules.items()
              if (name == "orthosig" or name.startswith("orthosig.")) and m is not None]
    replaced = 0
    for name, mod_name, path in TARGETS:
        for owner, attr in _resolve(mods[mod_name], path):
            orig = vars(owner)[attr]
            traced = rec.wrap(name, orig, AFTER.get(name))
            setattr(owner, attr, traced)
            replaced += 1
            if isinstance(owner, type):
                continue
            for other in loaded:
                for alias, value in list(vars(other).items()):
                    if value is orig and not (other is owner and alias == attr):
                        setattr(other, alias, traced)
                        replaced += 1
    return replaced
