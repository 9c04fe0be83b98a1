"""Outside-in tracing of isturm's public functions.

The benchmark wraps public functions from its own files; nothing in isturm
changes.  A wrapper replaces the function in every isturm namespace that
binds it (invert_spectral_data is bound in reconstruct, refine, verify, cli
and the package), and is removed again on exit.  Closures that look a name up
at call time, such as the `delta` closure in forward.find_eigenvalues, see the
wrapper too.  Private helpers are not wrapped: the points weight_numbers
propagates through _psi_zero_batch are therefore not counted.

Spans (name, start, end, parent span, operation id) stay in memory and are
written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _points(args, kwargs):
    lam = args[1] if len(args) > 1 else kwargs["lam"]
    return {"points": int(np.size(lam))}


def _lu_flops(args, kwargs):
    system = args[0] if args else kwargs["system"]
    return {"lu_flops": (8.0 / 3.0) * (2 * system.K) ** 3}


# (metric prefix, module, attribute, counter hook).  A class entry wraps its
# __init__, which is where MainEquationContext does its work.
TARGETS = [
    ("forward.char_delta", "isturm.forward", "char_delta", _points),
    ("forward.find_eigenvalues", "isturm.forward", "find_eigenvalues", None),
    ("forward.weight_numbers", "isturm.forward", "weight_numbers", None),
    ("forward.weyl_M1", "isturm.forward", "weyl_M1", None),
    ("regular.estimate_bN2", "isturm.regular", "estimate_bN2", None),
    ("maineq.MainEquationContext", "isturm.maineq", "MainEquationContext", None),
    ("maineq.build_system", "isturm.maineq", "build_system", None),
    ("maineq.kernel_D", "isturm.model", "kernel_D", None),
    ("maineq.solve_system", "isturm.maineq", "solve_system", _lu_flops),
    ("maineq.solve_on_grid", "isturm.maineq", "solve_on_grid", None),
    ("reconstruct.choose_contour", "isturm.reconstruct", "choose_contour", None),
    ("reconstruct.reconstruct_sigma", "isturm.reconstruct", "reconstruct_sigma", None),
    ("reconstruct.reconstruct_r1", "isturm.reconstruct", "reconstruct_r1", None),
    ("reconstruct.reconstruct_r2", "isturm.reconstruct", "reconstruct_r2", None),
    ("reconstruct.invert_spectral_data", "isturm.reconstruct", "invert_spectral_data", None),
    ("refine.invert_refined", "isturm.refine", "invert_refined", None),
    ("refine.recover_q", "isturm.refine", "recover_q", None),
    ("verify.regular_roundtrip", "isturm.verify", "regular_roundtrip", None),
    ("cli.main", "isturm.cli", "main", None),
    ("cli.write_json_atomic", "isturm._util", "write_json_atomic", None),
    ("spectral.spectral_data_from_json", "isturm.spectral", "spectral_data_from_json", None),
]
LABELS = [t[0] for t in TARGETS]


class Tracer:
    """Install with `with Tracer() as tr:`; set `tr.op` to tag spans."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counters = defaultdict(float)
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, label, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                for key, value in hook(args, kwargs).items():
                    self.counters[f"{label}.{key}"] += value
            idx = len(self.spans)
            self.spans.append([label, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None, self.op])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return wrapper

    def __enter__(self):
        for _, modname, _, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "isturm" or name.startswith("isturm."))]
        for label, modname, attr, hook in TARGETS:
            original = getattr(sys.modules[modname], attr)
            if isinstance(original, type):
                init = original.__init__
                self._undo.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(label, init, hook))
                continue
            wrapper = self._wrap(label, original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()
        return False

    def summary(self) -> dict:
        """calls, inclusive seconds and self seconds per label.

        Inclusive time counts only the outermost span of a label, so a
        function reached again inside itself is not counted twice; self time
        is a span's duration minus that of its direct children."""
        out = {label: {"calls": 0, "s": 0.0, "self_s": 0.0} for label in LABELS}
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[i]
            p, nested = parent, False
            while p is not None:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                agg["s"] += t1 - t0
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)
