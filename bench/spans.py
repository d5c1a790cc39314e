"""Run-time span tracing of cihom's layer boundaries, from outside the package.

``Tracer.install`` replaces selected public functions and methods of the
``cihom`` modules with wrappers that record one span per call: name, start,
end, parent span and the benchmark item being run.  Every ``from .x import
name`` copy held by another ``cihom`` module is rebound as well, so calls
between modules are caught.  ``uninstall`` restores the originals.  Nothing
under ``src/`` is edited.

Spans live in flat arrays while the run lasts and are written out once, at
the end.  Self time (a span's duration minus the time its child spans cover)
and the exact counters are accumulated per span name as calls finish.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (metric prefix, module, attribute path).  A dotted path names a method.
BOUNDARIES = (
    ("groebner.normal_form", "groebner", "normal_form"),
    ("groebner.s_pair", "groebner", "s_pair"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.tracked_buchberger", "groebner", "tracked_buchberger"),
    ("groebner.incremental_add", "groebner", "IncrementalModuleGB.add"),
    ("groebner.minimal_generator_indices", "groebner", "minimal_generator_indices"),
    ("groebner.syzygy_generators", "groebner", "syzygy_generators"),
    ("resolutions.resolve", "resolutions", "resolve"),
    ("resolutions.detect_periodicity", "resolutions", "detect_periodicity"),
    ("homology.tor_profile", "homology", "tor_profile"),
    ("homology.subquotient_presentation", "homology", "subquotient_presentation"),
    ("homology.HomologyEntry", "homology", "HomologyEntry.__init__"),
    ("homology.ext_ambient_dimensions", "homology", "ext_ambient_dimensions"),
    ("fmodules.minimalize", "fmodules", "ModulePresentation.minimalize"),
    ("fmodules.depth", "fmodules", "ModulePresentation.depth"),
    ("fmodules.tensor", "fmodules", "ModulePresentation.tensor"),
    ("fmodules.serre_condition", "fmodules", "ModulePresentation.serre_condition"),
    ("fmodules.hilbert_function", "fmodules", "ModulePresentation.hilbert_function"),
    ("rings.init", "rings", "RingPresentation.__init__"),
    ("rings.reduce", "rings", "RingPresentation.reduce"),
    ("oracle.tor_oracle", "oracle", "tor_oracle"),
    ("oracle.truncated_resolution", "oracle", "truncated_resolution"),
    ("oracle.rref", "oracle", "_rref"),
    ("oracle.reduce_columns", "oracle", "QuotientSpace.reduce_columns"),
    ("linalg.echelon_add", "linalg", "EchelonAccumulator.add"),
    ("search.counterexample_search", "search", "counterexample_search"),
    ("catalog.run_example", "catalog", "run_example"),
    ("cli.main", "cli", "main"),
    ("reports.emit_json", "reports", "emit_json"),
)

# Layers that the dense oracle must never enter: it is the independent check.
GROEBNER_LAYERS = ("groebner.", "resolutions.", "homology.")
DENSE_LAYERS = ("oracle.", "linalg.")


def _sizes(name, args, result):
    """Exact size counters of one finished call, as {counter suffix: amount}."""
    if name == "groebner.normal_form":
        return {"terms_in": len(args[0].terms), "zeros": 0 if result else 1}
    if name == "groebner.buchberger":
        return {"basis_out": len(result)}
    if name == "groebner.tracked_buchberger":
        return {"active_out": len(result[0]), "collected_out": len(result[1])}
    if name == "groebner.minimal_generator_indices":
        return {"kept": len(result), "columns_in": len(args[0])}
    if name == "oracle.rref":
        # Each pivot does one full rank-one update of the m x n int64 array
        # (read and write); the input is copied once.
        m, n = args[0].shape
        pivots = len(result[1])
        return {"madds": pivots * m * n, "bytes": 8 * m * n * (1 + 2 * pivots)}
    return None


class Tracer:
    """Span recorder for one process; create, ``install``, run, ``uninstall``."""

    def __init__(self):
        self.names: list = [b[0] for b in BOUNDARIES]
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_item = array("i")
        self._stack: list = []        # [span index, time covered by children]
        self.item = -1                # benchmark item being run, -1 outside items
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.sizes: dict = {}         # (name, suffix) -> exact amount
        self._originals: list = []    # (owner, attribute, original)

    # -- recording -------------------------------------------------------------

    def _wrap(self, name_id, fn):
        name = self.names[name_id]
        starts, ends = self._span_start, self._span_end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self._span_name.append(name_id)
            self._span_parent.append(stack[-1][0] if stack else -1)
            self._span_item.append(self.item)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                dur = end - starts[idx]
                if stack:
                    stack[-1][1] += dur
                if self.item >= 0:
                    self.calls[name_id] += 1
                    self.self_s[name_id] += dur - frame[1]
            if self.item >= 0:
                extra = _sizes(name, args, result)
                if extra:
                    for key, amount in extra.items():
                        self.sizes[(name, key)] = self.sizes.get((name, key), 0) + amount
            return result

        return traced

    def install(self):
        """Wrap every boundary and rebind each copy of it in ``cihom``."""
        for _, modname, _ in BOUNDARIES:
            importlib.import_module(f"cihom.{modname}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cihom" or n.startswith("cihom.")) and m is not None]
        for name_id, (_, modname, path) in enumerate(BOUNDARIES):
            owner = sys.modules[f"cihom.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name_id, original)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if cls_path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- results ---------------------------------------------------------------

    def span_count(self) -> int:
        return len(self._span_start)

    def items_calling(self, prefixes) -> set:
        """Items inside which some span of a layer with one of the prefixes ran."""
        hit = {i for i, name in enumerate(self.names) if name.startswith(prefixes)}
        return {item for name_id, item in zip(self._span_name, self._span_item)
                if item >= 0 and name_id in hit}

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}, in-item spans only."""
        by_name = dict(zip(self.names, range(len(self.names))))

        def calls(n):
            return self.calls[by_name[n]]

        def size(n, key):
            return self.sizes.get((n, key), 0)

        out = {}
        for n in self.names:
            out[f"{n}.calls"] = (calls(n), "count")
            out[f"{n}.self_s"] = (self.self_s[by_name[n]], "s")
        nf = "groebner.normal_form"
        out[f"{nf}.terms_in"] = (size(nf, "terms_in"), "terms")
        out[f"{nf}.zero_ratio"] = (size(nf, "zeros") / calls(nf) if calls(nf) else 0.0, "ratio")
        out["groebner.buchberger.basis_out"] = (size("groebner.buchberger", "basis_out"), "count")
        tb = "groebner.tracked_buchberger"
        out[f"{tb}.active_out"] = (size(tb, "active_out"), "count")
        out[f"{tb}.collected_out"] = (size(tb, "collected_out"), "count")
        mg = "groebner.minimal_generator_indices"
        cols = size(mg, "columns_in")
        out[f"{mg}.kept_ratio"] = (size(mg, "kept") / cols if cols else 0.0, "ratio")
        out["resolutions.resolve.steps"] = (self._resolve_steps(by_name), "count")
        out["oracle.rref.madds"] = (size("oracle.rref", "madds"), "madd_computed")
        out["oracle.rref.bytes"] = (size("oracle.rref", "bytes"), "B_computed")
        return out

    def _resolve_steps(self, by_name) -> int:
        """Syzygy computations made directly by ``resolve``; a resolution
        served from the cache adds none."""
        syz, res = by_name["groebner.syzygy_generators"], by_name["resolutions.resolve"]
        parents = self._span_parent
        names = self._span_name
        return sum(1 for i, (n, item) in enumerate(zip(names, self._span_item))
                   if n == syz and item >= 0 and parents[i] >= 0
                   and names[parents[i]] == res)

    def write(self, path):
        """Write every span as JSON lines: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self._span_name, self._span_start, self._span_end,
                           self._span_parent, self._span_item):
                fh.write("%d %.9f %.9f %d %d\n" % row)
