"""Span recorder for the traced benchmark run.

Nothing inside ``src/ebcv`` is instrumented.  Instead `Recorder.install`
replaces each public module-level function of every loaded ``ebcv`` module
with a wrapper at every place where callers look it up: the defining module
(for calls inside that module), every other ``ebcv`` module that imported
the name, and the package namespace.  The methods of ``ebcv.jets.Jet`` are
wrapped on the class, because that class is the whole public surface of the
jets layer.  `Recorder.uninstall` puts the originals back, so untraced
rounds run the program exactly as a user does.

With `spans_on` a wrapper records a span (name, start, end, parent, work):
``work`` holds the points passed to ``curvature_bundle`` and the accepted
RK4 steps of each ``Trajectory`` returned by ``integrate``.  Spans stay in
memory and are written out once, by `Recorder.write`.  With `alloc_on`
instead, the outermost curvature call runs under tracemalloc and its peak
is kept; the two are never on together, so tracemalloc's cost does not
enter the recorded times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

import numpy as np

#: the modules of src/ebcv that the per-layer table reports
LAYERS = (
    "frames", "jets", "curvature", "homogeneous", "killing", "geodesics",
    "quaternions", "published_tables", "verify", "cli",
)

_BUNDLE = "curvature.curvature_bundle"
_INTEGRATE = "geodesics.integrate"


def _layer_of(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Recorder:
    """In-memory span store and the wrappers that fill it."""

    def __init__(self):
        self.spans_on = False
        self.alloc_on = False
        self.peak_alloc = 0
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, work]
        self._stack: list[int] = []
        self._curvature_depth = 0
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)

    # -- span bookkeeping ---------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- instrumentation ----------------------------------------------------
    def _measure_alloc(self, fn, args, kwargs):
        outermost = self._curvature_depth == 0
        self._curvature_depth += 1
        if outermost:
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self._curvature_depth -= 1
            if outermost:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        in_curvature = layer == "curvature"
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.alloc_on and in_curvature:
                return rec._measure_alloc(fn, args, kwargs)
            if not rec.spans_on:
                return fn(*args, **kwargs)
            idx = rec._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if name == _BUNDLE:
                q = args[0] if args else kwargs["q"]
                rec.spans[idx][4] = int(np.asarray(q).size // 7)
            elif name == _INTEGRATE:
                rec.spans[idx][4] = out.n_samples - 1
            return out

        return traced

    def _patch_list(self) -> list[tuple]:
        """Every (owner, attr, original, wrapper) that install sets."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "ebcv" or name.startswith("ebcv.")
        }
        wrappers: dict[int, tuple] = {}
        for modname, mod in modules.items():
            if modname == "ebcv":
                continue
            layer = _layer_of(modname)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != modname):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        patches = []
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))

        jet = modules["ebcv.jets"].Jet
        for attr, obj in vars(jet).items():
            if attr == "__init__":
                continue
            name = f"jets.Jet.{attr}"
            if isinstance(obj, classmethod):
                wrapper = classmethod(self._wrap(obj.__func__, name, "jets"))
            elif callable(obj) and not isinstance(obj, type):
                wrapper = self._wrap(obj, name, "jets")
            else:
                continue
            patches.append((jet, attr, obj, wrapper))
        return patches

    def install(self) -> None:
        """Put the wrappers in place of the public functions of ebcv."""
        if not self._patches:
            self._patches = self._patch_list()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------
    def totals(self) -> dict:
        """Per-layer self time and the work counts over all spans."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        nid = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child],
                                      minlength=len(arr))
        layer_of = np.array(self.layers, dtype=object)[nid]
        names = np.array(self.names, dtype=object)[nid]
        bundle = names == _BUNDLE
        return {
            "self_s": {layer: float(self_time[layer_of == layer].sum()) for layer in LAYERS},
            "bundle_calls": int(bundle.sum()),
            "bundle_points": int(arr[bundle, 4].sum()),
            "geodesic_calls": int((layer_of == "geodesics").sum()),
            "geodesic_steps": int(arr[names == _INTEGRATE, 4].sum()),
        }

    def write(self, path) -> None:
        """Dump every span (times relative to the recorder's creation)."""
        spans = [
            [s[0], round(s[1] - self.t0, 9), round(s[2] - self.t0, 9), s[3], s[4]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "work"],
                    "names": self.names,
                    "layers": self.layers,
                    "spans": spans,
                },
                fh,
                separators=(",", ":"),
            )
