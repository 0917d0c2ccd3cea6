"""In-memory span tracer over weaklabel's public functions.

``install`` replaces every public function of the layer modules with a
wrapper at its module attribute, in every layer module that binds it,
plus the ``pipeline.STAGES`` table and ``BaseFeaturizer.featurize``. The
layer modules look these attributes up at call time, so each call made
through them becomes one span: (name, start, end, parent span, op id).
Private helpers (``_dot``, ``_tuple_loss_grad``, ...) are not wrapped;
their time counts as self time of the public function that calls them.

Spans are named ``<defining module>.<attribute>``; the module is the
layer. A layer's self time is the time of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("pipeline", "corpus", "candidates", "citegraph", "encoder", "kernels",
          "ranker", "selftrain", "metrics")


class Tracer:
    """Spans kept in flat arrays; ``op_id`` tags every span opened while it is set."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._open: list[int] = []
        self.op_id = 0
        self.featurized_texts: set[str] = set()

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for k in range(len(self.start)):
                fh.write(f"{self.names[self.name[k]]}\t{self.start[k]!r}\t{self.end[k]!r}\t"
                         f"{self.parent[k]}\t{self.op[k]}\n")


def install(tracer: Tracer):
    """Wrap the public functions of every layer module (see module docstring)."""
    modules = {layer: importlib.import_module(f"weaklabel.{layer}") for layer in LAYERS}
    home = {mod.__name__: layer for layer, mod in modules.items()}
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            layer = home.get(value.__module__)
            if layer is not None:
                setattr(mod, attr, tracer.wrap(f"{layer}.{attr}", value))

    pipeline = modules["pipeline"]
    pipeline.STAGES = [(name, getattr(pipeline, fn.__name__)) for name, fn in pipeline.STAGES]

    featurizer = modules["encoder"].BaseFeaturizer
    featurize = featurizer.featurize
    seen = tracer.featurized_texts

    def observed(self, text):
        seen.add(text)
        return featurize(self, text)

    featurizer.featurize = tracer.wrap("encoder.featurize", functools.wraps(featurize)(observed))


class SpanTable:
    """Vectorized view of a tracer's spans for computing metrics."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        self.duration = np.frombuffer(tracer.end, dtype=np.float64) - start
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested], weights=self.duration[nested],
                              minlength=self.duration.size)
        self.self_time = self.duration - covered

    def _mask(self, name: str, outside: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        mask = self.name == self.names.index(name)
        if outside is not None and outside in self.names:
            has_parent = self.parent >= 0
            parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)
            mask &= parent_name != self.names.index(outside)
        return mask

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def seconds(self, name: str, outside: str | None = None) -> float:
        """Summed wall time of ``name`` spans, skipping those directly under ``outside``."""
        return float(self.duration[self._mask(name, outside)].sum())

    def layer_self_seconds(self) -> dict[str, float]:
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names],
                            dtype=np.int64)
        totals = np.bincount(layer_of[self.name], weights=self.self_time,
                             minlength=len(LAYERS)) if self.name.size else np.zeros(len(LAYERS))
        return {layer: float(totals[i]) for i, layer in enumerate(LAYERS)}
