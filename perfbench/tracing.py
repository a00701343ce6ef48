"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(:data:`TARGETS`) so every call records a span: name, start, end,
parent span and the benchmark op it ran under.  Nothing in ``src/``
knows about it; the wrappers are installed by the benchmark process
(or, for the serve daemon, by :mod:`perfbench.serve_launcher`) and
removed again by :meth:`Tracer.uninstall`.  Spans stay in memory and
are written out once, at the end of a run.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so nested layers (a partition inside a
baseline simulation, a fake-quant backward inside ``Tensor.backward``)
are charged once, to the innermost layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .stats import union_length

# (span name, module, attribute path).  Several entry points may share
# one span name: they are the same layer seen through different calls.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.partition", "repro.graphs.partition", "partition_graph"),
    ("graphs.datasets", "repro.registry", "DatasetEntry.load"),
    ("sim.workload", "repro.sim.workload", "build_workload"),
    ("sim.workload", "repro.sim.workload", "build_workload_batch"),
    ("sim.simulate", "repro.sim.batched", "simulate_batch"),
    ("sim.simulate", "repro.sim.accelerator", "AcceleratorModel.simulate"),
    ("artifacts.put", "repro.artifacts", "ArtifactStore.put"),
    ("artifacts.get", "repro.artifacts", "ArtifactStore.get"),
    ("perf.cache.disk.get", "repro.perf.cache", "DiskCache.get"),
    ("perf.cache.disk.put", "repro.perf.cache", "DiskCache.put"),
    ("eval.engine.run", "repro.eval.engine", "SweepEngine.run"),
    ("eval.engine.fingerprint", "repro.eval.engine",
     "SweepEngine.job_fingerprint"),
    ("eval.engine.fingerprint", "repro.eval.engine",
     "SweepEngine.dataset_fingerprint"),
    ("eval.journal.append", "repro.eval.journal", "RunJournal.append"),
    ("report.run_experiment", "repro.report", "run_experiment"),
    ("report.render", "repro.report", "tabulate_value"),
    ("report.render", "repro.report", "Artifact.to_dict"),
    ("nn.train", "repro.nn.training", "train"),
    ("tensor.backward", "repro.tensor.tensor", "Tensor.backward"),
    ("tensor.matmul", "repro.tensor.tensor", "Tensor.matmul"),
    ("tensor.spmm", "repro.tensor.tensor", "Tensor.spmm"),
    ("tensor.functional.dropout", "repro.tensor.functional", "dropout"),
    ("tensor.optim.step", "repro.tensor.optim", "SGD.step"),
    ("tensor.optim.step", "repro.tensor.optim", "Adam.step"),
    ("quant.fake_quant.forward", "repro.quant.fake_quant",
     "FakeQuantSTE.forward"),
    ("quant.fake_quant.forward", "repro.quant.fake_quant",
     "FakeQuantPerGroup.forward"),
    ("quant.fake_quant.forward", "repro.quant.fake_quant",
     "FakeQuantPerColumn.forward"),
    ("quant.fake_quant.backward", "repro.quant.fake_quant",
     "FakeQuantSTE.backward"),
    ("quant.fake_quant.backward", "repro.quant.fake_quant",
     "FakeQuantPerGroup.backward"),
    ("quant.fake_quant.backward", "repro.quant.fake_quant",
     "FakeQuantPerColumn.backward"),
    ("quant.degree_aware", "repro.quant.degree_aware",
     "DegreeAwareQuantizer.features"),
    ("quant.degree_aware", "repro.quant.degree_aware",
     "DegreeAwareQuantizer.weight"),
    ("quant.degree_aware", "repro.quant.degree_aware",
     "DegreeAwareQuantizer.aggregated"),
    ("quant.degree_aware", "repro.quant.degree_aware",
     "DegreeAwareQuantizer.extra_loss"),
)

# Span record layout: [id, name, start, end, parent id or None, op].
ID, NAME, START, END, PARENT, OP = range(6)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.op: Optional[int] = None   # the benchmark op now running
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            rec = [next(tracer._ids), name, tracer.clock(), 0.0,
                   stack[-1] if stack else None, tracer.op]
            stack.append(rec[ID])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = tracer.clock()
                stack.pop()
                tracer.spans.append(rec)

        return traced

    # -- installing wrappers -----------------------------------------------
    def install(self, targets: Sequence[Tuple[str, str, str]] = TARGETS
                ) -> None:
        """Wrap every target.  Module-level functions are replaced in
        every loaded ``repro`` module that bound them by name (``from x
        import f``); methods are replaced on their class, aliases
        included."""
        for name, module_name, path in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                self._install_method(name, getattr(module, cls_name), attr)
            else:
                self._install_function(name, getattr(module, path))

    def _install_method(self, name: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        for key, value in list(vars(cls).items()):
            if value is raw:
                self._restore.append((cls, key, raw))
                setattr(cls, key, wrapped)

    def _install_function(self, name: str, fn: Callable) -> None:
        wrapped = self.wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, key, fn))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> List[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: Iterable[list]) -> Dict[int, float]:
    """Span id -> duration minus the part of it child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return {rec[ID]: (rec[END] - rec[START])
            - union_length(children.get(rec[ID], ()), rec[START], rec[END])
            for rec in spans}


def layer_totals(spans: Iterable[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count and summed self time in seconds."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0})
    for rec in spans:
        entry = out[rec[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own[rec[ID]]
    return dict(out)


def unattributed_share(op_intervals: Sequence[Tuple[float, float]],
                       spans: Iterable[list]) -> float:
    """Share of the ops' summed wall time that no span covers.

    Spans are matched to ops by time, so spans recorded in another
    process on the same monotonic clock (the serve daemon) count too.
    """
    roots = sorted((rec[START], rec[END]) for rec in spans
                   if rec[PARENT] is None)
    total = covered = 0.0
    first = 0
    for lo, hi in sorted(op_intervals):
        total += hi - lo
        while first < len(roots) and roots[first][1] <= lo:
            first += 1
        overlapping = []
        index = first
        while index < len(roots) and roots[index][0] < hi:
            overlapping.append(roots[index])
            index += 1
        covered += union_length(overlapping, lo, hi)
    return 1.0 - covered / total if total > 0 else 0.0
