"""Span recorder and layer wrappers for the traced benchmark run.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` wraps the
public callables of each layer from here, by rebinding every name in the
loaded ``repro`` modules that refers to the original function (so
``from x import f`` call sites are covered too) and every class attribute
for methods.  Each wrapped call records one span: name, layer, start, end,
parent span and op id.  Spans stay in memory and are written out when the
process ends its traced phase (:meth:`Tracer.dump`); a process forked from
a traced parent (a pool worker) starts an empty span list and writes its
own file when it exits.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: (layer, span name, owner, attribute) for every wrapped callable.
#: ``owner`` is a module path, or ``module:Class`` for a method.
LAYER_CALLS = (
    ("core.session", "session.run", "repro.core.session:Session", "run"),
    ("core.session", "session.map", "repro.core.session:Session", "map"),
    ("core.runner", "runner.fingerprint", "repro.core.runner:ProgramCache",
     "key"),
    ("core.runner", "runner.cache_get", "repro.core.runner:ProgramCache",
     "get"),
    ("compiler", "compiler.compile", "repro.compiler.lowering",
     "compile_spgemm"),
    ("sparse.symbolic", "symbolic.spgemm", "repro.sparse.symbolic",
     "symbolic_spgemm_from_csc"),
    ("analysis.verifier", "verifier.verify", "repro.analysis.verifier",
     "verify_program"),
    ("sparse.kernels", "kernels.spgemm", "repro.sparse.kernels", "spgemm"),
    ("backends.analytic", "analytic.predict",
     "repro.backends.analytic:AnalyticBackend", "predict"),
    ("sim.functional", "functional.run",
     "repro.sim.functional:FunctionalAccelerator", "run"),
    ("sim.accelerator", "cycle.run",
     "repro.sim.accelerator:NeuraChipAccelerator", "run"),
    ("core.executors", "executors.map",
     "repro.core.executors:ProcessExecutor", "map"),
    ("gnn.pipeline", "gnn.run_model", "repro.gnn.pipeline", "run_gnn_model"),
    ("serve.wire", "wire.decode", "repro.serve.wire", "decode_csr"),
    ("serve.wire", "wire.encode", "repro.serve.wire", "encode_csr_frames"),
    ("serve.registry", "registry.resolve",
     "repro.serve.registry:OperandRegistry", "resolve"),
    ("serve.queue", "queue.get_batch", "repro.serve.queue:RequestQueue",
     "get_batch"),
)

#: Layers whose self time is reported, in call-depth order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in LAYER_CALLS))


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _csr_bytes(m) -> int:
    return _nbytes(m.indptr, m.indices, m.data) if m is not None else 0


def _counts(span_name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts recorded on a span, computed from arguments/results."""
    if span_name == "compiler.compile":
        return {"mmh_ops": int(result.n_instructions)}
    if span_name == "kernels.spgemm":
        a, b = args[0], args[1]
        return {"partial_products": int(result.partial_products),
                "bytes": _csr_bytes(a) + _csr_bytes(b)
                + _csr_bytes(result.matrix)}
    if span_name == "functional.run":
        return {"haccs": int(result.total_partial_products)}
    if span_name == "cycle.run":
        return {"events": int(result.events), "cycles": float(result.cycles),
                "stall_cycles": float(result.stall_cycles),
                "core_utilization": float(result.core_utilization),
                "mem_utilization": float(result.mem_utilization),
                "evictions": int(result.evictions)}
    if span_name == "runner.cache_get":
        return {"hit": int(result is not None)}
    if span_name == "queue.get_batch":
        now = time.monotonic()
        return {"batch_size": len(result),
                "wait_s": sum(now - r.enqueued_at for r in result)}
    if span_name == "executors.map":
        # Computed reply size: what each result costs to pickle back.
        return {"jobs": len(result),
                "reply_bytes": sum(len(pickle.dumps(r)) for r in result),
                "worker_wall_s": sum(r.wall_time_s for r in result),
                "worker_hits": sum(int(r.cache_hit) for r in result)}
    if span_name == "wire.encode":
        return {"bytes": sum(len(s) for s in result)}
    return {}


class Tracer:
    """In-memory span store for one process (re-armed after a fork)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[dict] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _after_fork(self) -> None:
        """First span in a forked child: drop the parent's spans and open
        stacks, and write this process's spans when it exits."""
        from multiprocessing import util

        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        util.Finalize(self, self.dump, exitpriority=10)

    def _stack(self) -> list:
        if os.getpid() != self._pid:
            self._after_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op) -> None:
        """Op id for root spans opened on this thread from now on."""
        self._stack()
        self._local.op = op

    def begin(self, name: str, layer: str, op=None) -> dict:
        """Open a span on this thread's stack; close it with :meth:`end`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {"name": name, "layer": layer, "pid": self._pid,
                  "id": None, "parent": parent["id"] if parent else None,
                  "op": (op if op is not None else
                         parent["op"] if parent else
                         getattr(self._local, "op", None)),
                  "start": time.perf_counter(), "end": None}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        return record

    def end(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()

    @contextmanager
    def span(self, name: str, layer: str, op=None):
        record = self.begin(name, layer, op)
        try:
            yield record
        finally:
            self.end(record)

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        return path

    # -- installing wrappers --------------------------------------------
    def _wrapper(self, original, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            op = None
            if name == "session.run" and len(args) > 1:
                op = getattr(args[1], "label", None)
            record = tracer.begin(name, layer, op=op)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(record)
            # Counts are computed after the span closed: deriving them (e.g.
            # pickling a reply to size it) is tracing overhead, not layer
            # time.
            call_args = args[1:] if name in _METHOD_SPANS else args
            counts = _counts(name, call_args, kwargs, result)
            if counts:
                record["counts"] = counts
            if name == "queue.get_batch":
                tracer.set_op(f"batch{record['id']}")
            return result

        return functools.wraps(original)(traced)

    def install(self) -> "Tracer":
        """Wrap every callable in :data:`LAYER_CALLS`; returns self."""
        import importlib

        # Import everything first, so no module binds an original by name
        # after the rebinding pass below has run.
        targets = []
        for layer, name, owner, attr in LAYER_CALLS:
            module_name, _, cls_name = owner.partition(":")
            module = importlib.import_module(module_name)
            targets.append((layer, name, module, cls_name, attr))
        for layer, name, module, cls_name, attr in targets:
            if cls_name:
                cls = getattr(module, cls_name)
                self._installed.append((cls, attr, cls.__dict__.get(attr)))
                setattr(cls, attr,
                        self._wrapper(getattr(cls, attr), name, layer))
                continue
            original = getattr(module, attr)
            traced = self._wrapper(original, name, layer)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                if getattr(mod, attr, None) is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, traced)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()


_METHOD_SPANS = {name for _layer, name, owner, _attr in LAYER_CALLS
                 if ":" in owner}

#: Spans that time a blocking wait for work, not work: they carry counts
#: (batch size, queue wait) but no self time.
IDLE_SPANS = {"queue.get_batch"}


def load_spans(out_dir: Path) -> list[dict]:
    """Every span written under ``out_dir`` by any process."""
    spans: list[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus the
    part its direct children cover (children nest, so they never
    overlap their parent's other children on one thread)."""
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            key = (s["pid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        if s["end"] is None or s["name"] in IDLE_SPANS:
            continue
        own = s["end"] - s["start"] - child_time.get((s["pid"], s["id"]), 0.0)
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + own
    return totals
