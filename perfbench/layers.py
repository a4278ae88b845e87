"""Layer tracing for the benchmark's traced run.

Nothing here touches ``src/``: while a :class:`LayerTracer` is installed
it replaces the public functions of each layer with timing wrappers
(restored on exit), so every call the program makes into a layer is
attributed to it.

* Per-record calls (machine step, ``account``, ``consume``, ``process``,
  ``observe``, cache ``access``, trace ``append``, lifeguard handlers,
  metadata translations, and each step of the record-stream generators)
  only accumulate busy time and a call count.
* Coarser calls (one per op, chunk or lifeguard pass) also record a span
  -- name, start, end, parent span and op id -- kept in memory and written
  out at the end as Chrome trace-event JSON.

A layer's self time is its time minus the time of the layer calls nested
inside it, so the self times of all layers add up to the traced wall time
minus whatever ran outside every wrapped call.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.lba.capture as capture_module
import repro.trace.tracefile as tracefile_module
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.accelerator import EventAccelerator
from repro.isa.machine import Machine
from repro.lba.capture import LogProducer
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import EventDispatcher
from repro.lba.platform import LBASystem
from repro.lba.timing import CouplingModel
from repro.lifeguards import ALL_LIFEGUARDS
from repro.lifeguards.base import Lifeguard, MetadataMapper
from repro.trace.codec import RecordEncoder
from repro.trace.tracefile import TraceReader, TraceWriter
from repro.workloads.base import Workload

#: Layers whose self time counts towards coverage, in report order.  The
#: entry points' own bodies (``platform``) are reported but not counted:
#: their self time is the remainder no layer call explains.
LAYERS = (
    "workload", "isa", "capture", "codec.encode", "cache", "dispatch",
    "accelerator", "lifeguard", "timing", "tracefile.write", "tracefile.read",
    "codec.decode", "columnar",
)
PLATFORM = "platform"


class LayerTracer:
    """Per-layer busy time, call counts and spans of one traced run."""

    def __init__(self) -> None:
        #: layer -> [self seconds, calls]
        self.cells: Dict[str, List[float]] = {
            layer: [0.0, 0] for layer in LAYERS + (PLATFORM,)
        }
        #: child-time accumulators of the calls in progress (innermost last)
        self._child: List[float] = [0.0]
        self.spans: List[dict] = []
        self._span_ids: List[int] = []
        self.op_id = -1
        self.epoch = perf_counter()
        self._patches: List[Tuple[object, str, object]] = []
        #: (op, layer self seconds before, after) per traced op
        self.per_op: List[Tuple[object, Dict[str, float], Dict[str, float]]] = []
        #: pipeline objects created by the op in progress, by class name
        self.created: Dict[str, list] = {}

    # ---------------------------------------------------------------- wrappers

    def accumulate(self, layer: str, fn: Callable) -> Callable:
        """Wrap a per-record call: busy time and count only."""
        cell = self.cells[layer]
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                cell[0] += elapsed - child.pop()
                cell[1] += 1
                child[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def generator(self, layer: str, fn: Callable) -> Callable:
        """Wrap a generator function: each ``next`` is one accumulated call."""
        cell = self.cells[layer]
        child = self._child

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                child.append(0.0)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    cell[0] += elapsed - child.pop()
                    cell[1] += 1
                    child[-1] += elapsed
                yield item

        traced.__wrapped__ = fn
        return traced

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """Wrap a coarse call: busy time, count and one span per call."""
        cell = self.cells[layer]
        child = self._child
        spans = self.spans
        ids = self._span_ids

        def traced(*args, **kwargs):
            span_id = len(spans)
            record = {
                "id": span_id, "name": name, "layer": layer, "op": self.op_id,
                "parent": ids[-1] if ids else None,
            }
            spans.append(record)
            ids.append(span_id)
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                cell[0] += elapsed - child.pop()
                cell[1] += 1
                child[-1] += elapsed
                ids.pop()
                record["start"] = start - self.epoch
                record["end"] = end - self.epoch

        traced.__wrapped__ = fn
        return traced

    # ----------------------------------------------------------------- patching

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_init(self, layer: str, cls: type) -> None:
        """Span a constructor and remember the objects it builds."""
        traced = self.span(layer, f"{cls.__name__}.init", cls.__dict__["__init__"])
        created = self.created

        def __init__(instance, *args, **kwargs):
            traced(instance, *args, **kwargs)
            created.setdefault(cls.__name__, []).append(instance)

        self._patch(cls, "__init__", __init__)

    def _wrap_lifeguard(self, lifeguard: Lifeguard) -> None:
        """Wrap one lifeguard instance's ETCT handlers and columnar fast paths."""
        if getattr(lifeguard, "_perfbench_traced", False):
            return
        lifeguard._perfbench_traced = True
        for entry in lifeguard.etct.handler_table():
            if entry is not None and entry.handler is not None:
                entry.handler = self.accumulate("lifeguard", entry.handler)
        fast_paths = lifeguard.columnar_handlers

        def columnar_handlers():
            return {
                event_type: (self.accumulate("lifeguard", fn), translates)
                for event_type, (fn, translates) in (fast_paths() or {}).items()
            }

        lifeguard.columnar_handlers = columnar_handlers

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Install every layer wrapper for the duration of the block."""
        acc, span = self.accumulate, self.span
        original_attach = Lifeguard.__dict__["attach_hardware"]

        def attach_hardware(lifeguard, mtlb):
            original_attach(lifeguard, mtlb)
            self._wrap_lifeguard(lifeguard)

        try:
            self._patch(Workload, "build_machine",
                        span("workload", "build_machine", Workload.build_machine))
            self._patch(Machine, "step", acc("isa", Machine.step))
            self._patch(capture_module, "iter_machine_records",
                        self.generator("isa", capture_module.iter_machine_records))
            self._patch(LogProducer, "stream", self.generator("capture", LogProducer.stream))
            self._patch(LogProducer, "account", acc("capture", LogProducer.account))
            self._patch(RecordEncoder, "encode_into",
                        acc("codec.encode", RecordEncoder.encode_into))
            self._patch(MemoryHierarchy, "access", acc("cache", MemoryHierarchy.access))
            self._patch(EventDispatcher, "consume",
                        acc("dispatch", EventDispatcher.consume))
            self._patch(EventAccelerator, "process",
                        acc("accelerator", EventAccelerator.process))
            self._patch(Lifeguard, "attach_hardware", attach_hardware)
            self._patch(MetadataMapper, "translate",
                        acc("lifeguard", MetadataMapper.translate))
            self._patch(MetadataMapper, "translate_span",
                        acc("lifeguard", MetadataMapper.translate_span))
            for cls in {Lifeguard, *ALL_LIFEGUARDS.values()}:
                if "finalize" in cls.__dict__:
                    self._patch(cls, "finalize",
                                span("lifeguard", f"{cls.name}.finalize",
                                     cls.__dict__["finalize"]))
            self._patch(CouplingModel, "observe", acc("timing", CouplingModel.observe))
            self._patch(CouplingModel, "finish", acc("timing", CouplingModel.finish))
            self._patch(TraceWriter, "append", acc("tracefile.write", TraceWriter.append))
            self._patch(TraceWriter, "close",
                        span("tracefile.write", "TraceWriter.close", TraceWriter.close))
            self._patch(TraceReader, "__init__",
                        span("tracefile.read", "TraceReader.open", TraceReader.__init__))
            self._patch(TraceReader, "read_chunk_columns",
                        span("tracefile.read", "read_chunk_columns",
                             TraceReader.read_chunk_columns))
            self._patch(tracefile_module, "decode_record_columns",
                        span("codec.decode", "decode_record_columns",
                             tracefile_module.decode_record_columns))
            self._span_init("columnar", ColumnarEngine)
            self._patch(ColumnarEngine, "consume_columns",
                        span("columnar", "consume_columns", ColumnarEngine.consume_columns))
            self._span_init(PLATFORM, LBASystem)
            self._span_init("capture", LogProducer)
            self._span_init("cache", MemoryHierarchy)
            self._span_init("accelerator", EventAccelerator)
            self._span_init("dispatch", EventDispatcher)
            self._span_init("timing", CouplingModel)
            self._span_init("lifeguard", Lifeguard)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # --------------------------------------------------------------------- ops

    def op(self, op_id: int, name: str, fn: Callable, *args):
        """Run one op as a top-level span; its self time is the platform's."""
        self.op_id = op_id
        try:
            return self.span(PLATFORM, name, fn)(*args)
        finally:
            self.op_id = -1

    def snapshot(self) -> Dict[str, float]:
        """Current self seconds per layer (for per-op deltas)."""
        return {layer: cell[0] for layer, cell in self.cells.items()}

    def self_seconds(self, layer: str) -> float:
        return self.cells[layer][0]

    def calls(self, layer: str) -> int:
        return int(self.cells[layer][1])

    def covered_seconds(self) -> float:
        """Self seconds of every counted layer (excludes the platform remainder)."""
        return sum(self.cells[layer][0] for layer in LAYERS)

    # ------------------------------------------------------------------ export

    def chrome_trace(self, meta: Optional[dict] = None) -> dict:
        """Spans as Chrome trace-event JSON, with the per-layer totals."""
        totals = {
            layer: {"self_s": cell[0], "calls": int(cell[1])}
            for layer, cell in self.cells.items()
        }
        return chrome_trace(self.spans, {**(meta or {}), "layers": totals})


def chrome_trace(spans: List[dict], meta: dict) -> dict:
    """Chrome trace-event JSON: one ``X`` event per finished span.

    A span is a dict with ``name``, ``layer``, ``start`` and ``end``
    (seconds), ``op`` (op id), ``id`` and ``parent`` (span ids).
    """
    events = [
        {
            "name": span["name"], "cat": span["layer"], "ph": "X",
            "ts": round(span["start"] * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": 1, "tid": 1,
            "args": {"op": span["op"], "id": span["id"], "parent": span["parent"]},
        }
        for span in spans if "end" in span
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
