"""Outside-in layer trace: wraps qndsim's public functions from the benchmark.

`Tracer.install` rebinds every module-global name inside `qndsim.*` that refers
to a traced function, so aliases such as `protocols._fidelity` are covered,
and replaces `FockState.__init__` and `ModeTransform.__init__`.  Each call
becomes a span (layer, start, end, parent, op).  Spans stay in memory until
`write_spans`; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from qndsim import circuits, detection, fock, optics, protocols

import workloads


def _count_apply(counts, args, result):
    counts["optics.apply.kets_in"] += len(args[1].amplitudes)
    counts["optics.apply.kets_out"] += len(result.amplitudes)


def _count_condition(counts, args, result):
    _, mixed = result
    counts["detection.condition.kets_in"] += len(args[0].amplitudes)
    counts["detection.condition.branches_out"] += len(mixed.branches)
    counts["detection.condition.kets_kept"] += sum(len(st.amplitudes) for _, st in mixed.branches)


def _count_fock_state(counts, args, result):
    kets = len(args[2])
    counts["fock.FockState.kets"] += kets
    counts["fock.FockState.max_kets"] = max(counts["fock.FockState.max_kets"], kets)


DEVICES = ("number_qnd", "pol_qnd", "teleport_number_qnd", "teleport_pol_qnd", "kerr_qnd",
           "number_device_transform", "pol_device_transform")

# (layer, owner, attribute, counter).  Owners that are classes get __init__ wrapped.
TARGETS = (
    ("cli", workloads, "invoke_cli", None),
    *((f"protocols.{name}", protocols, name, None) for name in DEVICES),
    ("optics.apply", optics, "apply", _count_apply),
    ("optics.kerr_gate", optics, "kerr_gate", None),
    ("optics.ModeTransform", optics.ModeTransform, "__init__", None),
    ("detection.condition", detection, "condition", _count_condition),
    ("detection.fidelity", detection, "fidelity", None),
    ("fock.FockState", fock.FockState, "__init__", _count_fock_state),
    ("fock.tensor", fock, "tensor", None),
    ("circuits.parse_circuit", circuits, "parse_circuit", None),
)
LAYERS = tuple(t[0] for t in TARGETS)

# The per-layer metrics a traced run reports, by layer.
LAYER_METRICS = (
    ("cli", ("calls", "total_s", "self_s")),
    *((f"protocols.{name}", ("calls", "total_s")) for name in DEVICES),
    ("optics.apply", ("calls", "total_s", "self_s", "kets_in", "kets_out", "expansion")),
    ("optics.kerr_gate", ("calls", "self_s")),
    ("optics.ModeTransform", ("calls", "self_s")),
    ("detection.condition", ("calls", "self_s", "kets_in", "branches_out", "kept_ratio")),
    ("detection.fidelity", ("calls", "self_s")),
    ("fock.FockState", ("calls", "self_s", "kets", "max_kets")),
    ("fock.tensor", ("calls", "self_s")),
    ("circuits.parse_circuit", ("calls", "self_s")),
)


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, layer, start, end, time in child spans, op)
        self.spans: list[tuple[int, int, str, float, float, float, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = -1  # identifier shared by the spans of one op
        self._stack: list[list] = []  # [span id, child time] per open span
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, counter=None):
        stack, spans, counts = self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                spans.append((frame[0], -1 if parent is None else parent[0], layer,
                              t0, t1, frame[1], self.op))
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        qndsim_modules = [m for name, m in sys.modules.items()
                          if name == "qndsim" or name.startswith("qndsim.")]
        for layer, owner, attr, counter in TARGETS:
            orig = getattr(owner, attr)
            wrapper = self.wrap(layer, orig, counter)
            self._rebind(owner, attr, orig, wrapper)
            if isinstance(owner, type):
                continue
            for mod in qndsim_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, wrapper)

    def _rebind(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """layer -> (calls, total_s, self_s)."""
        stats = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for _, _, layer, t0, t1, child, _ in self.spans:
            entry = stats[layer]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child
        return {layer: tuple(v) for layer, v in stats.items()}

    def write_spans(self, path: str) -> None:
        """One CSV line per span, times in microseconds from the first span."""
        if not self.spans:
            return
        origin = min(s[3] for s in self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,layer,start_us,end_us,child_us\n")
            for span_id, parent, layer, t0, t1, child, op in sorted(self.spans):
                fh.write(f"{op},{span_id},{parent},{layer},{(t0 - origin) * 1e6:.1f},"
                         f"{(t1 - origin) * 1e6:.1f},{child * 1e6:.1f}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every metric named in LAYER_METRICS, from the spans and counts."""
    values = dict(tracer.counts)
    for layer, (calls, total, self_s) in tracer.layer_stats().items():
        values.update({f"{layer}.calls": calls, f"{layer}.total_s": total,
                       f"{layer}.self_s": self_s})
    values["optics.apply.expansion"] = (
        values.get("optics.apply.kets_out", 0) / max(values.get("optics.apply.kets_in", 0), 1))
    values["detection.condition.kept_ratio"] = (
        values.get("detection.condition.kets_kept", 0)
        / max(values.get("detection.condition.kets_in", 0), 1))
    return {f"{layer}.{m}": values.get(f"{layer}.{m}", 0)
            for layer, names in LAYER_METRICS for m in names}
