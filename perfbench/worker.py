"""Runs one workload in this process and prints its figures as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread counts pinned to 1.  One closed-loop client: each op starts
when the previous one has finished and been checked.  Only the op itself is
timed; generating inputs and running oracles happen between ops.

  untraced: warm-up, then whole decks until the ops have taken --seconds.
  traced:   warm-up, then the workload's fixed number of decks twice, once
            plain and once under the layer trace, so every count repeats
            exactly for a seed and trace.overhead_ratio compares like with like.

Either way the workload's edge requests are sent last, once each, untimed and
untraced; they are reported apart from the ops.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

from workloads import WORKLOADS, Op, Workload

# Normalized latencies read as wall time on a host where the kernel takes this.
REFERENCE_MS = 1.0
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.25
TAIL_PERCENTILES = (99, 90, 75, 50)


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like qndsim's inner loops: the creation-
    operator expansion of six photons over five channels on a dict of tuples."""
    poly = {(0, 0, 0, 0, 0): 1 + 0j}
    column = (0.5 + 0.1j, -0.3 + 0.2j, 0.7 - 0.1j, 0.2 + 0.4j, 0.1 - 0.6j)
    for _ in range(6):
        grown: dict[tuple[int, ...], complex] = {}
        for mon, c in poly.items():
            for d, u in enumerate(column):
                key = mon[:d] + (mon[d] + 1,) + mon[d + 1:]
                grown[key] = grown.get(key, 0j) + c * u
        poly = grown
    return len(poly)


class HostSpeed:
    """Tracks how fast the host runs.

    A shared host's speed drifts by tens of percent over tens of seconds.
    Between ops, at most every SAMPLE_EVERY_S, the reference kernel is run
    three times and the fastest time kept as one sample.  An op's latency is
    then scaled by REFERENCE_MS over the median of the samples taken from
    WINDOW_S before it starts to WINDOW_S after it ends, which cancels the
    drift from run to run.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []  # kernel wall time, ms

    def sample_if_due(self) -> None:
        if self.times and perf_counter() - self.times[-1] < SAMPLE_EVERY_S:
            return
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            reference_kernel()
            best = min(best, perf_counter() - t0)
        self.times.append(perf_counter())
        self.samples.append(best * 1e3)

    def scaled(self, starts: list[float], latencies: list[float]) -> list[float]:
        out = []
        for t0, latency in zip(starts, latencies):
            lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.times, t0 + latency + WINDOW_S)
            window = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
            out.append(latency * REFERENCE_MS / statistics.median(window))
        return out


class Loop:
    """Closed-loop client: op latencies, failures and the output digest."""

    def __init__(self, workload: Workload, host: HostSpeed):
        self.workload = workload
        self.host = host
        self.starts: list[float] = []
        self.latencies: list[float] = []  # wall seconds
        self.failed = 0
        self.failures: list[str] = []

    def scaled(self) -> list[float]:
        """Host-normalized latencies, seconds; call after the last op."""
        return self.host.scaled(self.starts, self.latencies)

    def run(self, ops: list[Op], digest=None) -> float:
        """Run ops in order; return their summed wall latency in seconds."""
        busy = 0.0
        for op in ops:
            self.host.sample_if_due()
            t0 = perf_counter()
            try:
                result = self.workload.run(op)
                error = None
            except Exception as exc:  # a failed op, counted below
                error = exc
            latency = perf_counter() - t0
            busy += latency
            self.starts.append(t0)
            self.latencies.append(latency)
            if error is None:
                try:
                    why = self.workload.check(op, result)
                except Exception as exc:  # output the oracle cannot read
                    why = f"unreadable output: {exc!r}"
                record = self.workload.render(op, result) if digest is not None else ""
            else:
                why = repr(error)
                record = f"exception {type(error).__name__}"
            if digest is not None:
                digest.update(record.encode() + b"\0")
            if why:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{' '.join(op.argv)[:200]}: {why}")
        return busy


def latency_figures(latencies: list[float], good: int) -> dict:
    """ops_per_s, median and tail latency; the tail is the highest of
    TAIL_PERCENTILES (nearest rank) with at least ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == TAIL_PERCENTILES[-1]:
            break
    return {
        "ops_per_s": good / math.fsum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[rank - 1] * 1e3,
        "op_tail_percentile": p,
    }


def edge_requests(workload: Workload, host: HostSpeed) -> dict:
    """Send each edge request once; count those the program mishandles."""
    loop = Loop(workload, host)
    loop.run(list(workload.edge_ops))
    return {"edge_attempted": len(workload.edge_ops), "edge_failed": loop.failed,
            "edge_failures": loop.failures}


def untraced(workload: Workload, seed: int, seconds: float) -> dict:
    host = HostSpeed()
    Loop(workload, host).run(workload.deck(seed, -1)[: workload.warmup_ops])
    loop = Loop(workload, host)
    digest = hashlib.sha256()
    busy, decks = 0.0, 0
    while decks == 0 or busy < seconds:
        ops = workload.deck(seed, decks)
        busy += loop.run(ops, digest if decks == 0 else None)
        if decks == 0:
            digest_ops = len(ops)
        decks += 1
    n = len(loop.latencies)
    good = n - loop.failed
    return {
        "attempted": n,
        "failed": loop.failed,
        "failures": loop.failures,
        **edge_requests(workload, host),
        "decks": decks,
        "busy_s": busy,
        **latency_figures(loop.scaled(), good),
        "wall": latency_figures(loop.latencies, good),
        "reference_ms_median": statistics.median(host.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
        "digest_ops": digest_ops,
    }


def traced(workload: Workload, seed: int, spans_path: str) -> dict:
    from tracer import Tracer, layer_metrics

    ops = [op for d in range(workload.trace_decks) for op in workload.deck(seed, d)]
    host = HostSpeed()
    Loop(workload, host).run(workload.deck(seed, -1)[: workload.warmup_ops])
    plain = Loop(workload, host)
    plain.run(ops)

    tracer = Tracer()
    loop = Loop(workload, host)
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            loop.run([op])
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)

    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = math.fsum(loop.scaled()) / math.fsum(plain.scaled())
    return {
        "attempted": 2 * len(ops),
        "failed": plain.failed + loop.failed,
        "failures": plain.failures + loop.failures,
        **edge_requests(workload, host),
        "spans": len(tracer.spans),
        "layers": metrics,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=os.devnull, help="where a traced run writes its spans")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced(workload, args.seed, args.spans)
    else:
        result = untraced(workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
