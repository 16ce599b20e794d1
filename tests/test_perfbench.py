"""The benchmark's contract with the program.

The benchmark in `perfbench/` reaches qndsim by name: its layer trace wraps
module attributes, and its workloads call the CLI and the state and circuit
constructors.  These tests fail when such a name or call shape goes away.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402  (also imports workloads)
import workloads  # noqa: E402


def test_trace_installs_and_uninstalls():
    originals = [getattr(owner, attr) for _, owner, attr, _ in tracer.TARGETS]
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert [getattr(owner, attr) for _, owner, attr, _ in tracer.TARGETS] == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_deck_passes_its_oracle(name):
    workload = workloads.WORKLOADS[name]
    failures = []
    for op in [*workload.deck(1, 0), *workload.edge_ops]:
        why = workload.check(op, workload.run(op))
        if why:
            failures.append(f"{' '.join(op.argv)[:120]}: {why}")
    assert failures == []
