"""Per-call cost of the five protocols, of two sweep rows, of each heralding
device's `apply` and of building transforms, parent against change,
alternated in one process.

    python3 tools/bench_calls.py --parent ../parent --change . [--out calls.json]

Parameters are the ROADMAP Baseline's: gamma = 1, eta^2 = 0.88, theta =
(1.1, 2.3), epsilon = 0.1, T = 1/2 and tau = pi.  Each checkout's
`src/qndsim` is loaded under its own package name (`qndsim_parent`,
`qndsim_change`), so both run in this interpreter with the same numpy.  In
every round each item is timed for 300 calls on one side and then on the
other, the parent first in even-numbered rounds and the change first in
odd-numbered ones.  The five protocol items read the outcome's
`conditional_output`, as `run` prints it, so an ensemble built on first
access is timed where it is paid.  The sweep-row items time `outcome(det)` of
a device built once and read only its probability and fidelity, as `sweep`
does per eta^2 row.  The `apply` items time `optics.apply` on
the (transform, state, floor) that `number_qnd`, `pol_qnd` and `kerr_qnd`
pass it for their heralded evolution, recorded from one protocol call; each
`unfloored` item beside one times the same transform and state without the
floor, so the two show what the floor saves or costs on that device.  The
`parse` items time `parse_circuit` on two fixed six-channel texts, one
`matrix` line (the 6 x 6 Fourier matrix) and 18 elements on three polarized
modes, and `number transform` times `number_device_transform(0.3)`, which
builds and checks a 4 x 4 matrix: the paths through the transform
constructor, its unitarity check and `compose`.  `circuit apply` times
unfloored `optics.apply` of the 18-element circuit on a fixed state of four
8-photon kets over its six channels (1287 output kets), the size of
circuit-evolve's slowest ops.  For each item the table
gives each side's best round, in microseconds per call, the median over
rounds of the change/parent ratio, and the rounds the change won.  `--out`
also writes every round's figures as JSON.  Standard library only; numpy is
imported where a checkout imports it.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROUNDS = 21
CALLS = 300

MODES = "mode a pol\nmode b pol\nmode c pol\n"
# every entry exp(2 pi i jk / 6) / sqrt 6, written with repr
FOURIER = MODES + "matrix 6 " + " ".join(
    f"{z.real!r}{z.imag:+}i"
    for z in (cmath.exp(2j * cmath.pi * j * k / 6) / 6**0.5 for j in range(6) for k in range(6))
) + "\n"
ELEMENTS = MODES + """\
bs a b T=0.3
ps a phi=1.1
rot b angle=0.7
pbs b c
bs c a T=0.62 flip
ps c phi=-2.4
rot a angle=2.9
bs b c T=0.5
pbs a b
ps b phi=0.35
rot c angle=-1.3
bs a c T=0.81
pbs c a
ps a phi=3.0
bs b a T=0.17 flip
rot b angle=0.05
pbs a c
ps c phi=-0.6
"""
# 8 photons on the six channels of ELEMENTS
CIRCUIT_KETS = {(3, 0, 2, 1, 0, 2): 0.5, (0, 1, 1, 1, 4, 1): 0.5j,
                (2, 2, 2, 2, 0, 0): -0.5, (1, 0, 0, 0, 0, 7): 0.5}


def load(name: str, checkout: Path):
    """The checkout's `src/qndsim` package, imported as `name`: its relative
    imports resolve to `name.<module>`."""
    root = checkout / "src" / "qndsim"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def items(name: str, checkout: Path) -> dict[str, Callable[[], object]]:
    """The timed calls of one checkout, by item."""
    load(name, checkout)
    optics, protocols = sys.modules[f"{name}.optics"], sys.modules[f"{name}.protocols"]
    detection, circuits = sys.modules[f"{name}.detection"], sys.modules[f"{name}.circuits"]
    fock = sys.modules[f"{name}.fock"]
    spec = protocols.NumberInputSpec.from_gamma(1.0)
    angle = protocols.PolarizationAngle.from_bloch(1.1, 2.3)
    det = detection.DetectorModel(0.88)
    src = protocols.PdcSourceSpec(0.1)
    number, pol = protocols.number_device(spec, 0.5), protocols.pol_device(spec, angle)
    circuit = circuits.parse_circuit(ELEMENTS)
    kets = fock.FockState(circuit.channels, CIRCUIT_KETS)

    def row(device):
        outc = device.outcome(det)
        return outc.success_probability, outc.fidelity

    calls = {
        "number_qnd": lambda: protocols.number_qnd(spec, 0.5, det).conditional_output,
        "pol_qnd": lambda: protocols.pol_qnd(spec, angle, det).conditional_output,
        "teleport_number_qnd": lambda: protocols.teleport_number_qnd(spec, src).conditional_output,
        "teleport_pol_qnd": lambda: protocols.teleport_pol_qnd(spec, angle, src).conditional_output,
        "kerr_qnd": lambda: protocols.kerr_qnd(spec, math.pi, det).conditional_output,
        "number row": lambda: row(number),
        "pol row": lambda: row(pol),
        "parse matrix": lambda: circuits.parse_circuit(FOURIER),
        "parse elements": lambda: circuits.parse_circuit(ELEMENTS),
        "number transform": lambda: protocols.number_device_transform(0.3),
        "circuit apply": lambda: optics.apply(circuit, kets),
    }
    real = protocols.apply
    for item in ("number_qnd", "pol_qnd", "kerr_qnd"):
        def record(t, state, floor=None, item=item):
            if floor is not None:
                calls[item + " apply"] = lambda: optics.apply(t, state, floor)
                calls[item + " unfloored"] = lambda: optics.apply(t, state)
            return real(t, state, floor)
        protocols.apply = record
        calls[item]()
    protocols.apply = real
    for call in calls.values():
        call()  # warm-up
    return calls


def per_call_us(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        call()
    return (time.perf_counter() - start) / CALLS * 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent commit's checkout")
    ap.add_argument("--change", type=Path, required=True, help="change's checkout")
    ap.add_argument("--out", type=Path, help="also write the figures to this JSON file")
    args = ap.parse_args()

    sides = {side: items(f"qndsim_{side}", getattr(args, side).resolve())
             for side in ("parent", "change")}
    # only items both checkouts have are compared
    names = [name for name in sides["change"] if name in sides["parent"]]
    runs: dict[str, dict[str, list[float]]] = {side: {n: [] for n in names} for side in sides}
    for i in range(ROUNDS):
        for name in names:
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side][name].append(per_call_us(sides[side][name]))
    report = {}
    print(f"{'item':<22} {'parent us':>10} {'change us':>10} {'ratio':>7} {'wins':>6}")
    for name in names:
        p, c = runs["parent"][name], runs["change"][name]
        ratio = statistics.median(cr / pr for cr, pr in zip(c, p))
        wins = sum(cr < pr for cr, pr in zip(c, p))
        report[name] = {"parent_best": min(p), "change_best": min(c), "median_ratio": ratio,
                        "change_wins": wins, "parent": p, "change": c}
        print(f"{name:<22} {min(p):10.1f} {min(c):10.1f} {ratio:7.3f} {wins:>3}/{ROUNDS}")
    if args.out:
        args.out.write_text(json.dumps({"rounds": ROUNDS, "calls": CALLS,
                                        "unit": "us per call", "items": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
