"""Per-call cost of the five protocols, and of each heralding device's `apply`,
in process, parent against change.

    python3 tools/bench_calls.py --parent ../parent --change . [--out calls.json]

Parameters are the ROADMAP Baseline's: gamma = 1, eta^2 = 0.88, theta =
(1.1, 2.3), epsilon = 0.1, T = 1/2 and tau = pi.  Each round starts one child
interpreter per checkout (with that checkout's `src/` on `sys.path`), the
parent first in even-numbered rounds and the change first in odd-numbered
ones; a child times 200 calls of each item after one warm-up call.  Each
side's figure is its best of 5 rounds, in microseconds per call.  The
`apply` items time `optics.apply` on the (transform, state, floor) that
`number_qnd`, `pol_qnd` and `kerr_qnd` pass it for their heralded evolution,
recorded from one protocol call.  A table goes to stdout; `--out` also writes
the figures as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROUNDS = 5
CALLS = 200

CHILD = """
import json, math, sys, time
from qndsim import optics, protocols
from qndsim.detection import DetectorModel
from qndsim.protocols import NumberInputSpec, PdcSourceSpec, PolarizationAngle

spec = NumberInputSpec.from_gamma(1.0)
angle = PolarizationAngle.from_bloch(1.1, 2.3)
det = DetectorModel(0.88)
src = PdcSourceSpec(0.1)
items = {
    "number_qnd": lambda: protocols.number_qnd(spec, 0.5, det),
    "pol_qnd": lambda: protocols.pol_qnd(spec, angle, det),
    "teleport_number_qnd": lambda: protocols.teleport_number_qnd(spec, src),
    "teleport_pol_qnd": lambda: protocols.teleport_pol_qnd(spec, angle, src),
    "kerr_qnd": lambda: protocols.kerr_qnd(spec, math.pi, det),
}
real = protocols.apply
for name in ("number_qnd", "pol_qnd", "kerr_qnd"):
    def record(t, state, floor=None, name=name):
        if floor is not None:
            items[name + " apply"] = lambda: optics.apply(t, state, floor)
        return real(t, state, floor)
    protocols.apply = record
    items[name]()
protocols.apply = real
calls = int(sys.argv[1])
out = {}
for name, call in items.items():
    call()
    start = time.perf_counter()
    for _ in range(calls):
        call()
    out[name] = (time.perf_counter() - start) / calls * 1e6
print(json.dumps(out))
"""


def child(checkout: Path) -> dict[str, float]:
    """One child interpreter's microseconds per call, by item."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(CALLS)], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"child in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent commit's checkout")
    ap.add_argument("--change", type=Path, required=True, help="change's checkout")
    ap.add_argument("--out", type=Path, help="also write the figures to this JSON file")
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    best: dict[str, dict[str, float]] = {"parent": {}, "change": {}}
    for i in range(ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            for name, us in child(sides[side]).items():
                best[side][name] = min(us, best[side].get(name, us))
    names = list(best["change"])
    print(f"{'item':<22} {'parent us':>10} {'change us':>10} {'ratio':>7}")
    for name in names:
        p, c = best["parent"].get(name), best["change"][name]
        ratio = f"{c / p:7.3f}" if p else f"{'-':>7}"
        print(f"{name:<22} {p if p is not None else float('nan'):10.1f} {c:10.1f} {ratio}")
    if args.out:
        report = {"rounds": ROUNDS, "calls": CALLS, "unit": "us per call, best of rounds",
                  **{side: best[side] for side in sides}}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
