"""qndsim benchmark entry point.

    python3 perfbench/run.py --workload sweep|run-mix|circuit-evolve \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  With --trace 0 it measures set-up time (fresh interpreters
importing qndsim) and then runs the workload untraced in a worker process;
with --trace 1 it measures the import-time split per module and runs the
workload under the layer trace.  Human-readable lines come first; the last
line of standard output is one JSON object with the figures.  Results and
spans are also written under .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep", "run-mix", "circuit-evolve")
# what a user imports before the first op of each workload
SETUP_IMPORT = {"sweep": "qndsim.cli", "run-mix": "qndsim.cli", "circuit-evolve": "qndsim"}
MODULES = ("cli", "protocols", "circuits", "optics", "detection", "fock")
SETUP_SPAWNS = 7
IMPORTTIME_SPAWNS = 3
DEADLINE_S = 170.0  # the whole run, set-up included

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".lines"):
        return "lines"
    if name.endswith(("ratio", ".expansion")):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def python(args: list[str], env, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: python {' '.join(args)[:80]}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"exit {proc.returncode}: python {' '.join(args)[:80]}")
    return proc


def check_program(env, deadline: float) -> None:
    """The checkout's own src/qndsim must be what the children import."""
    if not (SRC / "qndsim" / "__init__.py").is_file():
        raise BenchError(f"no qndsim sources under {SRC}")
    code = "import qndsim.cli, sys; sys.stdout.write(qndsim.__file__)"
    where = Path(python(["-c", code], env, deadline).stdout).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"qndsim imported from {where}, not from {SRC}")


def setup_seconds(module: str, env, deadline: float) -> float:
    """Median wall time of fresh interpreters that import `module`."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        python(["-c", f"import {module}"], env, deadline)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def parse_importtime(text: str) -> dict[str, int]:
    """Own import time in microseconds of each qndsim.<module>.

    A module's own time is its cumulative time minus that of the qndsim
    modules it imports, so third-party packages count towards the qndsim
    module that imports them first (numpy: optics, scipy.constants:
    protocols, click: cli).
    """
    own: dict[str, int] = {}
    pending: list[tuple[int, int]] = []  # (depth, qndsim cumulative time in subtree)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cum, name = line.split("|")
        try:
            cum_us = int(cum)
        except ValueError:  # the header line
            continue
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        inner = 0
        while pending and pending[-1][0] > depth:
            inner += pending.pop()[1]
        if name == "qndsim" or name.startswith("qndsim."):
            own[name.removeprefix("qndsim.")] = cum_us - inner
            pending.append((depth, cum_us))
        else:
            pending.append((depth, inner))
    return own


def import_split(env, deadline: float) -> dict[str, float]:
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SPAWNS):
        err = python(["-X", "importtime", "-c", "import qndsim.cli"], env, deadline).stderr
        own = parse_importtime(err)
        for m in MODULES:
            samples[m].append(own[m] / 1e6)
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def source_lines() -> dict[str, int]:
    """Non-blank, non-comment lines per module."""
    out = {}
    for m in MODULES:
        lines = (SRC / "qndsim" / f"{m}.py").read_text(encoding="utf-8").splitlines()
        out[f"{m}.lines"] = sum(1 for s in lines if s.strip() and not s.strip().startswith("#"))
    return out


def run_worker(args, env, deadline: float) -> dict:
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.csv"
    proc = python([str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--spans", str(spans)], env, deadline)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = perf_counter() + DEADLINE_S
    env = child_env()
    try:
        check_program(env, deadline)
        OUT.mkdir(exist_ok=True)
        if args.trace:
            split = import_split(env, deadline)
            worker = run_worker(args, env, deadline)
            values = {**worker.pop("layers"), **split, **source_lines()}
            units = {name: unit_of(name) for name in values}
        else:
            setup = setup_seconds(SETUP_IMPORT[args.workload], env, deadline)
            worker = run_worker(args, env, deadline)
            values = {
                "setup_s": setup,
                "ops_per_s": worker["ops_per_s"],
                "op_p50_ms": worker["op_p50_ms"],
                "op_tail_ms": worker["op_tail_ms"],
                "peak_rss_mb": worker["peak_rss_mb"],
            }
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    n, failed = worker["attempted"], worker["failed"]
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(f"qndsim benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, v in values.items():
        print(f"  {name:40s} {v:.6g} {units[name]}")
    if not args.trace:
        wall = worker["wall"]
        print(f"  {'op_tail_ms is the percentile':40s} p{worker['op_tail_percentile']} "
              f"of {n} ops")
        print(f"  {'wall clock, not host-normalized':40s} ops_per_s {wall['ops_per_s']:.6g}, "
              f"op_p50_ms {wall['op_p50_ms']:.6g}, op_tail_ms {wall['op_tail_ms']:.6g}; "
              f"reference kernel {worker['reference_ms_median']:.4g} ms")
        print(f"  {'error_rate':40s} {failed / n:.6g} ratio ({failed} failed of {n} attempted)")
        print(f"  {'digest':40s} sha256:{worker['digest']} "
              f"(outputs of the {worker['digest_ops']} ops of deck 0)")
    if worker["edge_attempted"]:
        print(f"  {'edge requests mishandled':40s} {worker['edge_failed']} of "
              f"{worker['edge_attempted']} (sent once, untimed, not among the ops)")
    for why in worker["failures"]:
        print(f"  failed: {why}")
    for why in worker["edge_failures"]:
        print(f"  edge request mishandled: {why}")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**worker, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
