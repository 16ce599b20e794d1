"""Alternated parent/change benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload circuit-evolve sweep run-mix --seeds 6101-6110 --out BENCH_12.json

Each pair runs `perfbench/run.py --trace 0` once in each checkout with the
same seed and run length; the parent runs first in even-numbered pairs and the
change first in odd-numbered ones.  For each workload the output records every
run's end-to-end metrics, failed-op count and digest, each side's median and
quartiles per metric, how many pairs the change won per metric (ties count
for neither side), and whether the metric is resolved: the parent's spread
(interquartile range over median) is within the metric's bound, or every
change run beats every parent run.  It also records both commits and their `src/` line counts,
the CPU model, and numpy's BLAS build and run-time kernel: the circuit-evolve
digest depends on the kernel.  Runs last `run_seconds` from the change's
BENCHMARK.json, and each invocation writes a fresh file, so every pair in it
comes from one host and one run length.  Standard library only; numpy is
queried in a child interpreter.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_PROBE = """
import ctypes, glob, json, os
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
core = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        fn = getattr(ctypes.CDLL(path), name, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            core = fn().decode()
print(json.dumps({"numpy": numpy.__version__, "blas": blas, "openblas_core": core}))
"""


def seeds_arg(text: str) -> list[int]:
    """'5101-5110' or '1,5,9'."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_lines(checkout: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (checkout / "src").rglob("*.py"))


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its end-to-end metrics, op counts and digest."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    digest = json.loads(saved.read_text()).get("digest")
    return {
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "digest": digest,
    }


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        side = {s: [p[s]["metrics"][name] for p in pairs] for s in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(side["parent"], side["change"]))
        stats = {s: quartiles(v) for s, v in side.items()}
        parent_median = stats["parent"]["median"]
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        spread = parent_iqr / parent_median if parent_median else None
        if lower:
            all_better = max(side["change"]) < min(side["parent"])
        else:
            all_better = min(side["change"]) > max(side["parent"])
        out[name] = {
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": stats["parent"],
            "change": stats["change"],
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_ratio": (stats["change"]["median"] / parent_median
                                    if parent_median else None),
            "parent_iqr": parent_iqr,
            "parent_spread": spread,
            "resolved": all_better or (spread is not None and spread <= spec["bound"]),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent commit's checkout")
    ap.add_argument("--change", type=Path, required=True, help="change's checkout")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 5101-5110 or 1,2,3")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    probe = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                           text=True, check=True)
    report = {
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        **json.loads(probe.stdout),
        "run_seconds": seconds,
        "command": "perfbench/run.py --trace 0",
        "parent_commit": commit(parent),
        "change_commit": commit(change),
        "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(parent if side == "parent" else change,
                                      workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"ops_per_s {pair[side]['metrics']['ops_per_s']:.1f}, "
                      f"failed {pair[side]['failed']}", file=sys.stderr, flush=True)
            pairs.append(pair)
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "pairs": pairs,
            "summary": summarize(pairs, bench["end_to_end"]),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
