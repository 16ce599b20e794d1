"""Alternated parent/change benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload circuit-evolve sweep run-mix --seeds 6101-6110 --out BENCH_12.json

Each pair runs `perfbench/run.py --trace 0` once in each checkout with the
same seed and run length; the parent runs first in even-numbered pairs and the
change first in odd-numbered ones.  For each workload the output records every
run's end-to-end metrics, failed-op and mishandled-edge-request counts,
`correct` flag and digest, each side's median and quartiles per metric, how
many pairs the change won per metric (ties count for neither side), and
whether the metric is resolved: the parent's spread (interquartile range over
median) is within the metric's bound, or every change run beats every parent
run.  A `checks` block per workload lists the seeds whose parent and change
digests differ, sums failed ops and mishandled edge requests per side, and
lists the runs that are not `correct`; one stderr line repeats it.  Each
workload also gets one `perfbench/run.py --trace 1` run per checkout on the
first seed: traced runs replay fixed decks, so their counts repeat for a seed,
and the output records both sides' count metrics and the names of those whose
values differ.  The traced runs' timings are not recorded: from one run per
side they carry tens of percent of noise.  It also records both commits
(null, with a warning on stderr, for a checkout that is not a git work tree),
a sha256 of each checkout's `src/**/*.py`, their `src/` line counts
(`src_lines` in total, `src_module_lines` per file under `src/`), the CPU
model, and numpy's BLAS build and run-time kernel: the circuit-evolve digest
depends on the kernel.  Runs last `run_seconds` from the change's
BENCHMARK.json, and each invocation writes a fresh file, so every pair in it
comes from one host and one run length.  Standard library only; numpy is
queried in a child interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
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
    """The checkout's HEAD, or None with a warning where it is not a git work
    tree (as a `git archive` export is not)."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"warning: {checkout} is not a git work tree; its commit is recorded as null",
              file=sys.stderr, flush=True)
        return None
    return proc.stdout.strip()


def src_sha256(checkout: Path) -> str:
    """sha256 over the path and bytes of each `*.py` file under `src/`, in
    path order."""
    src, digest = checkout / "src", hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        digest.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return digest.hexdigest()


def module_lines(checkout: Path) -> dict[str, int]:
    """Lines of each `*.py` file under `src/`, keyed by its path there."""
    src = checkout / "src"
    return {f.relative_to(src).as_posix(): len(f.read_text().splitlines())
            for f in sorted(src.rglob("*.py"))}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def perfbench(checkout: Path, workload: str, seed: int, seconds: int,
              trace: int) -> tuple[dict, dict]:
    """One `perfbench/run.py` run: its summary line and the results file it saved."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return summary, json.loads(saved.read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its end-to-end metrics, op and edge-request counts,
    `correct` flag and digest."""
    summary, saved = perfbench(checkout, workload, seed, seconds, 0)
    return {
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "edge_attempted": saved["edge_attempted"],
        "edge_failed": saved["edge_failed"],
        "correct": saved["correct"],
        "digest": saved.get("digest"),
    }


def checks(pairs: list[dict]) -> dict:
    """Seeds whose two digests differ, failed ops and edge requests per side,
    and the (seed, side) of every run that is not `correct`."""
    sides = ("parent", "change")
    return {
        "digests_differ": [p["seed"] for p in pairs
                           if p["parent"]["digest"] != p["change"]["digest"]],
        **{key: {s: sum(p[s][key] for p in pairs) for s in sides}
           for key in ("failed", "edge_failed", "edge_attempted")},
        "incorrect": [[p["seed"], s] for p in pairs for s in sides if not p[s]["correct"]],
    }


def traced_runs(parent: Path, change: Path, workload: str, seed: int, seconds: int) -> dict:
    """One traced run per side: both sides' count metrics, and the names of
    those whose values differ.  Its timings are left out: from one run per
    side they carry tens of percent of noise."""
    counts = {side: {k: v["value"] for k, v in
                     perfbench(checkout, workload, seed, seconds, 1)[0]["metrics"].items()
                     if v["unit"] == "count"}
              for side, checkout in (("parent", parent), ("change", change))}
    return {
        "seed": seed,
        **counts,
        "counts_differ": sorted(k for k in counts["parent"].keys() | counts["change"].keys()
                                if counts["parent"].get(k) != counts["change"].get(k)),
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
    lines = {"parent": module_lines(parent), "change": module_lines(change)}
    report = {
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        **json.loads(probe.stdout),
        "run_seconds": seconds,
        "command": "perfbench/run.py --trace 0",
        "parent_commit": commit(parent),
        "change_commit": commit(change),
        "parent_src_sha256": src_sha256(parent),
        "change_src_sha256": src_sha256(change),
        "src_lines": {side: sum(per_file.values()) for side, per_file in lines.items()},
        "src_module_lines": lines,
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
        checked = checks(pairs)
        print(f"{workload} checks: digests differ {checked['digests_differ'] or 'nowhere'}; "
              + "; ".join(f"{s} failed {checked['failed'][s]}, edge requests mishandled "
                          f"{checked['edge_failed'][s]} of {checked['edge_attempted'][s]}"
                          for s in ("parent", "change"))
              + f"; incorrect runs {checked['incorrect'] or 'none'}",
              file=sys.stderr, flush=True)
        traced = traced_runs(parent, change, workload, args.seeds[0], seconds)
        print(f"{workload} seed {args.seeds[0]} traced: counts differ "
              f"{traced['counts_differ'] or 'nowhere'}", file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "pairs": pairs,
            "summary": summarize(pairs, bench["end_to_end"]),
            "checks": checked,
            "traced": traced,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
