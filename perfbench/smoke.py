"""Self-check of the benchmark harness at a tiny run length.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  For every workload it runs the
benchmark untraced and traced for one second (one deck) and asserts that the
last line is the result object, that every metric declared in BENCHMARK.json
is emitted with its declared unit and no other, and that every op passed its
oracle.  It also checks the Ryser permanent against the permutation sum, and
that the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared, set(emitted) ^ set(declared)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        text = "\n".join(lines[:-1])
        labels = ["error_rate", "digest", "percentile"]
        if workload == "run-mix":
            labels.append("edge requests mishandled")
        for label in labels:
            assert label in text, f"no {label} line"
    print(f"ok  {workload:15s} trace={trace}  {result['attempted']} ops, "
          f"{result['failed']} failed, {len(emitted)} metrics")


def check_permanent() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import permanent

    rng = random.Random(0)
    for n in range(1, 6):
        m = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
        direct = sum(math.prod(m[i][p[i]] for i in range(n))
                     for p in itertools.permutations(range(n)))
        assert abs(permanent(m) - direct) < 1e-9 * max(1.0, abs(direct)), n
    print("ok  Ryser permanent matches the permutation sum")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = run(bare, "sweep", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the program"
    assert '"metrics"' not in proc.stdout, "printed a result without the program"
    print("ok  refuses to run without src/")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_permanent()
    check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)


if __name__ == "__main__":
    main()
