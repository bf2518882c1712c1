"""Smoke check of the benchmark itself, in about a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on a tiny world, untraced and traced,
and checks that the last output line is a result whose metric names and
units are exactly the end-to-end, respectively per-layer, metrics declared
there and whose ops all passed their checks. Then checks that a copy holding
only BENCHMARK.json and the benchmark's files exits nonzero without a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
        "--seconds", "0.1", "--trace", str(trace), "--tiny",
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            before = len(problems)
            result = json.loads(lines[-1])
            printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if printed != declared[trace]:
                diff = sorted(set(printed.items()) ^ set(declared[trace].items()))
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {diff}")
            if not result.get("correct") or result.get("attempted", 0) < 1:
                problems.append(f"{label}: {result.get('failed')} of {result.get('attempted')} ops failed\n{proc.stderr}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAIL'}, {result.get('attempted')} op(s)")

    bare = BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
