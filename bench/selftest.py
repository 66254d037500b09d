"""Fast self-test of the benchmark harness on tiny configs.

Usage, from the root of a checkout::

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json shrunk (``--tiny``), with tracing
off and on, and checks that each result line is well formed and correct,
that it names every metric of BENCHMARK.json with its unit, and that the
traced oracle label count matches the configs exactly.  Then checks that
the benchmark exits nonzero, printing no result, in a directory holding
only BENCHMARK.json and the benchmark.  Exits nonzero on any problem.
"""

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{BENCH.name}/run_bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _check_result(label: str, proc, wanted: dict) -> tuple:
    if proc.returncode != 0:
        return None, [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}"
                        f"\n{proc.stderr[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), numbers.Real) or isinstance(m.get("value"), bool):
            problems.append(f"{label}: {name} value {m.get('value')!r} is not a number")
    return result, problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        wl = WORKLOADS[name]
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            proc = _run(ROOT, "--workload", name, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            result, found = _check_result(label, proc, wanted[trace])
            problems += found
            if trace and result is not None:
                cfg = wl.config(0, tiny=True)
                labels = sum(c.oracle_labels(cfg) for c in wl.commands)
                traced = result["metrics"].get("oracle.labels", {}).get("value")
                if traced != labels:
                    problems.append(f"{label}: oracle.labels {traced}, configs give {labels}")
            print(f"{label}: {'ok' if not found else 'FAILED'}")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    name = spec["workloads"][0]["name"]
    proc = _run(bare, "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory refused: {'ok' if proc.returncode != 0 else 'FAILED'}")

    for problem in problems:
        print("problem: " + problem, file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
