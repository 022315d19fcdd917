"""Self-test of the benchmark: every workload at minimum size, in both modes.

    python3 bench/selftest.py

For the committed seed (0) and one other seed (1) it checks that every
output check passes, that each mode prints exactly the metrics
BENCHMARK.json names for it, each with its unit, and that the traced
self times of every pass sum to no more than that pass's wall time.
It runs the traced mode twice on seed 0 and requires identical counts,
and checks that a checkout holding only BENCHMARK.json and bench/ fails
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "calls/op")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload: str, seed: int, trace: int) -> dict:
    done = run(workload, seed, trace)
    label = f"{workload} seed {seed} trace {trace}"
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}, label
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
    if trace:
        record = json.loads((HERE / "results" /
                             f"{workload}-seed{seed}-trace1-quick.json").read_text())
        for self_sum, wall in zip(record["traced_self_sum_s"], record["traced_wall_s"]):
            assert self_sum <= wall, f"{label}: self times {self_sum} > wall {wall}"
        assert record["counts_repeat_across_passes"], label
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in named), label
    return result


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def check_bare_checkout() -> None:
    """Without src/ the benchmark must fail and print no result."""
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    try:
        done = run(SPEC["workloads"][0]["name"], 0, 0, cwd=bare)
        assert done.returncode != 0, "bare checkout exited 0"
        assert '"metrics"' not in done.stdout, "bare checkout printed a result"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for seed in (0, 1):
        for name in names:
            for trace in (0, 1):
                result = check_run(name, seed, trace)
                if trace and seed == 0:
                    again = check_run(name, seed, trace)
                    assert counts(again) == counts(result), f"{name}: counts differ"
                print(f"ok  {name} seed {seed} trace {trace}", flush=True)
    check_bare_checkout()
    print("ok  bare checkout fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
