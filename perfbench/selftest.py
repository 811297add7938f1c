"""Self-test of the benchmark at n = 16.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Runs every workload with tracing
off and on at 16 cells, and checks that each run is correct and reports
every metric ``BENCHMARK.json`` names, with its unit.  It makes no timing
assertions.  Exit code 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for wl in bench["workloads"]:
        for trace in (0, 1):
            label = f"{wl['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 wl["name"], "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--cells", "16"],
                capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit code {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: not correct: {lines[-2]}")
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append(f"{label}: metric names differ: missing "
                                f"{sorted(set(expected[trace]) - set(metrics))}"
                                f", extra "
                                f"{sorted(set(metrics) - set(expected[trace]))}")
            for name, unit in expected[trace].items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{label}: {name} reads {got}, "
                                    f"expected a number in {unit}")
            print(f"{label}: {result['attempted']} launches checked")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
