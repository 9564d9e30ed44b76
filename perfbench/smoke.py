"""Smoke test of the benchmark itself (not of kernelconnect).

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names appears with its unit and a finite value,
and that one injected failed operation raises fail_frac above 0.  Takes
about two minutes; exits nonzero on the first problem.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    return result


def check_metrics(result, wanted, label):
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        assert got is not None, f"{label}: metric {m['name']} missing"
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            f"{label}: {m['name']} = {got['value']}"
    extra = set(metrics) - {m["name"] for m in wanted}
    assert not extra, f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(name, 0)
        assert plain["correct"], f"{name}: incorrect output"
        check_metrics(plain, spec["end_to_end"], f"{name} untraced")
        traced = run(name, 1)
        assert traced["correct"], f"{name} traced: incorrect output"
        check_metrics(traced, spec["per_layer"], f"{name} traced")
        injected = run(name, 0, "--inject-failure")
        fail_frac = injected["failed"] / injected["attempted"]
        assert injected["failed"] == plain["failed"] + 1 and fail_frac > 0, \
            f"{name}: injected failure not counted ({injected['failed']} failed)"
        assert injected["metrics"]["ok_frac"]["value"] < 1.0
        print(f"ok {name}: {len(plain['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics; injected fail_frac {fail_frac:.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
