"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--seconds S] [--write perfbench/baseline.json]

--write adds the summary to the file under "end_to_end" (--trace 0) or
"per_layer" (--trace 1), keeping the other half.

For every workload and metric it reports the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread (q3 - q1) /
median, and flags an end-to-end spread above a third of the metric's bound
in BENCHMARK.json.  It fails if any run is incorrect or if a deterministic
value (counts, calls per pass, max_margin) differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC = ("max_margin", ".calls", "gram_entries", "gram_bytes", "rk4_stages",
                 "verify.checks")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, problems, environment = {}, [], None
    for workload in args.workloads.split(","):
        values, failed, attempted = {}, [], []
        for seed in parse_seeds(args.seeds):
            result, record = run_once(workload, seed, args.seconds, args.trace)
            environment = record["environment"]
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: incorrect output")
            failed.append(result["failed"])
            attempted.append(result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, count in record.get("counts", {}).items():
                values.setdefault(f"counts.{name}", []).append(count)
            print(f"{workload} seed {seed}: wall {record['wall_s']:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if not k.endswith((".tail", ".calls")))[:400], flush=True)
        rows = {name: summarize(v) for name, v in values.items()}
        for name, v in values.items():
            if any(d in name for d in DETERMINISTIC) and len(set(v)) > 1:
                problems.append(f"{workload} {name}: differs between runs {sorted(set(v))}")
        for name, bound in bounds.items():
            if args.trace == 0 and name != "setup_s" and rows[name]["spread"] > bound / 3:
                problems.append(f"{workload} {name}: spread {rows[name]['spread']:.3f} "
                                f"above a third of bound {bound}")
        rows["failed"] = {"per_run": failed, "attempted_per_run": attempted}
        summary[workload] = rows
        for name, row in rows.items():
            if "spread" in row and not name.endswith((".tail", ".calls")):
                print(f"  {name:40s} median {row['median']:<12.5g} q1 {row['q1']:<12.5g} "
                      f"q3 {row['q3']:<12.5g} spread {row['spread']:.4f}")
    if args.write:  # one file holds an untraced and a traced summary side by side
        path = Path(args.write)
        data = json.loads(path.read_text()) if path.exists() else {}
        data["per_layer" if args.trace else "end_to_end"] = {
            "seeds": args.seeds, "seconds": args.seconds, "environment": environment,
            "workloads": summary}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
