"""kernelconnect benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from src/ next to this directory,
never from an installed copy.  With --trace 0 the run prints the end-to-end
metrics, their timings scaled to the reference machine's speed by the probes
of hostspeed.py; with --trace 1 the per-layer metrics of a traced run.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
The full record of the run (environment, every sample, failures, spans) is
written to perfbench/out/.  See perfbench/README.md.
"""

import os

BLAS_THREADS = "1"  # fixed for every process the benchmark starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from spans import COUNTS, MODULES, TIMINGS, Tracer, layer_samples, summarize  # noqa: E402
from workloads import REF_SEED, WORKLOADS, Gate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

N_SETUP = 3      # set-up probes per run (fresh processes)
N_HELP = 3       # cold `kernelconnect --help` runs per traced run
MIN_PASSES = 3   # timed passes per run, whatever the time budget
# Residuals below 10% of their tolerance are at or near rounding level, where any
# reordering of floating-point work moves them by large factors; max_margin
# reports them all as this floor so that only approaches to a tolerance show.
MARGIN_FLOOR = 0.1
CHILD_TIMEOUT = 60  # seconds; the slowest child (verify all) takes about 3

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "cli_s": "s",
    "ok_frac": "1", "max_margin": "1", "peak_rss_mb": "MB",
}


def _spread(n: int, n_passes: int) -> set:
    """Indices of n passes evenly spread over n_passes (n <= n_passes)."""
    return {(2 * j + 1) * n_passes // (2 * n) for j in range(n)}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "blas_threads": int(BLAS_THREADS),
    }


class Run:
    def __init__(self, args):
        import kernelconnect
        if Path(kernelconnect.__file__).resolve().parent != SRC / "kernelconnect":
            raise SystemExit(f"imported kernelconnect from {kernelconnect.__file__}, "
                             f"expected {SRC}")
        self.kc = kernelconnect
        self.args = args
        self.gate = Gate(inject=args.inject_failure)
        self.tr = Tracer(enabled=False)
        self.detail: dict = {}

    # -- processes ---------------------------------------------------------

    def probe_setup(self):
        """Wall time of a fresh process that imports kernelconnect, builds pass 0's
        inputs and exits, with the import time it measured itself."""
        argv = [sys.executable, str(HERE / "setup_probe.py"), self.args.workload,
                str(self.args.seed), "1" if self.args.tiny else "0"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, capture_output=True,
                                  timeout=CHILD_TIMEOUT)
            wall = time.perf_counter() - start
            info = json.loads(proc.stdout.decode().splitlines()[0])
        except (subprocess.TimeoutExpired, IndexError, ValueError):
            self.gate.error("setup_probe")
            return None
        self.gate.require("setup_probe/exit_code", proc.returncode == 0)
        self.gate.same("setup_probe/imports_checkout_source",
                       Path(info["file"]).resolve().parent == SRC / "kernelconnect")
        return wall, info["import_s"]

    def cli(self, argv):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "kernelconnect", *argv],
                                  env=_child_env(), cwd=ROOT, capture_output=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.gate.error(f"cli/{argv[0]}/timeout")
            return None, None
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            self.detail.setdefault("cli_stderr", []).append(proc.stderr.decode()[-2000:])
        return proc, wall

    # -- passes ------------------------------------------------------------

    def one_pass(self, wl, pass_id, seed, index, traced):
        inp = wl.setup(self.kc, seed, index, self.args.tiny)
        self.tr.pass_id = pass_id
        self.tr.enabled = traced
        start = time.perf_counter()
        try:
            out = self.tr.call("pass", wl.run, self.kc, inp, self.tr, self.gate, tag=wl.name)
        except Exception:  # a pass that raises is a failed operation; keep measuring
            traceback.print_exc(file=sys.stderr)
            self.gate.error(f"pass/{pass_id}/raised")
            out = None
        elapsed = time.perf_counter() - start
        self.tr.enabled = False
        return inp, out, elapsed

    def reference_pass(self, wl):
        """Warm-up pass on the fixed reference input; its checks give max_margin."""
        before = len(self.gate.margins)
        self.one_pass(wl, "ref", REF_SEED, 0, False)
        margins = self.gate.margins[before:]
        worst = max(margins) if margins else (float("nan"), "none")
        self.detail["max_margin_check"] = worst
        return max(worst[0], MARGIN_FLOOR)

    def rerun_check(self, wl, first_out):
        _, again, _ = self.one_pass(wl, "rerun", self.args.seed, 0, False)
        same = (first_out is not None and again is not None
                and again["digest"] == first_out["digest"])
        self.gate.same("determinism/rerun_pass_0", same)

    def plan(self, wl):
        """How many passes and CLI runs this run makes: fixed by --seconds alone,
        never by elapsed time, so every run of a seed sees the same inputs."""
        seconds = self.args.seconds
        n_passes = max(MIN_PASSES, N_SETUP, round(seconds * wl.passes_per_s))
        return n_passes, min(n_passes, max(1, round(seconds * wl.cli_per_s)))

    def check_counts(self, pass_ids):
        seen = [self.tr.counts.get(p, {}) for p in pass_ids]
        self.gate.same("counts/identical_across_passes", all(c == seen[0] for c in seen))
        return dict(seen[0]) if seen else {}

    # -- the two kinds of run -----------------------------------------------

    def untraced(self, wl) -> dict:
        max_margin = self.reference_pass(wl)
        n_passes, n_cli = self.plan(wl)
        # set-up probes and CLI runs are spread evenly between the passes (a CLI
        # run on the inputs of the pass before it), so every kind of sample
        # spans the whole run and sees the same mix of machine states
        probe_after, cli_after = _spread(N_SETUP, n_passes), _spread(n_cli, n_passes)
        times, cli_times, setups, outs = [], [], [], {}
        # each sample is paired with the host-speed probes timed around it:
        # in-process ones for passes, child processes for child processes
        passes = hostspeed.Bracket(hostspeed.measure, hostspeed.REFERENCE_S)
        children = hostspeed.Bracket(lambda: hostspeed.measure_child(_child_env()),
                                     hostspeed.CHILD_REFERENCE_S)
        passes.start()
        for i in range(n_passes):
            inp, out, dt = self.one_pass(wl, i, self.args.seed, i, False)
            times.append(passes.pair(dt))
            if i == 0:
                outs[0] = out
            if i in probe_after:
                children.start()
                s = self.probe_setup()
                if s:
                    setups.append(children.pair(s[0]))
                passes.start()
            if i not in cli_after:
                continue
            children.start()
            proc, wall = self.cli(wl.cli(self.kc, inp))
            sample = children.pair(wall)
            passes.start()
            if proc is None:
                continue
            cli_times.append(sample)
            if out is None:
                self.gate.error(f"cli/{i}/no_reference")
            else:
                wl.check_cli(self.kc, inp, out, proc, self.tr, self.gate)
        self.rerun_check(wl, outs[0])
        self.detail["counts"] = self.check_counts(range(n_passes))
        nan = [(float("nan"), 1.0)]
        for name, pairs, bracket in (("passes", times, passes), ("cli", cli_times, children),
                                     ("setup", setups, children)):
            pairs = pairs or nan
            self.detail[name] = {"raw": summarize([t for t, _ in pairs]),
                                 "host_probe": summarize([p for _, p in pairs]),
                                 "adjusted": summarize([bracket.adjust(x) for x in pairs])}
            self.detail[f"{name}_samples"] = pairs
        g = self.gate
        return {
            "setup_s": self.detail["setup"]["adjusted"]["p50"],
            "pass_s": self.detail["passes"]["adjusted"]["p50"],
            "cli_s": self.detail["cli"]["adjusted"]["p50"],
            "ok_frac": 1.0 - g.failed / max(g.attempted, 1),
            "max_margin": max_margin,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def traced(self, wl) -> dict:
        tr = self.tr
        tr.pass_id = "cli"
        for s in (self.probe_setup() for _ in range(N_SETUP)):
            if s:
                tr.record("cli.import", None, s[1])
        for _ in range(N_HELP):
            proc, wall = self.cli(["--help"])
            if proc is not None:
                self.gate.require("cli/--help/exit_code", proc.returncode == 0)
                tr.record("cli.main", "--help", wall)
        self.reference_pass(wl)

        n_passes, _ = self.plan(wl)
        plain, traced, traced_ids = [], [], []
        first = None
        for i in range(max(4, n_passes)):  # alternately untraced and traced
            _, out, dt = self.one_pass(wl, i, self.args.seed, i, i % 2 == 1)
            if i % 2 == 0:
                plain.append(dt)
                first = out if i == 0 else first
                continue
            traced.append(dt)
            traced_ids.append(i)
            if i == 1:  # layers this workload does not reach are measured on the others
                for other in WORKLOADS.values():
                    if other is not wl:
                        self.one_pass(other, f"fill:{other.name}", self.args.seed, 0, True)
        self.rerun_check(wl, first)

        samples = layer_samples(tr.spans)
        fills = [f"fill:{w}" for w in WORKLOADS if w != wl.name]
        metrics, busy, sources = {}, dict.fromkeys(MODULES, 0.0), {}
        for metric, (_, _, unit, scale) in TIMINGS.items():
            for ids in (["cli"], traced_ids, *([f] for f in fills)):
                rows = [r for p in ids for r in samples.get((metric, p), [])]
                if rows:
                    break
            if not rows:
                self.gate.error(f"trace/{metric}/no_samples")
                rows, ids = [(float("nan"), 1)], ["none"]
            stats = summarize([sec / per * scale for sec, per in rows])
            per_pass = len(rows) / len(ids)
            seconds = sum(sec for sec, _ in rows) / len(ids)
            metrics[f"{metric}.p50"] = (stats["p50"], unit)
            metrics[f"{metric}.tail"] = (stats["tail"], unit)
            metrics[f"{metric}.calls"] = (per_pass, "count")
            busy[metric.split(".")[0]] += seconds
            sources[metric] = {**stats, "source": ids[0], "calls_per_pass": per_pass,
                               "busy_s_per_pass": seconds}
        own = self.check_counts(traced_ids)
        for name, unit in COUNTS.items():
            value = own.get(name)
            for f in fills:
                if value is None:
                    value = tr.counts.get(f, {}).get(name)
            metrics[name] = (value if value is not None else float("nan"), unit)
        for module, seconds in busy.items():
            metrics[f"{module}.busy_s"] = (seconds, "s")
        untraced_p50, traced_p50 = statistics.median(plain), statistics.median(traced)
        metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
        metrics["trace.overhead_frac"] = ((traced_p50 - untraced_p50) / untraced_p50, "1")
        self.detail.update(layers=sources, untraced_pass_times=plain, traced_pass_times=traced)
        self.detail["spans"] = tr.spans
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (smoke test)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="make the first operation fail (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kernelconnect" / "__init__.py").is_file():
        print(f"error: no kernelconnect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    run = Run(args)
    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics = run.traced(wl)
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value in run.untraced(wl).items()}

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    if run.gate.failures:
        print("failed operations: " + ", ".join(run.gate.failures[:20]))
    record = {"args": vars(args), "environment": env, "wall_s": time.perf_counter() - start,
              "attempted": run.gate.attempted, "failed": run.gate.failed,
              "failures": run.gate.failures, "metrics": metrics, **run.detail}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))
    print(json.dumps({
        "correct": run.gate.consistent,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
