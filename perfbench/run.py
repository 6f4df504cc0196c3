"""Benchmark of nafl: four workloads, each run in fresh interpreters.

    python3 perfbench/run.py --workload {cli,sim,timeline,formulas}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --steady 10 --workload timeline [--seconds S]

A run prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``, which are the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. ``--steady N`` runs one workload N times with seeds 1..N and
prints each metric's median and quartiles. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import import_ms, metric_names
from worker import IMPORTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = tuple(IMPORTS)
# Operations a run makes per second of --seconds, near today's rate. The
# count is fixed for a given --seconds and never below MIN_OPS, so a run
# always does the same work and its tail percentile is the same percentile.
PER_SECOND = {"cli": 0.6, "sim": 2.4, "timeline": 3.0, "formulas": 8.0}
MIN_OPS = 40
SETUP_STARTS = 3        # fresh interpreters per run behind setup_s
IMPORT_SAMPLES = 3      # -X importtime runs behind each import.* metric
TIMEOUT_S = 170

PROBE = "import sys, time\nimport {modules}\nsys.stdout.write(f'ready {{time.monotonic()!r}}\\n')\n"

UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ops_per_s": "1/s", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "bytes" if name.endswith("result_bytes") else "count"


def environment() -> dict:
    """The program from this checkout's src, a fixed hash seed, one BLAS thread."""
    src = ROOT / "src"
    if not (src / "nafl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start(argv: list[str], env: dict) -> tuple[float, list[str]]:
    """Run a fresh interpreter; seconds from spawn to its ready line, and its output."""
    spawned = time.monotonic()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S, check=True)
    lines = proc.stdout.splitlines()
    return float(lines[0].split()[1]) - spawned, lines


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = environment()
    OUT.mkdir(exist_ok=True)
    ops = max(MIN_OPS, round(seconds * PER_SECOND[workload]))
    probe = [sys.executable, "-c", PROBE.format(modules=IMPORTS[workload])]
    probes = 0 if trace or workload == "cli" else SETUP_STARTS - 1
    # Probes before and after the worker, so the set-up samples span the run.
    setup = [start(probe, env)[0] for _ in range(probes // 2)]
    ready, lines = start(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(ops),
         "1" if trace else "0", str(OUT)],
        env,
    )
    setup += [start(probe, env)[0] for _ in range(probes - probes // 2)]
    res = json.loads(lines[-1])
    for message in res["failures"]:
        print(f"perfbench: {workload} seed {seed}: {message}", file=sys.stderr)
    if trace:
        samples = [import_ms(sys.executable, IMPORTS[workload], env) for _ in range(IMPORT_SAMPLES)]
        values = dict(res["layers"])
        for package in samples[0]:
            values[f"import.{package}_ms"] = statistics.median(s[package] for s in samples)
        metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in metric_names()}
    else:
        setup += res["setup"] if workload == "cli" else [ready]
        times = sorted(res["times"])
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_ms": 1000.0 * statistics.median(times),
            # the highest percentile with ten samples beyond it
            "op_tail_ms": 1000.0 * times[len(times) - 11],
            "ops_per_s": len(times) / res["loop_s"],
            "peak_rss_mb": res["rss_mb"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def steady(workload: str, runs: int, seconds: int, trace: bool) -> dict:
    """Run the benchmark ``runs`` times with seeds 1..runs, one process each, and summarise."""
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(1, runs + 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=2 * TIMEOUT_S,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    summary = {}
    print(f"\n{workload}: {runs} runs, failed/attempted {sorted(shares)}")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:44} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    return {"workload": workload, "runs": runs, "failed_shares": sorted(shares), "metrics": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run N times with seeds 1..N and print medians and quartiles")
    args = parser.parse_args()
    if args.steady:
        result = steady(args.workload, args.steady, args.seconds, bool(args.trace))
    else:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
