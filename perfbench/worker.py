"""One run of one workload, inside the fresh interpreter it measures.

    python3 worker.py <workload> <seed> <ops> <trace 0|1> <out dir>

Prints ``ready <monotonic clock>`` as soon as the workload's imports are
done, then one JSON line with the operation times, set-up samples, peak
memory, the operations whose output failed the independent checks and, in a
traced run, the per-layer counts. The run first makes every input from the
seed, runs one untimed warm-up operation, then ``ops`` operations in a closed
loop; a traced run alternates untraced and traced operations.
"""

import importlib
import math
import os
import re
import resource
import sys
import time

IMPORTS = {
    "cli": "nafl.cli",
    "sim": "nafl.photonsim",
    "timeline": "nafl.scenarios",
    "formulas": "nafl.syntax, nafl.theories, nafl.models",
}

HERE = os.path.dirname(os.path.abspath(__file__))

# What the installed ``nafl`` console script runs, plus a marker on stderr
# (empty on success) saying when start-up ended.
CLI_ENTRY = (
    "import sys, time\n"
    "from nafl.cli import main\n"
    "sys.stderr.write(f'ready {time.monotonic()!r}\\n')\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
CLI_TRACED = (
    "import sys\n"
    "from nafl.cli import main\n"
    "from tracer import Tracer\n"
    "tracer = Tracer()\n"
    "tracer.install()\n"
    "try:\n"
    "    code = main(sys.argv[2:])\n"
    "finally:\n"
    "    tracer.dump(sys.argv[1])\n"
    "sys.exit(code)\n"
)


class Cli:
    """``nafl run afshar`` and ``nafl check <chain .thy>``, one process each."""

    in_process = False
    caches_per_input = False

    def __init__(self, scratch: str):
        import inputs

        self.inputs = inputs
        self.scratch = scratch
        self.traced_env = dict(
            os.environ, PYTHONPATH=os.environ.get("PYTHONPATH", "") + os.pathsep + HERE
        )

    def make(self, seed: int, k: int):
        if k % 2 == 0:
            return ["run", "afshar"], None
        text, facts = self.inputs.chain_theory_file(self.inputs.op_rng(seed, "cli", k))
        path = os.path.join(self.scratch, f"op{k}.thy")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return ["check", path], facts

    def run(self, item, trace_path=None):
        import subprocess

        args = item[0]
        if trace_path is None:
            argv, env = [sys.executable, "-c", CLI_ENTRY, *args], None
        else:
            argv, env = [sys.executable, "-c", CLI_TRACED, trace_path, *args], self.traced_env
        spawned = time.monotonic()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        return spawned, proc

    def observe(self, raw):
        spawned, proc = raw
        stderr, setup = proc.stderr, None
        if stderr.startswith("ready "):
            marker, _, stderr = stderr.partition("\n")
            setup = float(marker.split()[1]) - spawned
        return proc.returncode, proc.stdout, stderr, setup

    def check(self, item, obs):
        code, out, err, _ = obs
        if code != 0:
            return f"{' '.join(item[0])}: exit {code}: {err.strip()[-300:]}"
        if item[0][0] == "run":
            return check_afshar_report(out)
        facts = item[1]
        lines = set(out.splitlines())
        want = [f"theory {facts['name']}: consistent"]
        want += [f"  {atom}: {status}" for atom, status in facts["status"].items()]
        want += [f"query {q}: {verdict}" for q, verdict in facts["queries"].items()]
        missing = [line for line in want if line not in lines]
        return f"check {facts['name']}: missing {missing[:3]}" if missing else None


def check_afshar_report(out: str):
    """P is neither on [0, 2) and true from 2; both audits and expectations pass."""
    lines = out.splitlines()
    try:
        header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["formula"])
    except StopIteration:
        return "run afshar: no truth table"
    columns = [
        (float(a), float(b)) for a, b in re.findall(r"\[([^,]+), ([^)]+)\)", lines[header])
    ]
    row = next((line.split() for line in lines[header + 1:] if line.split()[:1] == ["P"]), [])
    want = ["P"] + ["true" if start >= 2 else "neither" for start, _ in columns]
    if not columns or row != want or any(s < 2 < e for s, e in columns):
        return f"run afshar: P row {row} under {columns}"
    for fact in ("BCP: PASS", "duality: PASS", "expect-reject: all matched"):
        if not any(line.startswith(fact) for line in lines):
            return f"run afshar: no {fact!r}"
    return None


class Sim:
    """simulate + analytic_blocked_fraction + reconstruct(100), 1M photons."""

    in_process = True
    # simulate caches its sampling table per SimConfig, seed included, so a
    # second run of the same input would find it warm
    caches_per_input = True
    photons = 1_000_000
    bins = 100

    def __init__(self, scratch: str):
        import inputs
        import oracles
        from nafl import photonsim

        self.inputs, self.oracles, self.photonsim = inputs, oracles, photonsim

    def make(self, seed: int, k: int):
        return self.inputs.op_rng(seed, "sim", k).getrandbits(63)

    def config(self, sim_seed: int):
        return self.photonsim.calibration_preset(self.photons, sim_seed)

    def run(self, sim_seed, trace_path=None):
        ps = self.photonsim
        cfg = self.config(sim_seed)
        result = ps.simulate(cfg, workers=1)
        oracle = ps.analytic_blocked_fraction("quantum", cfg)
        return cfg, result, oracle, ps.reconstruct(result, self.bins)

    def observe(self, raw):
        cfg, result, oracle, report = raw
        return (cfg.wire_width, cfg.period, result.photons, result.blocked_count,
                oracle, int(report.counts.sum()), bool(report.minima_aligned))

    def check(self, sim_seed, obs):
        width, period, photons, blocked, oracle, histogram, aligned = obs
        closed = self.oracles.flat_blocked_fraction(width, period)
        sigma = math.sqrt(closed * (1.0 - closed) / photons)
        if abs(oracle - closed) > 1e-9:
            return f"seed {sim_seed}: oracle {oracle!r} against closed form {closed!r}"
        if abs(blocked / photons - closed) > 5.0 * sigma:
            return f"seed {sim_seed}: blocked {blocked}/{photons}, closed form {closed:.6g}"
        if histogram != photons - blocked:
            return f"seed {sim_seed}: histogram holds {histogram} of {photons - blocked} detected"
        if not aligned:
            return f"seed {sim_seed}: minima not aligned with the wires"
        return None

    def check_once(self, sim_seed):
        cfg = self.config(sim_seed)
        one = self.photonsim.simulate(cfg, workers=1)
        two = self.photonsim.simulate(cfg, workers=2)
        return None if one == two else f"seed {sim_seed}: workers=2 differs from workers=1"


class Timeline:
    """parse_scenario -> run_scenario -> render on 16-atom chain scenarios."""

    in_process = True
    caches_per_input = False

    def __init__(self, scratch: str):
        import inputs
        from nafl import scenarios

        self.inputs, self.scenarios = inputs, scenarios

    def make(self, seed: int, k: int):
        return self.inputs.chain_scenario(self.inputs.op_rng(seed, "timeline", k))

    def run(self, item, trace_path=None):
        report = self.scenarios.run_scenario(self.scenarios.parse_scenario(item[0]))
        return report, report.render()

    def observe(self, raw):
        """Only what the check reads, so no report outlives its operation."""
        report, text = raw
        return {
            "columns": [tuple(c) for c in report.columns],
            "truth_rows": report.truth_rows,
            "duality": [(r.distinguishability, r.visibility) for r in report.duality_records],
            "rejections": [(r.kind, r.time) for r in report.rejections],
            "mismatches": list(report.mismatches),
            "text": text,
        }

    def check(self, item, obs):
        facts = item[1]
        text = obs["text"]
        times = facts["times"]
        starts = [float(t) for t in times]
        columns = list(zip(starts, starts[1:] + [float("inf")]))
        if obs["columns"] != columns:
            return f"columns {obs['columns']}"
        columns_truth = [self.inputs.chain_truth(facts, t) for t in starts]
        expected = {
            name: tuple(column[i] for column in columns_truth)
            for i, name in enumerate(facts["names"])
        }
        retro_at, _ = self.inputs.CHAIN_RETRO
        retro = (f"retro [0, {retro_at}) {facts['retro_formula']}",
                 tuple("-" if t < retro_at else "true" for t in starts))
        rows = dict(obs["truth_rows"])
        for name, cells in expected.items():
            if rows.get(name) != cells:
                return f"atom {name}: {rows.get(name)} against {cells}"
        if obs["truth_rows"][len(expected):] != (retro,):
            return f"retro rows {obs['truth_rows'][len(expected):]} against {retro}"
        shown = {}
        for line in text.splitlines():
            tokens = line.split()
            if tokens and tokens[0] in expected and len(tokens) == len(columns) + 1:
                shown[tokens[0]] = tuple(tokens[1:])
        if shown != expected:
            return "rendered truth table differs from the closed form"
        if obs["duality"] != [(0.0, 1.0)] + [(1.0, 0.0)] * (len(times) - 1):
            return f"duality records {obs['duality']}"
        if obs["rejections"] != [("illegal-axiom", 1.0)] or obs["mismatches"]:
            return f"rejections {obs['rejections']}, mismatches {obs['mismatches']}"
        needed = ("BCP: PASS", "duality: PASS", "expect-reject: all matched",
                  f"declare {facts['rejected']} -> rejected (illegal-axiom)")
        for fact in needed:
            if fact not in text:
                return f"report lacks {fact!r}"
        return None


class Formulas:
    """A fresh 12-atom theory, legality of 96 formulas and status of 96 others,
    then the superposed model."""

    in_process = True
    caches_per_input = False

    def __init__(self, scratch: str):
        import inputs
        from nafl import models, syntax, theories

        self.inputs, self.models, self.syntax, self.theories = inputs, models, syntax, theories

    def make(self, seed: int, k: int):
        return self.inputs.random_theory(self.inputs.op_rng(seed, "formulas", k))

    def run(self, item, trace_path=None):
        parse = self.syntax.parse_formula
        theory = self.theories.Theory(
            "random", item["names"], [parse(a) for a in item["axioms"]]
        )
        to_judge = [parse(f) for f in item["legal_batch"]]
        to_classify = [parse(f) for f in item["status_batch"]]
        legal = [theory.is_legal(f) for f in to_judge]
        status = [theory.classify(f).value for f in to_classify]
        model = self.models.build_nonclassical(theory)
        nc_eval = self.models.nc_eval
        superposed = [nc_eval(model, f) for f in to_judge + to_classify]
        contradictions = [nc_eval(model, parse(c)) for c in item["contradictions"]]
        return legal, status, superposed, contradictions

    def observe(self, raw):
        return raw

    def check(self, item, obs):
        legal, status, superposed, contradictions = obs
        for text, got, want in zip(item["legal_batch"], legal, item["legal"]):
            if got != want:
                return f"{text}: legal {got} against {want}"
        for text, got, want in zip(item["status_batch"], status, item["status"]):
            if got != want:
                return f"{text}: status {got} against {want}"
        if superposed != item["superposed"]:
            return "superposed-model truth differs from the oracle"
        if not all(contradictions):
            return f"a contradiction over {item['contradictions']} fails in the superposed model"
        return None


WORKLOADS = {"cli": Cli, "sim": Sim, "timeline": Timeline, "formulas": Formulas}


def schedule(kind, ops: int, trace: bool) -> list[tuple[int, bool]]:
    """(input index, traced) per operation; a traced run pairs each traced
    operation with an untraced one, whose difference is the overhead."""
    if not trace:
        return [(k, False) for k in range(ops)]
    pairs = range(ops // 2)
    if kind.caches_per_input:
        return [(i, i % 2 == 1) for j in pairs for i in (2 * j, 2 * j + 1)]
    return [(j, traced) for j in pairs for traced in (False, True)]


def main(argv: list[str]) -> int:
    workload, seed, ops, trace, out_dir = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    kind = WORKLOADS[workload]
    if kind.in_process:
        for module in IMPORTS[workload].split(", "):
            importlib.import_module(module)
    print(f"ready {time.monotonic()!r}", flush=True)

    import json
    import shutil
    import statistics
    import tempfile

    from tracer import Tracer, layer_metrics

    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        w = kind(scratch)
        items = [w.make(seed, k) for k in range(ops + 1)]
        w.observe(w.run(items[ops]))          # warm-up on its own input
        plan = schedule(kind, ops, trace)
        tracer = Tracer()
        times, traced_times, observations = [], [], []
        failures: dict[int, str] = {}
        loop_start = time.perf_counter()
        for step, (k, traced) in enumerate(plan):
            trace_path = os.path.join(scratch, f"trace{step}.json") if traced else None
            if traced and w.in_process:
                tracer.install()
            start = time.perf_counter()
            try:
                raw = w.run(items[k], trace_path)
            except Exception as exc:  # a failed operation; the run goes on
                raw, failures[step] = None, f"op {k}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced and w.in_process:
                tracer.uninstall()
            (traced_times if traced else times).append(elapsed)
            observations.append(None if raw is None else w.observe(raw))
            del raw
        loop_s = time.perf_counter() - loop_start
        # The high-water mark of the timed loop, before the checks add theirs.
        who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

        wrong: dict[int, str] = {}
        for step, ((k, _), obs) in enumerate(zip(plan, observations)):
            message = obs is not None and w.check(items[k], obs)
            if message:
                wrong[step] = message
        if hasattr(w, "check_once"):
            message = w.check_once(items[0])
            if message:
                wrong.setdefault(0, message)
        failures.update(wrong)
        result = {
            "attempted": len(plan),
            "failed": len(failures),
            "correct": not wrong,
            "failures": list(failures.values())[:5],
            "times": times,
            "loop_s": loop_s,
            "setup": [] if w.in_process else [o[3] for o in observations if o and o[3] is not None],
            "rss_mb": rss_mb,
        }
        if trace:
            if not w.in_process:
                merge_child_traces(scratch, tracer)
            layers = layer_metrics(tracer.counts, tracer.self_ms(), len(traced_times))
            layers["trace.overhead_ms"] = 1000.0 * (
                statistics.median(traced_times) - statistics.median(times)
            )
            result["layers"] = layers
            tracer.dump(os.path.join(out_dir, f"trace-{workload}-{seed}.json"))
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def merge_child_traces(scratch: str, into) -> None:
    """Fold the span dumps of traced CLI processes into one tracer."""
    import json

    for name in sorted(os.listdir(scratch)):
        if not (name.startswith("trace") and name.endswith(".json")):
            continue
        with open(os.path.join(scratch, name), encoding="utf-8") as handle:
            dump = json.load(handle)
        offset = len(into.spans)
        into.counts.update(dump["counts"])
        into.spans.extend(
            [n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in dump["spans"]
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
