"""Spans and call counts around the program's public functions, from outside.

``Tracer.install`` replaces each target with a wrapper, in its module or
class and in every ``nafl`` module that imported it by name, so calls made
inside the program are seen too. A span is (name, start, end, parent index);
self time is a span's duration minus that of its direct children. Spans stay
in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from collections import Counter

# (module, attribute path, kind): a "span" is timed, a "count" only counted.
TARGETS = (
    ("syntax", "parse_formula", "span"),
    ("classical", "entails", "span"),
    ("classical", "is_satisfiable", "span"),
    ("theories", "Theory.__init__", "span"),
    ("theories", "Theory.classify", "span"),
    ("theories", "Theory.is_legal", "span"),
    ("theories", "Theory.atom_status", "count"),
    ("models", "classical_models", "span"),
    ("models", "build_nonclassical", "span"),
    ("models", "nc_eval", "count"),
    ("timeline", "Timeline.declare", "span"),
    ("timeline", "Timeline.truth_at", "span"),
    ("timeline", "Timeline.retro_assert", "span"),
    ("timeline", "Timeline.epoch_at", "count"),
    ("duality", "assign_duality", "span"),
    ("scenarios", "parse_scenario", "span"),
    ("scenarios", "run_scenario", "span"),
    ("scenarios", "TimelineReport.render", "span"),
    ("photonsim", "simulate", "span"),
    ("photonsim", "analytic_blocked_fraction", "span"),
    ("photonsim", "reconstruct", "span"),
    ("photonsim", "quantum_pdf", "count"),
)

IMPORTS = ("nafl", "numpy", "scipy")


def target_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


def _call_metric(name: str) -> str:
    # Calls of Theory.__init__ count the theories constructed.
    return "theories.Theory.constructions" if name == "theories.Theory.init" else f"{name}.calls"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"import.{m}_ms" for m in IMPORTS]
    for module, path, kind in TARGETS:
        name = target_name(module, path)
        names.append(_call_metric(name))
        if kind == "span":
            names.append(f"{name}.self_ms")
    names += ["photonsim.photons", "photonsim.result_bytes", "trace.overhead_ms"]
    return names


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []          # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple] = []   # (owner, attribute, original, wrapper)

    def _wrap(self, name: str, kind: str, fn):
        counts, spans, stack = self.counts, self.spans, self._open
        clock = time.perf_counter

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "photonsim.simulate":
                counts["photonsim.photons"] += result.photons
                counts["photonsim.result_bytes"] += sum(
                    v.nbytes for v in vars(result).values() if hasattr(v, "nbytes")
                )
            return result

        return spanned

    def install(self) -> None:
        """Wrap every target; the nafl modules must already be imported."""
        if not self._patches:
            modules = [m for n, m in sys.modules.items() if n == "nafl" or n.startswith("nafl.")]
            for module, path, kind in TARGETS:
                owner = sys.modules[f"nafl.{module}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(target_name(module, path), kind, original)
                self._patches.append((owner, attr, original, wrapper))
                if not outer:
                    self._patches += [
                        (mod, key, original, wrapper)
                        for mod in modules
                        for key, value in vars(mod).items()
                        if value is original and mod is not owner
                    ]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_ms(self) -> Counter:
        """Total self time per span name, in milliseconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) * 1000.0
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"counts": self.counts, "self_ms": self.self_ms(), "spans": self.spans}, handle)


def layer_metrics(counts: Counter, self_ms: Counter, ops: int) -> dict[str, float]:
    """Per-operation calls and self times for every target."""
    out: dict[str, float] = {}
    for module, path, kind in TARGETS:
        name = target_name(module, path)
        out[_call_metric(name)] = counts[name] / ops
        if kind == "span":
            out[f"{name}.self_ms"] = self_ms[name] / ops
    out["photonsim.photons"] = counts["photonsim.photons"] / ops
    out["photonsim.result_bytes"] = counts["photonsim.result_bytes"] / ops
    return out


def import_ms(python: str, modules: str, env: dict) -> dict[str, float]:
    """Cumulative import time of nafl, numpy and scipy from ``-X importtime``.

    The log lists each module after its own imports, indented by depth. The
    nafl time sums its top-level entries. The numpy and scipy times sum the
    entries with no ancestor in either package, so they do not overlap: numpy
    submodules first imported by scipy count for scipy.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", f"import {modules}"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|", 2)
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((depth, field.strip().split(".")[0], int(cumulative)))
    totals = {package: 0.0 for package in IMPORTS}
    ancestors: list[tuple[int, str]] = []   # reversed, the log reads parent first
    for depth, package, micros in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        outer = {p for _, p in ancestors}
        if package in totals and package not in outer and (
            package == "nafl" or not outer & {"numpy", "scipy"}
        ):
            totals[package] += micros / 1000.0
        ancestors.append((depth, package))
    return totals
