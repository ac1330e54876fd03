"""Span tracer that wraps the program's public functions from outside.

``install`` replaces each traced function in every already-imported module
of the package that holds a reference to it, so a call is recorded where its
caller looks the name up (``tokenimpact.cli.load_csv`` as well as
``tokenimpact.glm.group_fix_impact``). Spans stay in memory and are written
out once the traced process ends. A function that no longer exists is
skipped and its metrics drop out; everything else still runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# layer -> public functions whose calls are timed
TRACED = {
    "survey": ("load_csv", "restrict_tokened_poor", "clean_uninformative",
               "balance_resample", "write_csv"),
    "synthetic": ("generate", "ground_truth_impact"),
    "descriptives": ("token_frequencies", "jaccard_matrix", "information_gain"),
    "timu": ("rank_tokens",),
    "polychoric": ("polychoric_matrix",),
    "factors": ("parallel_analysis_detail", "extract_factors", "varimax", "assign_groups"),
    "glm": ("select_interactions_aic", "build_design", "fit_logistic", "impact_report",
            "group_fix_impact", "cumulative_impact", "evaluate"),
}
COMMAND = "cli.command"
# spans whose number is reported as ``<name>.calls``
CALLS = ("survey.load_csv", "synthetic.ground_truth_impact", "timu.rank_tokens",
         "glm.build_design", "glm.fit_logistic")


def _n_boot(arguments, result):
    return arguments["n_boot"]


# metric -> (span name, work count taken from the call's bound arguments and result)
COUNTERS = {
    "survey.rows_loaded": ("survey.load_csv", lambda a, r: r.n_records),
    "survey.restrict_tokened_poor.rows_out": (
        "survey.restrict_tokened_poor", lambda a, r: r.n_records),
    "factors.parallel_analysis.reps": ("factors.parallel_analysis_detail", lambda a, r: r.reps),
    "factors.extract_factors.iterations": ("factors.extract_factors", lambda a, r: r.n_iter),
    "glm.fit_logistic.iterations": ("glm.fit_logistic", lambda a, r: r.iterations),
    "glm.bootstrap_replicates": ("glm.group_fix_impact", _n_boot),
}


@dataclass
class Tracer:
    """Records one span per traced call: name, start, end and parent."""

    spans: list[dict] = field(default_factory=list)
    installed: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counters = [(metric, count) for metric, (span_name, count) in COUNTERS.items()
                    if span_name == name]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, count in counters:
                    try:
                        span["counts"][metric] = count(bound.arguments, result)
                    except (AttributeError, KeyError):
                        pass  # the program no longer exposes this count
            return result

        return traced

    def install(self, package: str = "tokenimpact") -> None:
        """Wrap every traced function in the package's imported modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fn_name in names:
                span_name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.missing.append(span_name)
                    continue
                wrapper = self.wrap(span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                self.installed.append(span_name)


def layer_metrics(spans: list[dict], installed: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    A ``.s`` metric is the summed self time of a function's spans: each
    span's duration minus the durations of its direct children. ``cli.self.s``
    is the command time that no traced call covers.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span in spans:
        name = span["name"]
        own = span["end"] - span["start"] - child_time[span["id"]]
        self_time[name] = self_time.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for metric, value in span["counts"].items():
            counts[metric] = counts.get(metric, 0) + value
    metrics: dict[str, float] = {}
    for name in installed:
        metrics[f"{name}.s"] = self_time.get(name, 0.0)
        if name in CALLS:
            metrics[f"{name}.calls"] = calls.get(name, 0)
    for metric, (span_name, _) in COUNTERS.items():
        # a count the program stopped exposing drops out instead of reading 0
        if span_name in installed and (metric in counts or not calls.get(span_name)):
            metrics[metric] = counts.get(metric, 0)
    command = [s for s in spans if s["name"] == COMMAND]
    metrics["cli.command.s"] = sum(s["end"] - s["start"] for s in command)
    metrics["cli.self.s"] = self_time.get(COMMAND, 0.0)
    return metrics
