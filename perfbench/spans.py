"""Spans around panelscan's public functions, recorded from outside the package.

`Tracer.install` replaces every public function of each layer module with a
wrapper that records a span: name, start, end, parent, the rows of the first
array argument and, for `io` readers and writers, the size of the file. The
package calls other modules as `module.func` and its own functions by global
name, so replacing the module attribute catches both kinds of call. Spans
stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children. `layer_metrics` turns the spans into the per-layer metrics that
BENCHMARK.json lists.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("simgen", "pcafeat", "density", "scorer", "detector", "evaluation",
          "riskmetrics", "workflows", "io", "cli")

# Span names summed (self time) into each `_s` metric.
SELF_TIME_GROUPS = {
    "simgen.simulate_s": ("simgen.simulate_gbm", "simgen.simulate_paths", "simgen.contaminate",
                          "simgen.correlation_matrix", "simgen.split_train_test"),
    "simgen.window_s": ("simgen.slide", "simgen.select", "simgen.label",
                        "simgen.build_labeled_panel"),
    "pcafeat.fit_pca_s": ("pcafeat.fit_pca", "pcafeat.jacobi_eigh",
                          "pcafeat.calibrate_latent_dim"),
    "pcafeat.features_s": ("pcafeat.reconstruction_errors",),
    "scorer.train_s": ("scorer.train",),
    "workflows.build_datasets_s": ("workflows.build_datasets", "workflows.build_panels"),
    "workflows.evaluate_run_s": ("workflows.evaluate_run",),
    "workflows.detect_panel_s": ("workflows.detect_panel",),
    "workflows.impute_panel_s": ("workflows.impute_panel",),
    "workflows.var_run_s": ("workflows.var_run",),
    "workflows.imputation_run_s": ("workflows.imputation_run",),
    "workflows.adf_study_s": ("workflows.adf_study",),
    "evaluation.adf_test_s": ("evaluation.adf_test", "evaluation.schwert_lag"),
    "cli.simulate_s": ("cli.cmd_simulate",),
    "cli.augment_s": ("cli.cmd_augment",),
    "cli.fit_s": ("cli.cmd_fit",),
    "cli.detect_s": ("cli.cmd_detect",),
    "cli.evaluate_s": ("cli.cmd_evaluate",),
    "cli.var_s": ("cli.cmd_var",),
}
# Whole layers summed (self time) into one metric.
LAYER_TIME = {
    "density.kde_s": "density",
    "detector.detect_s": "detector",
    "riskmetrics.var_s": "riskmetrics",
}
CALL_COUNTS = {
    "pcafeat.feature_calls": "pcafeat.reconstruction_errors",
    "density.bandwidth_calls": "density.silverman_bandwidth",
    "detector.score_calls": "detector.scores",
    "evaluation.adf_calls": "evaluation.adf_test",
}


class Tracer:
    """Span recorder; wrappers record only while `active` is true."""

    def __init__(self):
        self.active = False
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("l")
        self.nbytes = array("q")
        self._stack = [-1]
        self.train_results = []
        self._installed = []

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"panelscan.{layer}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                self._installed.append((module, attr, value))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", value))

    def uninstall(self):
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def _wrap(self, qualname, fn):
        name_id = self._name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        file_size = qualname.startswith(("io.read_", "io.write_"))
        keep_result = qualname == "scorer.train"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.rows.append(_rows(args))
            self.nbytes.append(0)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self._stack.pop()
            if file_size and args and os.path.isfile(args[0]):
                self.nbytes[span] = os.path.getsize(args[0])
            if keep_result:
                self.train_results.append(result)
            return result

        return wrapper

    def self_times(self):
        duration = np.asarray(self.end, dtype=float) - np.asarray(self.start, dtype=float)
        parent = np.asarray(self.parent, dtype=np.int64)
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return duration, duration - children

    def write(self, path):
        _, own = self.self_times()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle, lineterminator="\n")
            out.writerow(["id", "parent", "name", "start_s", "end_s", "self_s", "rows", "bytes"])
            origin = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.writerow([i, self.parent[i], self.names[self.name[i]],
                              f"{self.start[i] - origin:.9f}", f"{self.end[i] - origin:.9f}",
                              f"{own[i]:.9f}", self.rows[i], self.nbytes[i]])


def _rows(args):
    for value in args:
        if isinstance(value, np.ndarray):
            return int(value.shape[0]) if value.ndim == 2 else 1
    return 0


def _best_update_ratio(train_results):
    updates = passes = 0
    for result in train_results:
        best = np.inf
        for row in result.history:
            passes += 1
            if row.loss < best:
                best = row.loss
                updates += 1
    return updates / passes if passes else 0.0


def layer_metrics(tracer: Tracer):
    """Per-layer metrics from the recorded spans (0 where a layer did no work)."""
    span_names = np.asarray(tracer.names, dtype=object)[np.asarray(tracer.name, dtype=np.int64)]
    duration, own = tracer.self_times()
    rows = np.asarray(tracer.rows, dtype=np.int64)
    nbytes = np.asarray(tracer.nbytes, dtype=np.int64)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    layer_of = np.array([n.split(".", 1)[0] for n in span_names], dtype=object)

    def pick(*qualnames):
        return np.isin(span_names, qualnames)

    out = {}
    for metric, group in SELF_TIME_GROUPS.items():
        out[metric] = float(own[pick(*group)].sum())
    for metric, layer in LAYER_TIME.items():
        out[metric] = float(own[layer_of == layer].sum())
    for metric, qualname in CALL_COUNTS.items():
        out[metric] = int(pick(qualname).sum())

    # scorer.forward under scorer.train: the full-set loss observation
    under_train = np.zeros(span_names.size, dtype=bool)
    train_span = span_names == "scorer.train"
    for i in range(span_names.size):
        p = parent[i]
        under_train[i] = p >= 0 and (under_train[p] or train_span[p])
    observe = under_train & pick("scorer.forward")
    out["scorer.observe_s"] = float(own[observe].sum())
    out["scorer.observe_rows"] = int(rows[observe].sum())
    out["scorer.best_update_ratio"] = _best_update_ratio(tracer.train_results)

    score_calls = pick("detector.scores")
    out["detector.rows_per_score_call"] = (
        float(rows[score_calls].sum()) / int(score_calls.sum()) if score_calls.any() else 0.0)
    # window rows per second through detect_iterative calls made outside detect_panel
    parent_names = np.where(parent >= 0, span_names[np.maximum(parent, 0)], "")
    top_detect = pick("detector.detect_iterative") & (parent_names != "workflows.detect_panel")
    out["detector.windows_per_s"] = (
        int(top_detect.sum()) / float(duration[top_detect].sum()) if top_detect.any() else 0.0)
    studies = pick("workflows.var_run", "workflows.imputation_run")
    out["workflows.panels_per_s"] = (
        int(pick("workflows.var_run").sum()) / float(duration[studies].sum())
        if studies.any() else 0.0)
    adf = pick("workflows.adf_study")
    out["workflows.adf_rows_per_s"] = (
        float(rows[adf].sum()) / float(duration[adf].sum()) if adf.any() else 0.0)

    out["evaluation.metrics_s"] = float(
        own[(layer_of == "evaluation") & ~pick("evaluation.adf_test", "evaluation.schwert_lag")].sum())
    reads = np.array([n.startswith("io.read_") for n in span_names], dtype=bool)
    writes = np.array([n.startswith("io.write_") for n in span_names], dtype=bool)
    out["io.read_s"] = float(own[reads].sum())
    out["io.write_s"] = float(own[writes].sum())
    read_mb = nbytes[reads].sum() / 1e6
    written_mb = nbytes[writes].sum() / 1e6
    out["io.read_mb_per_s"] = read_mb / out["io.read_s"] if out["io.read_s"] > 0 else 0.0
    out["io.write_mb_per_s"] = written_mb / out["io.write_s"] if out["io.write_s"] > 0 else 0.0
    out["io.written_mb"] = float(written_mb)
    out["trace.spans"] = int(span_names.size)
    return out
