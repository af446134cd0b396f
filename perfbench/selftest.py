"""The benchmark's own tests: each planted fault must trip the matching check.

Run from the root of the repository:

    python3 -m pytest -q perfbench/selftest.py

Every test runs a workload at its reduced size (`small=True`) with one fault
planted in the program's call path through monkeypatch, and asserts that the
check meant to catch it fails while the same check passes without it.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import env

env.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads  # noqa: E402
from panelscan import cli, detector, evaluation, io, pcafeat, riskmetrics, scorer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _checks(name, seed=0):
    return workloads.measure(name, seed, seconds=0, traced=False, import_s=0.0, small=True)


@pytest.fixture(scope="module")
def clean_runs():
    return {name: _checks(name) for name in workloads.WORKLOADS}


def test_small_workloads_pass_every_check(clean_runs):
    for name, result in clean_runs.items():
        assert result.checks.ok, (name, result.checks.failures())
    assert clean_runs["cli"].failed == 2 and clean_runs["cli"].attempted == 8
    assert clean_runs["calibrate"].failed == 0 and clean_runs["scan"].failed == 0


def _reversed_scores(forward):
    def fault(net, epsilon):
        scores = forward(net, epsilon)
        return scores[::-1].copy() if np.ndim(scores) == 1 and len(scores) > 1 else scores
    return fault


def _one_row_replaced(fit_pca):
    def fault(X_train, k):
        model = fit_pca(X_train, k)
        row = np.random.default_rng(0).standard_normal(model.omega.shape[1])
        model.omega[0] = row / np.linalg.norm(row)
        return model
    return fault


def _shifted_localize(localize):
    def fault(pca, X_row):
        return localize(pca, X_row) % pca.window_length + 1
    return fault


def _shifted_report(write_detect_report):
    def fault(path, reports):
        shifted = [dataclasses.replace(r, locations=[loc + 1 for loc in r.locations])
                   for r in reports]
        return write_detect_report(path, shifted)
    return fault


def _wrong_quantile(norm_quantile):
    return lambda p: norm_quantile(0.975 if p == 0.99 else p)


def _scaled_adf(adf_test):
    def fault(series, lag_order=None):
        result = adf_test(series, lag_order)
        return dataclasses.replace(result, statistic=result.statistic * 1.001)
    return fault


PLANTED = [
    ("calibrate", scorer, "forward", _reversed_scores, "test_metrics_recount"),
    ("calibrate", pcafeat, "fit_pca", _one_row_replaced, "pca_projector"),
    ("scan", detector, "localize", _shifted_localize, "localization_replay"),
    ("scan", riskmetrics, "norm_quantile", _wrong_quantile, "var_theo_closed_form"),
    ("scan", evaluation, "adf_test", _scaled_adf, "adf_statistic_lstsq"),
    ("cli", io, "write_detect_report", _shifted_report, "cleaned_only_at_locations"),
    ("cli", riskmetrics, "norm_quantile", _wrong_quantile, "var_theo_closed_form"),
]


@pytest.mark.parametrize("workload, module, attr, make_fault, check", PLANTED,
                         ids=[f"{w}-{a}" for w, _, a, _, _ in PLANTED])
def test_planted_fault_fails_its_check(clean_runs, monkeypatch, workload, module, attr,
                                       make_fault, check):
    assert clean_runs[workload].checks.by_name()[check]
    monkeypatch.setattr(module, attr, make_fault(getattr(module, attr)))
    result = _checks(workload)
    assert result.checks.by_name()[check] is False


def test_a_failing_command_is_a_failed_check_not_a_crash(monkeypatch):
    monkeypatch.setattr(cli, "cmd_augment", lambda args: 3)
    result = _checks("cli")
    assert result.checks.by_name()["valid_commands_exit_0"] is False
    assert result.checks.by_name()["outputs_readable"] is False
    assert result.metrics["rows_per_s"] == 0.0


def test_traced_run_reports_every_per_layer_metric():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        names = {m["name"] for m in json.load(handle)["per_layer"]}
    result = workloads.measure("scan", 0, seconds=0, traced=True, import_s=0.0, small=True)
    assert set(result.metrics) == names
    assert result.metrics["detector.rows_per_score_call"] == 1.0
    assert result.metrics["pcafeat.fit_pca_s"] == 0.0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
