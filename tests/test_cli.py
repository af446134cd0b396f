"""End-to-end CLI runs: exit codes, byte-level reproducibility, report shapes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from panelscan import cli, evaluation, io, simgen

# small panel that still leaves every split with both window classes
SIM_FLAGS = ["--stocks", "6", "--steps", "380", "--split-index", "220",
             "--window-length", "64", "--train-anoms", "2", "--test-anoms", "1",
             "--k", "12"]
AUG_FLAGS = ["--split-index", "220", "--window-length", "64"]
FIT_FLAGS = ["--k", "12", "--hidden", "16", "--iters", "40"]

SIM_FILES = ["clean_panel.csv", "contaminated_panel.csv",
             "value_labels.csv", "params.csv"]


def _run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulate -> augment -> fit chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    assert _run("simulate", "--seed", 7, "--out-dir", root, "--quiet",
                *SIM_FLAGS) == 0
    assert _run("augment", "--seed", 7, "--out-dir", root, "--quiet",
                "--panel", root / "contaminated_panel.csv",
                "--value-labels", root / "value_labels.csv", *AUG_FLAGS) == 0
    assert _run("fit", "--seed", 7, "--out-dir", root, "--quiet",
                "--windows", root / "windows_train.csv",
                "--labels", root / "labels_train.csv", *FIT_FLAGS) == 0
    return root


def _model_flags(workdir):
    return ["--pca", workdir / "pca.txt", "--net", workdir / "net.txt"]


# -- simulate ------------------------------------------------------------


def test_simulate_writes_consistent_panel_files(workdir):
    for name in SIM_FILES:
        assert (workdir / name).exists()
    _, clean = io.read_panel(workdir / "clean_panel.csv")
    _, contaminated = io.read_panel(workdir / "contaminated_panel.csv")
    _, labels = io.read_value_labels(workdir / "value_labels.csv")
    assert clean.shape == contaminated.shape == labels.shape == (6, 380)
    # two train anomalies and one test anomaly stamped per series
    np.testing.assert_array_equal(labels.sum(axis=1), np.full(6, 3))
    untouched = labels == 0
    np.testing.assert_array_equal(contaminated[untouched], clean[untouched])
    s0, mu, sigma = io.read_params(workdir / "params.csv")
    assert s0.size == mu.size == sigma.size == 6
    assert np.all(sigma > 0)


def test_simulate_same_seed_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        assert _run("simulate", "--seed", 7, "--out-dir", out, "--quiet",
                    *SIM_FLAGS) == 0
    for name in SIM_FILES:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_simulate_missing_out_dir_exits_2(tmp_path, capsys):
    code = _run("simulate", "--out-dir", tmp_path / "nope", "--quiet", *SIM_FLAGS)
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_simulate_rho_at_or_above_one_exits_3(tmp_path, capsys):
    code = _run("simulate", "--out-dir", tmp_path, "--quiet", *SIM_FLAGS, "--rho", "1.5")
    err = capsys.readouterr().err
    assert code == 3
    assert "rho must lie in [0, 1)" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


# -- augment -------------------------------------------------------------


def test_augment_writes_balanced_train_and_rated_test(workdir):
    _, X_train = io.read_panel(workdir / "windows_train.csv")
    A_train, L_train = io.read_labels(workdir / "labels_train.csv")
    assert X_train.shape[1] == 64
    assert A_train.size == X_train.shape[0]
    assert float(A_train.mean()) == 0.5
    assert np.all(L_train[A_train == 1] >= 1)
    _, X_test = io.read_panel(workdir / "windows_test.csv")
    A_test, _ = io.read_labels(workdir / "labels_test.csv")
    assert A_test.size == X_test.shape[0]
    # test mode targets the default 16% contamination rate up to rounding
    assert 0.10 <= float(A_test.mean()) <= 0.20


def test_augment_split_zero_keeps_one_set(workdir, tmp_path):
    assert _run("augment", "--out-dir", tmp_path, "--quiet",
                "--panel", workdir / "contaminated_panel.csv",
                "--value-labels", workdir / "value_labels.csv",
                "--split-index", 0, "--window-length", 64) == 0
    assert (tmp_path / "windows_train.csv").exists()
    assert not (tmp_path / "windows_test.csv").exists()


def test_augment_shape_mismatch_exits_3(workdir, tmp_path):
    io.write_panel(tmp_path / "small.csv", np.ones((2, 3)))
    assert _run("augment", "--out-dir", tmp_path, "--quiet",
                "--panel", tmp_path / "small.csv",
                "--value-labels", workdir / "value_labels.csv", *AUG_FLAGS) == 3


# -- fit -----------------------------------------------------------------


def test_fit_records_flags_in_model_files(workdir):
    pca_lines = (workdir / "pca.txt").read_text().splitlines()
    assert pca_lines[0] == io.PCA_FORMAT_TAG
    assert "k 12" in pca_lines
    net = io.read_network(workdir / "net.txt")
    assert net.layer_dims == [64, 16, 1]
    log = (workdir / "training_log.csv").read_text().splitlines()
    assert log[0] == "iter,loss,bce,auc_u,auc_c,s"
    losses = [float(line.split(",")[1]) for line in log[1:]]
    assert len(losses) >= 40
    assert min(losses) <= losses[0]
    assert all(np.isfinite(losses))


def test_fit_same_seed_is_byte_identical(workdir, tmp_path):
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        assert _run("fit", "--seed", 7, "--out-dir", out, "--quiet",
                    "--windows", workdir / "windows_train.csv",
                    "--labels", workdir / "labels_train.csv", *FIT_FLAGS) == 0
    for name in ("pca.txt", "net.txt", "training_log.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_fit_single_class_labels_exit_3(tmp_path):
    rng = np.random.default_rng(5)
    io.write_panel(tmp_path / "w.csv", rng.normal(size=(6, 8)))
    io.write_labels(tmp_path / "l.csv", np.zeros(6, dtype=int), np.zeros(6, dtype=int))
    assert _run("fit", "--out-dir", tmp_path, "--quiet",
                "--windows", tmp_path / "w.csv", "--labels", tmp_path / "l.csv",
                "--k", 2, "--hidden", 4, "--iters", 5) == 3


def test_fit_missing_input_exits_2(tmp_path):
    assert _run("fit", "--out-dir", tmp_path, "--quiet",
                "--windows", tmp_path / "missing.csv",
                "--labels", tmp_path / "also_missing.csv") == 2


def test_fit_malformed_csv_exits_2(tmp_path):
    (tmp_path / "w.csv").write_text("series_id,t_1\n0,not_a_number\n")
    io.write_labels(tmp_path / "l.csv", [1], [1])
    assert _run("fit", "--out-dir", tmp_path, "--quiet",
                "--windows", tmp_path / "w.csv",
                "--labels", tmp_path / "l.csv") == 2


# -- detect --------------------------------------------------------------


def test_detect_report_is_self_consistent(workdir, tmp_path):
    assert _run("detect", "--out-dir", tmp_path, "--quiet",
                "--windows", workdir / "windows_test.csv",
                "--cleaned", "cleaned.csv", *_model_flags(workdir)) == 0
    report = io.read_detect_report(tmp_path / "detect_report.csv")
    _, windows = io.read_panel(workdir / "windows_test.csv")
    assert len(report) == windows.shape[0]
    for row in report:
        assert row["pred_A"] in (0, 1)
        assert np.isfinite(row["score"])
        if row["pred_A"] == 0:
            assert row["locations"] == [] and row["iterations"] == 0
        else:
            assert 1 <= row["iterations"] <= 5
            assert len(row["locations"]) == len(set(row["locations"]))
            assert all(1 <= loc <= 64 for loc in row["locations"])
    _, cleaned = io.read_panel(tmp_path / "cleaned.csv")
    assert cleaned.shape == windows.shape


def test_detect_rerun_is_byte_identical(workdir, tmp_path):
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        assert _run("detect", "--out-dir", out, "--quiet",
                    "--windows", workdir / "windows_test.csv",
                    *_model_flags(workdir)) == 0
    assert (tmp_path / "a" / "detect_report.csv").read_bytes() == \
        (tmp_path / "b" / "detect_report.csv").read_bytes()


def test_detect_clean_windows_mostly_unflagged(workdir, tmp_path):
    _, clean = io.read_panel(workdir / "clean_panel.csv")
    X, _, _ = simgen.slide(clean[:, 220:], np.zeros_like(clean[:, 220:]), 64)
    io.write_panel(tmp_path / "clean_windows.csv", X)
    assert _run("detect", "--out-dir", tmp_path, "--quiet",
                "--windows", tmp_path / "clean_windows.csv",
                *_model_flags(workdir)) == 0
    report = io.read_detect_report(tmp_path / "detect_report.csv")
    unflagged = [row for row in report if row["pred_A"] == 0]
    assert len(unflagged) > len(report) / 2
    assert all(row["locations"] == [] for row in unflagged)


# -- evaluate ------------------------------------------------------------


def test_evaluate_emits_metrics_and_tables(workdir, tmp_path):
    assert _run("evaluate", "--out-dir", tmp_path, "--quiet",
                "--windows", workdir / "windows_test.csv",
                "--labels", workdir / "labels_test.csv",
                "--prc", "prc.csv", "--robustness", "rob.csv",
                "--adf", "adf.csv", *_model_flags(workdir)) == 0
    metrics = io.read_json(tmp_path / "metrics.json")
    ident = metrics["identification"]
    assert set(ident) >= {"accuracy", "precision", "recall", "f1"}
    assert 0.0 <= ident["f1"] <= 1.0
    assert 0.0 <= metrics["localization"]["accuracy"] <= 1.0
    assert 0.0 <= metrics["dummy_localization_accuracy"] <= 1.0
    assert 0.0 <= metrics["prc_auc"] <= 1.0
    assert 0.0 <= metrics["adf_reject_rate"] <= 1.0
    rob = (tmp_path / "rob.csv").read_text().splitlines()
    assert len(rob) == len(evaluation.ROBUSTNESS_SHOCKS) + 1
    assert rob[0] == "gamma,accuracy,precision,recall,f1"
    prc = (tmp_path / "prc.csv").read_text().splitlines()
    assert prc[0] == "threshold,recall,precision"
    assert len(prc) > 2
    adf = (tmp_path / "adf.csv").read_text().splitlines()
    assert adf[0] == "statistic,mean_p,max_p,reject_rate"
    assert len(adf) == 2


def test_evaluate_label_count_mismatch_exits_3(workdir, tmp_path):
    lines = (workdir / "labels_test.csv").read_text().splitlines()
    (tmp_path / "short.csv").write_text("\n".join(lines[:-3]) + "\n")
    assert _run("evaluate", "--out-dir", tmp_path, "--quiet",
                "--windows", workdir / "windows_test.csv",
                "--labels", tmp_path / "short.csv", *_model_flags(workdir)) == 3


# -- var -----------------------------------------------------------------


def test_var_emits_five_sources_and_errors(workdir, tmp_path):
    assert _run("var", "--out-dir", tmp_path, "--quiet",
                "--clean", workdir / "clean_panel.csv",
                "--panel", workdir / "contaminated_panel.csv",
                "--value-labels", workdir / "value_labels.csv",
                "--params", workdir / "params.csv", *_model_flags(workdir)) == 0
    payload = io.read_json(tmp_path / "var_report.json")
    assert set(payload["var"]) == {"theo", "clean", "anom", "loc_true", "loc_pred"}
    assert set(payload["errors"]) == {"clean", "anom", "loc_true", "loc_pred"}
    for entry in payload["errors"].values():
        assert entry["absolute"] >= 0.0
        assert entry["relative"] >= 0.0
    assert payload["alpha"] == 0.99
    assert payload["horizon"] == 1


def test_var_shape_mismatch_exits_3(workdir, tmp_path):
    io.write_panel(tmp_path / "tiny.csv", np.ones((2, 3)))
    assert _run("var", "--out-dir", tmp_path, "--quiet",
                "--clean", workdir / "clean_panel.csv",
                "--panel", tmp_path / "tiny.csv",
                "--value-labels", workdir / "value_labels.csv",
                "--params", workdir / "params.csv", *_model_flags(workdir)) == 3


def _var_flags(workdir, tmp_path):
    return ["var", "--out-dir", tmp_path, "--quiet",
            "--clean", workdir / "clean_panel.csv",
            "--value-labels", workdir / "value_labels.csv",
            "--params", workdir / "params.csv", *_model_flags(workdir)]


def test_var_non_finite_price_exits_2(workdir, tmp_path, capsys):
    _, prices = io.read_panel(workdir / "contaminated_panel.csv")
    for bad in (np.nan, np.inf):
        prices[1, 17] = bad
        io.write_panel(tmp_path / "bad.csv", prices)
        assert _run(*_var_flags(workdir, tmp_path), "--panel", tmp_path / "bad.csv") == 2
        assert "non-finite price" in capsys.readouterr().err
    assert not (tmp_path / "var_report.json").exists()


def test_var_weights_row_without_two_fields_exits_2(workdir, tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_text("series_id,weight\n0,0.5\n1\n2,0.5\n")
    assert _run(*_var_flags(workdir, tmp_path), "--panel", workdir / "contaminated_panel.csv",
                "--weights", weights) == 2
    assert "['1'] needs 2 fields" in capsys.readouterr().err


# -- bench ---------------------------------------------------------------


def test_bench_two_runs_summary(tmp_path):
    assert _run("bench", "--out-dir", tmp_path, "--quiet", "--runs", 2,
                "--buckets", "buckets.csv", *SIM_FLAGS) == 0
    summary = io.read_json(tmp_path / "bench_summary.json")
    assert summary["runs"] == 2
    assert summary["seeds"] == [0, 1]
    assert 0.0 <= summary["mean"]["ident_test.f1"] <= 1.0
    assert summary["std"]["ident_test.f1"] >= 0.0
    assert summary["wall_seconds"] > 0.0
    runs_lines = (tmp_path / "bench_runs.csv").read_text().splitlines()
    assert len(runs_lines) == 3
    assert runs_lines[0].startswith("seed,")
    buckets = (tmp_path / "buckets.csv").read_text().splitlines()
    assert buckets[0] == "bucket,mean_low,mean_high,mean_ratio"
    assert len(buckets) == 5


def test_bench_single_run_exits_3(tmp_path):
    assert _run("bench", "--out-dir", tmp_path, "--quiet", "--runs", 1,
                *SIM_FLAGS) == 3


# -- config file and parser behavior ---------------------------------------


def test_config_file_flags_win(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("stocks = 4\nquiet = true\n# comment line\n\nsteps=380\n")
    assert _run("simulate", "--config", config, "--out-dir", tmp_path,
                "--stocks", 6, "--split-index", 220, "--window-length", 64,
                "--train-anoms", 2, "--test-anoms", 1) == 0
    # quiet came from the config, stocks from the explicit flag
    assert capsys.readouterr().out == ""
    s0, _, _ = io.read_params(tmp_path / "params.csv")
    assert s0.size == 6


def test_config_unknown_key_exits_2(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("stokcs=4\n")
    assert _run("simulate", "--config", config, "--out-dir", tmp_path,
                "--quiet", *SIM_FLAGS) == 2


def test_config_bad_value_exits_2(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("quiet=maybe\n")
    assert _run("simulate", "--config", config, "--out-dir", tmp_path,
                *SIM_FLAGS) == 2
    config.write_text("stocks=six\n")
    assert _run("simulate", "--config", config, "--out-dir", tmp_path,
                "--quiet", *SIM_FLAGS[2:]) == 2
    config.write_text("just a line\n")
    assert _run("simulate", "--config", config, "--out-dir", tmp_path,
                "--quiet", *SIM_FLAGS) == 2


def test_no_command_prints_help_and_exits_2(capsys):
    assert cli.main([]) == 2
    assert "simulate" in capsys.readouterr().out


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["fit", "--help"]) == 0
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["simulate", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_module_entry_points_exit_0_with_empty_stderr():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])])
    for module in ("panelscan", "panelscan.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "--help"], cwd=root, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "simulate" in proc.stdout
