"""The benchmark's three workloads, their timing loop and their output checks.

Each workload has a `setup` (repeated; its median is `setup_s`), a
`run_round` that makes one whole round of the same program calls, `rows`,
the window rows behind one round, and a `check` that compares the last
round's outputs with `oracle` computations or with properties the method
must have. `rows` and the checks run after the timed rounds.

`small=True` shrinks every input so the benchmark's own tests stay short;
the benchmark command never sets it.
"""

from __future__ import annotations

import functools
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import env
import oracle
import spans
from panelscan import cli, detector, evaluation, io, pcafeat, scorer, simgen, workflows

OUT_DIR = os.path.join("perfbench", "out")
SETUP_REPEATS = 5

SMALL_CONFIG = workflows.PipelineConfig(n_stocks=6, n_steps=700, split_index=450,
                                        window_length=60, latent_dim=10)
SMALL_TRAIN_ITERS = 60


@dataclass
class Round:
    attempted: int
    failed: int


@dataclass
class Checks:
    results: list = field(default_factory=list)

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)

    def by_name(self):
        return {name: ok for name, ok, _ in self.results}

    def failures(self):
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def _config(seed, small):
    if not small:
        return workflows.PipelineConfig(seed=seed)
    train = scorer.TrainConfig(max_iters=SMALL_TRAIN_ITERS,
                               seed=workflows.derive_seed(seed, "train_net"))
    return replace(SMALL_CONFIG, seed=seed, train=train)


def _trimmed(panel, per_class, rng):
    """A seeded subsample with exactly per_class contaminated and clean rows."""
    hot = np.flatnonzero(panel.ident_labels == 1)
    clean = np.flatnonzero(panel.ident_labels == 0)
    if min(hot.size, clean.size) < per_class:
        raise ValueError(f"only {hot.size} contaminated and {clean.size} clean rows; "
                         f"the benchmark needs {per_class} of each")
    keep = np.sort(np.concatenate([rng.choice(hot, per_class, replace=False),
                                   rng.choice(clean, per_class, replace=False)]))
    return simgen.LabeledPanel(windows=panel.windows[keep], ident_labels=panel.ident_labels[keep],
                               loc_labels=panel.loc_labels[keep],
                               provenance=panel.provenance[keep])


def _own_scores(model, X):
    eps = oracle.features(model.pca.mean, model.pca.omega, X)
    return oracle.forward(model.net.weights, model.net.biases, eps)


# -- calibrate ----------------------------------------------------------------

class Calibrate:
    """One calibrate-and-evaluate pass: build, fit PCA + network, evaluate.

    The selected train set is cut to a fixed 4000 contaminated and 4000 clean
    rows. Its size otherwise moves with the seed (about 6% standard
    deviation), and training time moves with it; 4000 per class lies 5
    standard deviations below the mean count.
    """

    PER_CLASS = 4000
    SMALL_PER_CLASS = 300

    def __init__(self, seed, small):
        self.seed = seed
        self.small = small
        self.per_class = self.SMALL_PER_CLASS if small else self.PER_CLASS

    def setup(self):
        self.cfg = _config(self.seed, self.small)

    def run_round(self):
        bundle = workflows.build_datasets(self.cfg)
        train = _trimmed(bundle.train, self.per_class, np.random.default_rng(self.seed))
        self.bundle = replace(bundle, train=train)
        self.model, self.training = workflows.fit_detector(self.bundle)
        self.summary = workflows.evaluate_run(self.model, self.bundle)
        return Round(attempted=3, failed=0)

    def rows(self):
        return self.bundle.train.n_rows

    def check(self, checks):
        pca, net, train = self.model.pca, self.model.net, self.bundle.train
        values, vectors = oracle.top_eigen(train.windows, pca.k)
        gap = oracle.relative_gap(pca.eigenvalues, values)
        checks.add("pca_eigenvalues", gap <= 1e-9, f"largest relative eigenvalue gap {gap:.2e}")
        gram = float(np.max(np.abs(pca.omega @ pca.omega.T - np.eye(pca.k))))
        checks.add("pca_orthonormal", gram <= 1e-9, f"max |Omega Omega^T - I| {gram:.2e}")
        proj = float(np.max(np.abs(pca.omega.T @ pca.omega - vectors @ vectors.T)))
        checks.add("pca_projector", proj <= 1e-6, f"max projector gap {proj:.2e}")

        history = [row.loss for row in self.training.history]
        best = self.training.best_loss
        checks.add("best_loss_is_min", best == min(history)
                   and history[self.training.best_iteration] == best,
                   f"best {best!r}, min {min(history)!r}")
        eps = oracle.features(pca.mean, pca.omega, train.windows)
        scores = oracle.forward(net.weights, net.biases, eps)
        own = oracle.kde_loss(scores, train.ident_labels, net.cutoff, net.temperature)
        checks.add("best_loss_recomputed", abs(own - best) <= 1e-9 * abs(best),
                   f"recomputed {own!r} against {best!r}")

        test = self.bundle.test
        own_scores = _own_scores(self.model, test.windows)
        precision, recall, f1 = oracle.classification(
            test.ident_labels, (own_scores > net.cutoff).astype(int))
        ident = self.summary["ident_test"]
        gap = max(abs(precision - ident.precision), abs(recall - ident.recall), abs(f1 - ident.f1))
        checks.add("test_metrics_recount", gap <= 1e-12,
                   f"reported f1 {ident.f1:.6f}, recount {f1:.6f}")
        rate = float(np.mean(test.ident_labels))
        all_flag = 2 * rate / (1 + rate)
        checks.add("f1_beats_all_flag", ident.f1 > all_flag,
                   f"test f1 {ident.f1:.4f} against all-flag {all_flag:.4f}")
        loc, dummy = self.summary["loc_test"].accuracy, self.summary["dummy_loc_accuracy_test"]
        checks.add("localization_beats_argmax", loc > dummy,
                   f"localization {loc:.4f} against raw argmax {dummy:.4f}")


# -- scan ---------------------------------------------------------------------

class Scan:
    """A stored detector applied to fresh panels, every window and every error row.

    The inputs come from the market the detector was calibrated on: the
    stored seed-0 parameters (s0, mu, sigma) with the run's seed for the
    paths and the shocks. With fresh parameters per seed, the detector's
    iterations per window ranged from 0.7 to 1.5 over five seeds; on the
    stored market they range from 1.14 to 1.51.
    The windows are every window of one contaminated 20 x 1000 panel, a fixed
    15 900 rows.
    """

    N_PANELS = 20
    SMALL_PANELS = 3
    MAX_ITER = 5
    REPLAYED_ROWS = 200
    ADF_SAMPLED_ROWS = 40

    def __init__(self, seed, small):
        self.seed = seed
        self.small = small
        self.n_panels = self.SMALL_PANELS if small else self.N_PANELS
        self.cfg = _config(seed, small)
        self.small_model = self.small_market = None
        if small:
            bundle = workflows.build_datasets(_config(0, True))
            self.small_model, _ = workflows.fit_detector(bundle)
            train = bundle.clean_train
            self.small_market = (train.s0, train.mu, train.sigma)

    def setup(self):
        if self.small:
            self.model, market = self.small_model, self.small_market
        else:
            self.model = detector.DetectionModel(
                pca=io.read_pca_model(env.PCA_FILE), net=io.read_network(env.NET_FILE))
            market = io.read_params(env.PARAMS_FILE)
        cfg = self.cfg
        clean = simgen.simulate_paths(*market, cfg.correlation, simgen.DiffusionConfig.dt,
                                      cfg.split_index, seed=self.seed)
        contaminated, labels = simgen.contaminate(clean, simgen.ContaminationConfig(
            n_anom=cfg.train_anoms, rho=cfg.rho,
            seed=workflows.derive_seed(self.seed, "contaminate_train")))
        self.windows, _, _ = simgen.slide(contaminated, labels, cfg.window_length)
        # var_run and imputation_run read only the config and the clean
        # panel's parameters from the bundle.
        bundle = workflows.DatasetBundle(
            config=cfg, clean_train=clean, clean_test=None, contaminated_train=contaminated,
            contaminated_test=None, train_value_labels=labels, test_value_labels=None,
            train=None, test=None)
        self.result = workflows.PipelineResult(config=cfg, data=bundle, model=self.model,
                                               training=None, summary={})

    def run_round(self):
        self.var_runs = [workflows.var_run(self.result, i) for i in range(self.n_panels)]
        self.imputation_runs = [workflows.imputation_run(self.result, i)
                                for i in range(self.n_panels)]
        self.reports = [detector.detect_iterative(self.model, row, max_iter=self.MAX_ITER)
                        for row in self.windows]
        self.epsilon = pcafeat.reconstruction_errors(self.model.pca, self.windows).epsilon
        self.p_values, self.reject = workflows.adf_study(self.epsilon)
        return Round(attempted=2 * self.n_panels + self.windows.shape[0] + 2, failed=0)

    def rows(self):
        return self.windows.shape[0]

    def check(self, checks):
        base, cfg = self.result.data.clean_train, self.cfg
        weights = np.full(cfg.n_stocks, 1.0 / cfg.n_stocks)
        theo = oracle.parametric_var(base.mu, base.sigma, cfg.correlation, base.dt, 1, weights, 0.99)
        gap = oracle.relative_gap([run["var_theo"] for run in self.var_runs], theo)
        checks.add("var_theo_closed_form", gap <= 1e-9, f"relative gap {gap:.2e}")
        mean = {key: float(np.mean([run[key] for run in self.var_runs]))
                for key in ("rel_err_loc_pred", "rel_err_anom")}
        checks.add("var_cleanup_helps", mean["rel_err_loc_pred"] < mean["rel_err_anom"],
                   f"mean relative VaR error {mean['rel_err_loc_pred']:.4f} after cleanup, "
                   f"{mean['rel_err_anom']:.4f} contaminated")
        cov = {key: float(np.mean([run[f"cov_err_{key}"] for run in self.imputation_runs]))
               for key in ("BF", "LI", "anom")}
        checks.add("imputation_helps", max(cov["BF"], cov["LI"]) < cov["anom"],
                   f"covariance error BF {cov['BF']:.3e}, LI {cov['LI']:.3e}, "
                   f"contaminated {cov['anom']:.3e}")
        self._check_reports(checks)
        self._check_adf(checks)

    def _check_reports(self, checks):
        p, cutoff = self.model.pca.window_length, self.model.net.cutoff
        bad, stopped = [], []
        for i, (row, report) in enumerate(zip(self.windows, self.reports)):
            locs = report.locations
            changed = set((np.flatnonzero(report.imputed_series != row) + 1).tolist())
            if (len(set(locs)) != len(locs) or any(not 1 <= loc <= p for loc in locs)
                    or report.iterations_used > self.MAX_ITER or not changed <= set(locs)
                    or (report.pred_label == 0 and (locs or changed))):
                bad.append(i)
            elif (report.pred_label == 1 and report.iterations_used < self.MAX_ITER
                  and not report.repeated_location):
                stopped.append(i)
        checks.add("reports_well_formed", not bad, f"{len(bad)} malformed reports, first {bad[:5]}")
        final = np.array([self.reports[i].imputed_series for i in stopped]).reshape(-1, p)
        scores = _own_scores(self.model, final) if stopped else np.empty(0)
        still = int(np.sum(scores > cutoff + 1e-9 * max(1.0, abs(cutoff))))
        checks.add("stop_means_clean", still == 0,
                   f"{still} of {len(stopped)} rows stopped early yet still identify")

        flagged = [i for i, r in enumerate(self.reports) if r.pred_label == 1]
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(flagged, size=min(self.REPLAYED_ROWS, len(flagged)), replace=False)
        mismatched = [int(i) for i in sample if not self._replays(int(i))]
        checks.add("localization_replay", not mismatched,
                   f"{len(mismatched)} of {sample.size} replayed rows disagree, first {mismatched[:5]}")

    def _replays(self, i):
        """Replay argmax|epsilon| localization and back-fill imputation on one row."""
        pca = self.model.pca
        row = self.windows[i].copy()
        for loc in self.reports[i].locations:
            own = int(np.argmax(np.abs(oracle.features(pca.mean, pca.omega, row)[0]))) + 1
            if own != loc:
                return False
            j = loc - 1
            row[j] = row[j + 1] if j == 0 else row[j - 1]
        return np.array_equal(row, self.reports[i].imputed_series)

    def _check_adf(self, checks):
        pca = self.model.pca
        eps_gap = float(np.max(np.abs(
            oracle.features(pca.mean, pca.omega, self.windows) - self.epsilon)))
        scale = float(np.max(np.abs(self.epsilon)))
        checks.add("features_match", eps_gap <= 1e-9 * scale,
                   f"max feature gap {eps_gap:.2e} on scale {scale:.2e}")
        rng = np.random.default_rng(self.seed)
        rows = rng.choice(self.epsilon.shape[0], size=self.ADF_SAMPLED_ROWS, replace=False)
        p = self.epsilon.shape[1]
        lag = int(np.floor(12.0 * (p / 100.0) ** 0.25))
        worst, same_p = 0.0, True
        for i in rows:
            result = evaluation.adf_test(self.epsilon[i])
            own = oracle.adf_statistic(self.epsilon[i], lag)
            worst = max(worst, abs(result.statistic - own) / abs(own))
            same_p &= result.p_value == self.p_values[i] and result.lag_order == lag
        checks.add("adf_statistic_lstsq", worst <= 1e-8 and same_p,
                   f"worst relative gap {worst:.2e} over {rows.size} rows; "
                   f"study p-values agree: {same_p}")
        checks.add("adf_rejects_unit_root", self.reject >= 0.99,
                   f"unit root rejected on {self.reject:.4f} of {self.epsilon.shape[0]} rows")


# -- cli ----------------------------------------------------------------------

class CliRoundTrip:
    """The README's artifact round trip through cli.main, plus two malformed var calls."""

    FIT_ITERS = 100
    SMALL_FIT_ITERS = 30
    # A fixed seed-independent panel for the malformed-input calls.
    FAULT_PANEL = workflows.PipelineConfig(n_stocks=3, n_steps=400, split_index=300, seed=0)

    def __init__(self, seed, small):
        self.seed = seed
        self.small = small
        self.cfg = _config(seed, small)
        self.dir = os.path.join(OUT_DIR, f"cli-seed{seed}")
        self.fault_dir = os.path.join(self.dir, "faults")

    def _path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.fault_dir)
        panels = workflows.build_panels(self.FAULT_PANEL)
        clean = np.hstack([panels.clean_train.prices, panels.clean_test.prices])
        labels = np.hstack([panels.train_value_labels, panels.test_value_labels])
        broken = clean.copy()
        broken[1, 17] = np.nan
        fault = functools.partial(os.path.join, self.fault_dir)
        io.write_panel(fault("clean.csv"), clean)
        io.write_panel(fault("nan_price.csv"), broken)
        io.write_value_labels(fault("value_labels.csv"), labels)
        io.write_params(fault("params.csv"), panels.clean_train)
        with open(fault("one_field_weights.csv"), "w", encoding="utf-8") as handle:
            handle.write("series_id,weight\n0,0.5\n1\n2,0.5\n")

    def _commands(self):
        cfg, d = self.cfg, self.dir
        shape = ["--stocks", cfg.n_stocks, "--steps", cfg.n_steps, "--split-index",
                 cfg.split_index, "--window-length", cfg.window_length, "--k", cfg.latent_dim]
        model = ["--pca", self._path("pca.txt"), "--net", self._path("net.txt")]
        iters = self.SMALL_FIT_ITERS if self.small else self.FIT_ITERS
        seed = ["--seed", self.seed, "--out-dir", d, "--quiet"]
        valid = [
            ["simulate", *seed, *shape],
            ["augment", *seed, "--panel", self._path("contaminated_panel.csv"),
             "--value-labels", self._path("value_labels.csv"),
             "--split-index", cfg.split_index, "--window-length", cfg.window_length],
            ["fit", *seed, "--windows", self._path("windows_train.csv"),
             "--labels", self._path("labels_train.csv"), "--k", cfg.latent_dim,
             "--iters", iters],
            ["detect", "--out-dir", d, "--quiet", "--windows", self._path("windows_test.csv"),
             *model, "--cleaned", "cleaned_windows.csv"],
            ["evaluate", "--out-dir", d, "--quiet", "--windows", self._path("windows_test.csv"),
             "--labels", self._path("labels_test.csv"), *model,
             "--prc", "prc.csv", "--robustness", "robustness.csv", "--adf", "adf.csv"],
            ["var", "--out-dir", d, "--quiet", "--clean", self._path("clean_panel.csv"),
             "--panel", self._path("contaminated_panel.csv"),
             "--value-labels", self._path("value_labels.csv"),
             "--params", self._path("params.csv"), *model],
        ]
        f = self.fault_dir
        fault_var = ["var", "--out-dir", f, "--quiet", "--clean", os.path.join(f, "clean.csv"),
                     "--value-labels", os.path.join(f, "value_labels.csv"),
                     "--params", os.path.join(f, "params.csv"),
                     "--pca", env.PCA_FILE, "--net", env.NET_FILE]
        faults = [
            [*fault_var, "--panel", os.path.join(f, "clean.csv"),
             "--weights", os.path.join(f, "one_field_weights.csv")],
            [*fault_var, "--panel", os.path.join(f, "nan_price.csv")],
        ]
        return ([[str(v) for v in argv] for argv in valid],
                [[str(v) for v in argv] for argv in faults])

    def run_round(self):
        valid, faults = self._commands()
        self.exit_codes = [cli.main(argv) for argv in valid]
        failed = sum(code != 0 for code in self.exit_codes)
        for argv in faults:
            try:
                failed += cli.main(argv) not in (2, 3)
            except Exception:  # the fault under test: an exception escapes cli.main
                failed += 1
        return Round(attempted=len(valid) + len(faults), failed=failed)

    def rows(self):
        """The train and test windows that augment wrote; 0 if it wrote none."""
        try:
            return sum(io.read_labels(self._path(f"labels_{part}.csv"))[0].size
                       for part in ("train", "test"))
        except (OSError, ValueError):
            return 0

    def check(self, checks):
        checks.add("valid_commands_exit_0", all(code == 0 for code in self.exit_codes),
                   f"exit codes {self.exit_codes}")
        try:
            self._check_files(checks)
        except (OSError, ValueError, KeyError) as exc:  # a command left a file out or malformed
            checks.add("outputs_readable", False, f"{type(exc).__name__}: {exc}")

    def _check_files(self, checks):
        bundle = workflows.build_datasets(self.cfg)
        expected = {
            "clean_panel.csv": np.hstack([bundle.clean_train.prices, bundle.clean_test.prices]),
            "contaminated_panel.csv": np.hstack([bundle.contaminated_train.prices,
                                                 bundle.contaminated_test.prices]),
            "value_labels.csv": np.hstack([bundle.train_value_labels, bundle.test_value_labels]),
            "windows_train.csv": bundle.train.windows,
            "windows_test.csv": bundle.test.windows,
        }
        model = detector.DetectionModel(pca=io.read_pca_model(self._path("pca.txt")),
                                        net=io.read_network(self._path("net.txt")))
        reports = [detector.detect_iterative(model, row) for row in bundle.test.windows]
        expected["cleaned_windows.csv"] = np.vstack([r.imputed_series for r in reports])
        written = {name: io.read_panel(self._path(name))[1] for name in expected}
        differ = [name for name in expected if not np.array_equal(written[name], expected[name])]
        checks.add("files_match_library", not differ, f"files that differ: {differ}")

        A, L = io.read_labels(self._path("labels_test.csv"))
        labels_ok = (np.array_equal(A, bundle.test.ident_labels)
                     and np.array_equal(L, bundle.test.loc_labels))
        checks.add("labels_match_library", labels_ok, "labels_test.csv against build_datasets")

        detect = io.read_detect_report(self._path("detect_report.csv"))
        _, _, f1 = oracle.classification(A, np.array([row["pred_A"] for row in detect]))
        reported = io.read_json(self._path("metrics.json"))["identification"]["f1"]
        checks.add("f1_recount", abs(f1 - reported) <= 1e-12,
                   f"metrics.json f1 {reported!r}, recount {f1!r}")

        _, mu, sigma = io.read_params(self._path("params.csv"))
        weights = np.full(mu.size, 1.0 / mu.size)
        theo = oracle.parametric_var(mu, sigma, 0.5, 1.0 / 1000.0, 1, weights, 0.99)
        report = io.read_json(self._path("var_report.json"))
        gap = oracle.relative_gap(report["var"]["theo"], theo)
        checks.add("var_theo_closed_form", gap <= 1e-9, f"relative gap {gap:.2e}")

        stray = sum(not set((np.flatnonzero(c != w) + 1).tolist()) <= set(row["locations"])
                    for c, w, row in zip(written["cleaned_windows.csv"],
                                         written["windows_test.csv"], detect))
        checks.add("cleaned_only_at_locations", stray == 0,
                   f"{stray} cleaned rows changed outside their reported locations")

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"calibrate": Calibrate, "scan": Scan, "cli": CliRoundTrip}


# -- the timing loop ----------------------------------------------------------

@dataclass
class Measurement:
    attempted: int
    failed: int
    checks: Checks
    metrics: dict


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, traced, import_s, small=False):
    """Set up, run whole rounds for `seconds` (one round when traced), then check."""
    workload = WORKLOADS[name](seed, small)
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            if tracer is not None and repeat == SETUP_REPEATS - 1:
                tracer.active = True
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)

        passes, attempted, failed = [], 0, 0
        begun = time.perf_counter()
        while True:
            started = time.perf_counter()
            outcome = workload.run_round()
            passes.append(time.perf_counter() - started)
            attempted += outcome.attempted
            failed += outcome.failed
            elapsed = time.perf_counter() - begun
            if traced or elapsed + statistics.median(passes) > seconds:
                break
        peak_rss = _peak_rss_mb()
        if tracer is not None:
            tracer.active = False
        rows = workload.rows()
        checks = Checks()
        workload.check(checks)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    if traced:
        metrics = spans.layer_metrics(tracer)
        metrics["trace.pass_s"] = passes[0]
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.csv"))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "rows_per_s": rows / statistics.median(passes),
            "peak_rss_mb": peak_rss,
        }
    return Measurement(attempted=attempted, failed=failed, checks=checks, metrics=metrics)
