"""Command-line front-end wiring the modules into reproducible experiments.

Subcommands: simulate | augment | fit | detect | evaluate | var | bench.
Every command is a pure function of (input files, flags, seed); re-running
with the same inputs reproduces the outputs byte for byte.

Exit codes: 0 success, 2 I/O or parse problem, 3 validation or dimension
problem, 4 numerical failure. Options may also come from a flat key=value
config file (--config); explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import detector, evaluation, io, pcafeat, riskmetrics, scorer, simgen, workflows


class InputError(Exception):
    """I/O or parse problem; maps to exit code 2."""


def _read(reader, path, *args, **kwargs):
    try:
        return reader(path, *args, **kwargs)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _write(writer, path, *args, **kwargs):
    try:
        writer(path, *args, **kwargs)
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _say(args, message):
    if not args.quiet:
        print(message)


def _out_path(args, name):
    out_dir = args.out_dir
    if not os.path.isdir(out_dir):
        raise InputError(f"output directory {out_dir!r} does not exist")
    return os.path.join(out_dir, name)


def _hidden_dims(text):
    try:
        dims = tuple(int(v) for v in str(text).split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}")
    return dims


# -- config file -------------------------------------------------------------

def _load_config(path):
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    config = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InputError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, value = text.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _coerce_like(action, raw, key):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return isinstance(action, argparse._StoreTrueAction)
        if lowered in ("0", "false", "no", "off"):
            return isinstance(action, argparse._StoreFalseAction)
        raise InputError(f"config key {key!r} expects a boolean, got {raw!r}")
    caster = action.type if action.type is not None else str
    try:
        return caster(raw)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise InputError(f"config key {key!r}: {exc}") from exc


def _apply_config(args, argv, parsers, config):
    """Overlay config values onto args for flags absent from the command line."""
    actions = {}
    for parser in parsers:
        for action in parser._actions:
            if action.option_strings and action.dest != "help":
                actions.setdefault(action.dest, action)
    given = set()
    for token in argv:
        if token.startswith("--"):
            given.add(token.split("=", 1)[0].lstrip("-").replace("-", "_"))
    for key, raw in config.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise InputError(f"unknown config key {key!r}")
        if dest in given:
            continue
        setattr(args, dest, _coerce_like(actions[dest], raw, key))


# -- shared assembly ---------------------------------------------------------

def _pipeline_config(args):
    return workflows.PipelineConfig(
        n_stocks=args.stocks, n_steps=args.steps, split_index=args.split_index,
        window_length=args.window_length, train_anoms=args.train_anoms,
        test_anoms=args.test_anoms, rho=args.rho, r_c=args.r_c,
        correlation=args.correlation, latent_dim=args.k, seed=args.seed,
    )


def _load_model(args):
    pca = _read(io.read_pca_model, args.pca)
    net = _read(io.read_network, args.net)
    return detector.DetectionModel(pca=pca, net=net)


def _read_window_set(args, need_labels):
    _, windows = _read(io.read_panel, args.windows)
    if not need_labels:
        return windows, None, None
    A, L = _read(io.read_labels, args.labels)
    if A.size != windows.shape[0]:
        raise ValueError(f"{A.size} labels for {windows.shape[0]} window rows")
    return windows, A, L


# -- commands ----------------------------------------------------------------

def cmd_simulate(args):
    cfg = _pipeline_config(args)
    panels = workflows.build_panels(cfg)
    clean = np.hstack([panels.clean_train.prices, panels.clean_test.prices])
    contaminated = np.hstack([panels.contaminated_train.prices,
                              panels.contaminated_test.prices])
    value_labels = np.hstack([panels.train_value_labels, panels.test_value_labels])
    targets = {
        "clean_panel.csv": lambda p: io.write_panel(p, clean),
        "contaminated_panel.csv": lambda p: io.write_panel(p, contaminated),
        "value_labels.csv": lambda p: io.write_value_labels(p, value_labels),
        "params.csv": lambda p: io.write_params(p, panels.clean_train),
    }
    for name, writer in targets.items():
        path = _out_path(args, name)
        _write(writer, path)
        _say(args, f"wrote {path}")
    return 0


def cmd_augment(args):
    _, prices = _read(io.read_panel, args.panel)
    _, value_labels = _read(io.read_value_labels, args.value_labels)
    if value_labels.shape != prices.shape:
        raise ValueError("value labels shape does not match the panel shape")
    split = args.split_index
    parts = (("train", prices, value_labels),) if split == 0 else (
        ("train", prices[:, :split], value_labels[:, :split]),
        ("test", prices[:, split:], value_labels[:, split:]),
    )
    for name, part_prices, part_labels in parts:
        X, sY, prov = simgen.slide(part_prices, part_labels, args.window_length)
        panel = simgen.build_labeled_panel(
            X, sY, prov, name, r_c=args.r_c,
            seed=workflows.derive_seed(args.seed, f"select_{name}"))
        windows_path = _out_path(args, f"windows_{name}.csv")
        labels_path = _out_path(args, f"labels_{name}.csv")
        _write(io.write_panel, windows_path, panel.windows)
        _write(io.write_labels, labels_path, panel.ident_labels, panel.loc_labels)
        _say(args, f"wrote {windows_path} ({panel.n_rows} rows) and {labels_path}")
    return 0


def cmd_fit(args):
    windows, A, _ = _read_window_set(args, need_labels=True)
    pca = pcafeat.fit_pca(windows, args.k)
    epsilon = pcafeat.reconstruction_errors(pca, windows).epsilon
    train_cfg = scorer.TrainConfig(
        hidden_dims=args.hidden, learning_rate=args.lr, max_iters=args.iters,
        seed=workflows.derive_seed(args.seed, "train_net"),
    )
    if args.tau is not None:
        train_cfg = replace(train_cfg, temperature=args.tau)
    result = scorer.train(epsilon, A, train_cfg)
    pca_path = _out_path(args, "pca.txt")
    net_path = _out_path(args, "net.txt")
    log_path = _out_path(args, "training_log.csv")
    _write(io.write_pca_model, pca_path, pca)
    _write(io.write_network, net_path, result.network)
    _write(io.write_training_log, log_path, result.history)
    _say(args, f"wrote {pca_path}, {net_path}, {log_path} "
               f"(best loss {result.best_loss:.6g} at iteration {result.best_iteration})")
    return 0


def cmd_detect(args):
    windows, _, _ = _read_window_set(args, need_labels=False)
    model = _load_model(args)
    reports = detector.detect_batch(model, windows, method=args.method,
                                    max_iter=args.max_iter)
    report_path = _out_path(args, "detect_report.csv")
    _write(io.write_detect_report, report_path, reports)
    _say(args, f"wrote {report_path} "
               f"({sum(r.pred_label for r in reports)} of {len(reports)} rows flagged)")
    if args.cleaned:
        cleaned_path = _out_path(args, args.cleaned)
        _write(io.write_panel, cleaned_path, np.vstack([r.imputed_series for r in reports]))
        _say(args, f"wrote {cleaned_path}")
    return 0


def cmd_evaluate(args):
    windows, A, L = _read_window_set(args, need_labels=True)
    model = _load_model(args)
    epsilon = pcafeat.reconstruction_errors(model.pca, windows).epsilon
    net_scores = scorer.forward(model.net, epsilon)
    pred_A = (net_scores > model.net.cutoff).astype(np.int64)
    pred_L = np.argmax(np.abs(epsilon), axis=1) + 1
    hot = A == 1
    report = {
        "identification": evaluation.classification_metrics(A, pred_A),
        "cutoff": model.net.cutoff,
        "n_rows": int(A.size),
    }
    if hot.any():
        report["localization"] = evaluation.localization_metrics(L[hot], pred_L[hot])
        dummy = workflows.dummy_localize(windows)
        report["dummy_localization_accuracy"] = float(np.mean(dummy[hot] == L[hot]))
    if args.prc:
        curve = evaluation.precision_recall_curve(net_scores, A)
        _write(io.write_rows, _out_path(args, args.prc),
               ["threshold", "recall", "precision"],
               zip(curve.thresholds, curve.recall, curve.precision))
        report["prc_auc"] = curve.auc
    if args.robustness:
        table = evaluation.cutoff_robustness(model, windows, A)
        _write(io.write_rows, _out_path(args, args.robustness),
               ["gamma", "accuracy", "precision", "recall", "f1"],
               [(g, m.accuracy, m.precision, m.recall, m.f1) for g, m in table])
    if args.adf:
        p_values, reject_rate = workflows.adf_study(epsilon)
        _write(io.write_rows, _out_path(args, args.adf),
               ["statistic", "mean_p", "max_p", "reject_rate"],
               [("summary", float(p_values.mean()), float(p_values.max()), reject_rate)])
        report["adf_reject_rate"] = reject_rate
    metrics_path = _out_path(args, "metrics.json")
    _write(io.write_json, metrics_path, report)
    _say(args, f"wrote {metrics_path} "
               f"(identification F1 {report['identification'].f1:.4f})")
    return 0


def cmd_var(args):
    _, clean = _read(io.read_panel, args.clean)
    _, contaminated = _read(io.read_panel, args.panel)
    _, value_labels = _read(io.read_value_labels, args.value_labels)
    s0, mu, sigma = _read(io.read_params, args.params)
    if contaminated.shape != clean.shape or value_labels.shape != clean.shape:
        raise ValueError("clean, contaminated and value-label files disagree in shape")
    if mu.size != clean.shape[0]:
        raise ValueError(f"{mu.size} parameter rows for {clean.shape[0]} series")
    weights = _read(io.read_weights, args.weights) if args.weights \
        else np.full(clean.shape[0], 1.0 / clean.shape[0])
    if weights.size != clean.shape[0]:
        raise ValueError(f"{weights.size} weights for {clean.shape[0]} series")
    model = _load_model(args)
    portfolio = riskmetrics.Portfolio(weights=weights)
    pred = workflows.detect_panel(model, contaminated, method=args.method)
    variants = {
        "clean": clean,
        "anom": contaminated,
        "loc_true": workflows.impute_panel(contaminated, value_labels, method=args.method),
        "loc_pred": workflows.impute_panel(contaminated, pred, method=args.method),
    }
    theo_model = riskmetrics.theoretical_return_model(
        mu, sigma, args.correlation, args.dt, args.h)
    estimates = {"theo": riskmetrics.portfolio_var(theo_model, portfolio,
                                                   args.alpha, source="theo")}
    for tag, prices in variants.items():
        fitted = riskmetrics.estimate_params(riskmetrics.log_returns(prices, args.h), args.h)
        estimates[tag] = riskmetrics.portfolio_var(fitted, portfolio, args.alpha, source=tag)
    payload = {
        "alpha": args.alpha,
        "horizon": args.h,
        "var": {tag: est.value for tag, est in estimates.items()},
        "errors": {},
    }
    for tag in variants:
        absolute, relative = riskmetrics.var_errors(estimates["theo"], estimates[tag])
        payload["errors"][tag] = {"absolute": absolute, "relative": relative}
    report_path = _out_path(args, "var_report.json")
    _write(io.write_json, report_path, payload)
    _say(args, f"wrote {report_path} (VaR theo {estimates['theo'].value:.6g}, "
               f"loc_pred {estimates['loc_pred'].value:.6g})")
    return 0


def cmd_bench(args):
    if args.runs < 2:
        raise ValueError("bench needs at least 2 runs")
    base = _pipeline_config(args)
    seeds = [args.seed + i for i in range(args.runs)]
    runs = []
    started = time.perf_counter()
    for seed in seeds:
        t0 = time.perf_counter()
        result = workflows.reference_run(replace(base, seed=seed, train=None))
        runs.append(result)
        _say(args, f"seed {seed}: test F1 "
                   f"{result.summary['ident_test'].f1:.4f} "
                   f"({time.perf_counter() - t0:.1f}s)")
    flat = [evaluation.flatten_metrics(r.summary) for r in runs]
    keys = sorted(set().union(*(run.keys() for run in flat)))
    values = {k: np.array([run[k] for run in flat if k in run], dtype=float) for k in keys}
    summary = {
        "runs": len(seeds),
        "seeds": seeds,
        "mean": {k: float(v.mean()) for k, v in values.items()},
        "std": {k: float(v.std(ddof=1)) for k, v in values.items()},
        "wall_seconds": time.perf_counter() - started,
    }
    summary_path = _out_path(args, "bench_summary.json")
    _write(io.write_json, summary_path, summary)
    _say(args, f"wrote {summary_path}")
    runs_path = _out_path(args, "bench_runs.csv")
    _write(io.write_rows, runs_path, ["seed"] + keys,
           [[seed] + [flat[i].get(k, float("nan")) for k in keys]
            for i, seed in enumerate(seeds)])
    _say(args, f"wrote {runs_path}")
    if args.buckets:
        ratios = np.zeros(4)
        edges = []
        for result in runs:
            amplitudes, ident_correct, _ = workflows.amplitude_records(
                result.model, result.data)
            buckets = evaluation.amplitude_sensitivity(amplitudes, ident_correct)
            ratios += np.array([b.ratio if b.ratio is not None else 0.0 for b in buckets])
            edges.append([(b.low, b.high) for b in buckets])
        ratios /= len(runs)
        buckets_path = _out_path(args, args.buckets)
        _write(io.write_rows, buckets_path,
               ["bucket", "mean_low", "mean_high", "mean_ratio"],
               [(i + 1,
                 float(np.mean([e[i][0] for e in edges])),
                 float(np.mean([e[i][1] for e in edges])),
                 ratios[i]) for i in range(4)])
        _say(args, f"wrote {buckets_path}")
    return 0


# -- parser ------------------------------------------------------------------

def _add_global_flags(parser):
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--config", help="flat key=value config file; flags win")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--quiet", action="store_true", help="suppress status lines")


def _add_panel_flags(parser):
    parser.add_argument("--stocks", type=int, default=20, help="number of series")
    parser.add_argument("--steps", type=int, default=1500, help="observations per series")
    parser.add_argument("--split-index", type=int, default=1000,
                        help="train/test split column")
    parser.add_argument("--train-anoms", type=int, default=4,
                        help="anomalies per train series")
    parser.add_argument("--test-anoms", type=int, default=2,
                        help="anomalies per test series")
    parser.add_argument("--rho", type=float, default=0.04,
                        help="shock amplitude upper bound")
    parser.add_argument("--correlation", type=float, default=0.5,
                        help="constant off-diagonal correlation")
    parser.add_argument("--window-length", type=int, default=206,
                        help="sliding window length p")
    parser.add_argument("--r-c", type=float, default=0.16,
                        help="test-set contamination rate")
    parser.add_argument("--k", type=int, default=pcafeat.DEFAULT_LATENT_DIM,
                        help="latent dimension")


def _add_model_flags(parser):
    parser.add_argument("--pca", required=True, help="PCA model file")
    parser.add_argument("--net", required=True, help="scoring network file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="panelscan",
        description="Two-step anomaly detection on panels of financial time series.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    parsers = {}

    def sub(name, help_text, func):
        p = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        _add_global_flags(p)
        p.set_defaults(func=func)
        parsers[name] = p
        return p

    p = sub("simulate", "simulate a correlated GBM panel and contaminate it",
            cmd_simulate)
    _add_panel_flags(p)

    p = sub("augment", "window a contaminated panel into labeled train/test rows",
            cmd_augment)
    p.add_argument("--panel", required=True, help="contaminated panel CSV")
    p.add_argument("--value-labels", required=True, help="value-label matrix CSV")
    p.add_argument("--split-index", type=int, default=1000,
                   help="train/test split column; 0 keeps one set")
    p.add_argument("--window-length", type=int, default=206)
    p.add_argument("--r-c", type=float, default=0.16)

    p = sub("fit", "fit the PCA features and train the scoring network", cmd_fit)
    p.add_argument("--windows", required=True, help="training windows CSV")
    p.add_argument("--labels", required=True, help="training labels CSV")
    p.add_argument("--k", type=int, default=pcafeat.DEFAULT_LATENT_DIM)
    p.add_argument("--hidden", type=_hidden_dims, default=(64, 32),
                   help="comma-separated hidden layer sizes")
    p.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")
    p.add_argument("--iters", type=int, default=2000, help="training iterations")
    p.add_argument("--tau", type=float, default=None,
                   help="label-smoothing temperature "
                        f"(default {scorer.TrainConfig.temperature})")

    p = sub("detect", "run iterative detection over window rows", cmd_detect)
    p.add_argument("--windows", required=True, help="windows CSV")
    _add_model_flags(p)
    p.add_argument("--method", choices=detector.IMPUTATION_METHODS, default="BF")
    p.add_argument("--max-iter", type=int, default=5)
    p.add_argument("--cleaned", help="also write imputed windows to this file name")

    p = sub("evaluate", "score a labeled window set against a fitted model",
            cmd_evaluate)
    p.add_argument("--windows", required=True)
    p.add_argument("--labels", required=True)
    _add_model_flags(p)
    p.add_argument("--prc", help="write PRC points to this file name")
    p.add_argument("--robustness", help="write the cut-off shock table to this file name")
    p.add_argument("--adf", help="write ADF summary stats to this file name")

    p = sub("var", "portfolio VaR before/after anomaly imputation", cmd_var)
    p.add_argument("--clean", required=True, help="clean panel CSV")
    p.add_argument("--panel", required=True, help="contaminated panel CSV")
    p.add_argument("--value-labels", required=True, help="value-label matrix CSV")
    p.add_argument("--params", required=True, help="generating parameters CSV")
    p.add_argument("--weights", help="portfolio weights CSV (default: equal)")
    _add_model_flags(p)
    p.add_argument("--alpha", type=float, default=0.99, help="VaR confidence level")
    p.add_argument("--h", type=int, default=1, help="horizon in steps")
    p.add_argument("--dt", type=float, default=simgen.DiffusionConfig.dt,
                   help="step size in years (default matches simulate)")
    p.add_argument("--correlation", type=float, default=0.5)
    p.add_argument("--method", choices=detector.IMPUTATION_METHODS, default="BF")

    p = sub("bench", "multi-seed end-to-end benchmark", cmd_bench)
    _add_panel_flags(p)
    p.add_argument("--runs", type=int, default=10, help="number of seeds")
    p.add_argument("--buckets", help="write amplitude sensitivity buckets to this file name")

    return parser, parsers


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, parsers = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 2
    try:
        if args.config:
            config = _load_config(args.config)
            _apply_config(args, argv, [parsers[args.command]], config)
        return args.func(args)
    except InputError as exc:
        print(f"panelscan: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"panelscan: invalid input: {exc}", file=sys.stderr)
        return 3
    except (FloatingPointError, ZeroDivisionError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"panelscan: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
