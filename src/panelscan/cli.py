"""Command-line front-end wiring the modules into reproducible experiments.

Subcommands: simulate | augment | fit | detect | evaluate | var | bench.
Every command is a pure function of (input files, flags), and the four that
draw random numbers (simulate, augment, fit, bench) draw them from --seed.
Re-running with the same inputs reproduces the outputs byte for byte.

Exit codes: 0 success, 2 I/O or parse problem, 3 validation or dimension
problem, 4 numerical failure. No command that exits non-zero leaves a file it
wrote: a command computes all its outputs before main writes them, and a failed
write removes what was written. Unless --quiet, success prints one line:
"wrote PATH, PATH, ... (FIGURES)". Options may also come from a flat key=value
config file (--config): each line is parsed as the flag --key=value, placed
before the command line's own flags, so a config value is checked exactly as
that flag is, with the same messages, and an explicit flag wins.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import detector, evaluation, io, pcafeat, riskmetrics, scorer, simgen, workflows


class InputError(Exception):
    """I/O or parse problem; maps to exit code 2."""


def _read(reader, path):
    """reader(path), with malformed content as an InputError; main maps OSError."""
    try:
        return reader(path)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _hidden_dims(text):
    try:
        dims = tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}")
    return dims


# -- config file -------------------------------------------------------------

def _load_config(path):
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    config = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, value = text.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _config_flags(parser, config):
    """The config as --key=value flags for parser. A value-less flag (a bool
    default, as --quiet's) is given for a true value and left out for a false one."""
    flags = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if not isinstance(parser.get_default(key.replace("-", "_")), bool):
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            flags.append(flag)
        elif value.lower() not in ("0", "false", "no", "off"):
            raise InputError(f"config key {key!r} expects a boolean, got {value!r}")
    return flags


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


def _read_window_set(args):
    """Windows with their A and L, paired by row id: the window ids must run
    0..n-1 in order, as read_labels requires of the labels' row_id."""
    ids, windows = _read(io.read_panel, args.windows)
    for row_id, sid in enumerate(ids):
        if sid != str(row_id):
            raise ValueError(f"{args.windows}: window row id {sid!r} where {row_id} belongs")
    A, L = _read(io.read_labels, args.labels)
    if A.size != windows.shape[0]:
        raise ValueError(f"{A.size} labels for {windows.shape[0]} window rows")
    if np.any(L > windows.shape[1]):
        raise ValueError(f"a label location {int(L.max())} lies beyond the window length "
                         f"{windows.shape[1]}")
    return windows, A, L


# -- commands ----------------------------------------------------------------

def cmd_simulate(args):
    panels = workflows.build_panels(_pipeline_config(args))
    clean = np.hstack([panels.clean_train.prices, panels.clean_test.prices])
    contaminated = np.hstack([panels.contaminated_train.prices,
                              panels.contaminated_test.prices])
    value_labels = np.hstack([panels.train_value_labels, panels.test_value_labels])
    return {
        "clean_panel.csv": lambda p: io.write_panel(p, clean),
        "contaminated_panel.csv": lambda p: io.write_panel(p, contaminated),
        "value_labels.csv": lambda p: io.write_value_labels(p, value_labels),
        "params.csv": lambda p: io.write_params(p, panels.clean_train),
    }, ""


def cmd_augment(args):
    _, prices = _read(io.read_panel, args.panel)
    _, value_labels = _read(io.read_value_labels, args.value_labels)
    if value_labels.shape != prices.shape:
        raise ValueError("value labels shape does not match the panel shape")
    split = args.split_index
    if not 0 <= split < prices.shape[1]:
        raise ValueError(f"split index must lie in [0, {prices.shape[1]}), got {split}")
    parts = (("train", prices, value_labels),) if split == 0 else (
        ("train", prices[:, :split], value_labels[:, :split]),
        ("test", prices[:, split:], value_labels[:, split:]),
    )
    panels = {name: workflows.labeled_windows(part_prices, part_labels, name,
                                              args.window_length, args.r_c, args.seed)
              for name, part_prices, part_labels in parts}
    outputs = {}
    for name, panel in panels.items():
        outputs[f"windows_{name}.csv"] = lambda p, panel=panel: io.write_panel(p, panel.windows)
        outputs[f"labels_{name}.csv"] = lambda p, panel=panel: io.write_labels(
            p, panel.ident_labels, panel.loc_labels)
    return outputs, ", ".join(f"{panel.n_rows} {name} rows" for name, panel in panels.items())


def cmd_fit(args):
    windows, A, _ = _read_window_set(args)
    train_cfg = scorer.TrainConfig(
        hidden_dims=args.hidden, learning_rate=args.lr, max_iters=args.iters,
        temperature=args.tau, seed=workflows.derive_seed(args.seed, "train_net"),
    )
    model, result = workflows.fit_model(windows, A, args.k, train_cfg)
    return {
        "pca.txt": lambda p: io.write_pca_model(p, model.pca),
        "net.txt": lambda p: io.write_network(p, result.network),
        "training_log.csv": lambda p: io.write_training_log(p, result.history),
    }, f"best loss {result.best_loss:.6g} at iteration {result.best_iteration}"


def cmd_detect(args):
    _, windows = _read(io.read_panel, args.windows)
    model = _load_model(args)
    reports = detector.detect_batch(model, windows, method=args.method,
                                    max_iter=args.max_iter)
    outputs = {"detect_report.csv": lambda p: io.write_detect_report(p, reports)}
    if args.cleaned:
        outputs[args.cleaned] = lambda p: io.write_panel(
            p, np.vstack([r.imputed_series for r in reports]))
    return outputs, f"{sum(r.pred_label for r in reports)} of {len(reports)} rows flagged"


def cmd_evaluate(args):
    windows, A, L = _read_window_set(args)
    model = _load_model(args)
    scored = detector.score_rows(model, windows)
    metrics = workflows.split_metrics(scored, windows, A, L)
    report = {
        "identification": metrics["ident"],
        "cutoff": model.net.cutoff,
        "n_rows": int(A.size),
    }
    if "loc" in metrics:
        report["localization"] = metrics["loc"]
        report["dummy_localization_accuracy"] = metrics["dummy_loc_accuracy"]
    outputs = {}
    if args.prc:
        curve = evaluation.precision_recall_curve(scored.scores, A)
        outputs[args.prc] = lambda p: io.write_rows(
            p, ["threshold", "recall", "precision"],
            zip(curve.thresholds, curve.recall, curve.precision))
        report["prc_auc"] = curve.auc
    if args.robustness:
        table = evaluation.cutoff_robustness(scored.scores, model.net.cutoff, A)
        outputs[args.robustness] = lambda p: io.write_rows(
            p, ["gamma", "accuracy", "precision", "recall", "f1"],
            [(g, m.accuracy, m.precision, m.recall, m.f1) for g, m in table])
    if args.adf:
        p_values, reject_rate = workflows.adf_study(scored.epsilon)
        outputs[args.adf] = lambda p: io.write_rows(
            p, ["statistic", "mean_p", "max_p", "reject_rate"],
            [("summary", float(p_values.mean()), float(p_values.max()), reject_rate)])
        report["adf_reject_rate"] = reject_rate
    outputs["metrics.json"] = lambda p: io.write_json(p, report)
    return outputs, f"identification F1 {report['identification'].f1:.4f}"


def cmd_var(args):
    clean_ids, clean = _read(io.read_panel, args.clean)
    ids, contaminated = _read(io.read_panel, args.panel)
    label_ids, value_labels = _read(io.read_value_labels, args.value_labels)
    s0, mu, sigma = _read(io.read_params, args.params)
    if contaminated.shape != clean.shape or value_labels.shape != clean.shape:
        raise ValueError("clean, contaminated and value-label files disagree in shape")
    if clean_ids != ids or label_ids != ids:
        raise ValueError("clean, contaminated and value-label files disagree on series ids")
    if mu.size != clean.shape[0]:
        raise ValueError(f"{mu.size} parameter rows for {clean.shape[0]} series")
    weight_ids, weights = _read(io.read_weights, args.weights) if args.weights \
        else (ids, np.full(clean.shape[0], 1.0 / clean.shape[0]))
    if weight_ids != ids:
        raise ValueError(f"{len(weight_ids)} weights do not name the {len(ids)} series "
                         "of the panel in its order")
    model = _load_model(args)
    portfolio = riskmetrics.Portfolio(weights=weights)
    pred = workflows.detect_panel(model, contaminated, method=args.method)
    estimates, errors = workflows.var_estimates(
        clean, contaminated, value_labels, pred, mu, sigma, args.correlation, args.dt,
        args.h, portfolio, args.alpha, model.pca, method=args.method)
    payload = {
        "alpha": args.alpha,
        "horizon": args.h,
        "var": estimates,
        "errors": {tag: {"absolute": absolute, "relative": relative}
                   for tag, (absolute, relative) in errors.items()},
    }
    return {"var_report.json": lambda p: io.write_json(p, payload)}, \
        f"VaR theo {estimates['theo']:.6g}, loc_pred {estimates['loc_pred']:.6g}"


def _bench_run(cfg, buckets, quiet):
    """One bench seed's flattened metrics and, if buckets, its amplitude buckets.

    Only these records outlive the call, so bench holds one run at a time."""
    started = time.perf_counter()
    result = workflows.reference_run(cfg)
    if not quiet:
        print(f"seed {cfg.seed}: test F1 {result.summary['ident_test'].f1:.4f} "
              f"({time.perf_counter() - started:.1f}s)")
    flat = evaluation.flatten_metrics(result.summary)
    if not buckets:
        return flat, None
    amplitudes, ident_correct, _ = workflows.amplitude_records(result)
    return flat, evaluation.amplitude_sensitivity(amplitudes, ident_correct)


def cmd_bench(args):
    if args.runs < 2:
        raise ValueError("bench needs at least 2 runs")
    base = _pipeline_config(args)
    seeds = [args.seed + i for i in range(args.runs)]
    started = time.perf_counter()
    records = [_bench_run(replace(base, seed=seed), args.buckets, args.quiet) for seed in seeds]
    flat = [metrics for metrics, _ in records]
    mean, std = evaluation.aggregate(flat)
    keys = list(mean)
    summary = {
        "runs": len(seeds),
        "seeds": seeds,
        "mean": mean,
        "std": std,
        "wall_seconds": time.perf_counter() - started,
    }
    outputs = {
        "bench_summary.json": lambda p: io.write_json(p, summary),
        "bench_runs.csv": lambda p: io.write_rows(
            p, ["seed"] + keys,
            [[seed] + [flat[i].get(k, float("nan")) for k in keys]
             for i, seed in enumerate(seeds)]),
    }
    if args.buckets:
        ratios = [[] for _ in range(4)]  # per bucket, the runs where it holds rows
        edges = []
        for _, buckets in records:
            for held, b in zip(ratios, buckets):
                if b.ratio is not None:
                    held.append(b.ratio)
            edges.append([(b.low, b.high) for b in buckets])
        outputs[args.buckets] = lambda p: io.write_rows(
            p, ["bucket", "mean_low", "mean_high", "mean_ratio"],
            [(i + 1, float(np.mean([e[i][0] for e in edges])),
              float(np.mean([e[i][1] for e in edges])),
              sum(ratios[i]) / len(ratios[i]) if ratios[i] else "") for i in range(4)])
    return outputs, ""


# -- output ----------------------------------------------------------------

def _stamp(path):
    st = os.stat(path) if os.path.exists(path) else None
    return st and (st.st_ino, st.st_size, st.st_mtime_ns)


def _write_outputs(args, outputs, figures):
    """Run each writer on its file in --out-dir, in order, then print the status line.
    A failed write removes the files written, the failing one unless untouched."""
    if outputs and not os.path.isdir(args.out_dir):
        raise InputError(f"output directory {args.out_dir!r} does not exist")
    written = []
    for name, write in outputs.items():
        path = os.path.join(args.out_dir, name)
        before = _stamp(path)
        try:
            write(path)
        except BaseException:
            if _stamp(path) != before:  # the writer got as far as opening it
                written.append(path)
            for done in written:
                with contextlib.suppress(OSError):
                    os.remove(done)
            raise
        written.append(path)
    if written and not args.quiet:
        print("wrote " + ", ".join(written) + (f" ({figures})" if figures else ""))


# -- parser ------------------------------------------------------------------

def _add_global_flags(parser):
    parser.add_argument("--config", help="flat key=value config file; flags win")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--quiet", action="store_true", help="suppress status lines")


def _add_panel_flags(parser):
    study = workflows.PipelineConfig
    parser.add_argument("--stocks", type=int, default=study.n_stocks, help="number of series")
    parser.add_argument("--steps", type=int, default=study.n_steps,
                        help="observations per series")
    parser.add_argument("--split-index", type=int, default=study.split_index,
                        help="train/test split column")
    parser.add_argument("--train-anoms", type=int, default=study.train_anoms,
                        help="anomalies per train series")
    parser.add_argument("--test-anoms", type=int, default=study.test_anoms,
                        help="anomalies per test series")
    parser.add_argument("--rho", type=float, default=study.rho,
                        help="shock amplitude upper bound")
    parser.add_argument("--correlation", type=float, default=study.correlation,
                        help="constant off-diagonal correlation")
    parser.add_argument("--window-length", type=int, default=study.window_length,
                        help="sliding window length p")
    parser.add_argument("--r-c", type=float, default=study.r_c,
                        help="test-set contamination rate")
    parser.add_argument("--k", type=int, default=study.latent_dim, help="latent dimension")


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

    def sub(name, help_text, func, seeded=False):
        p = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="master RNG seed")
        _add_global_flags(p)
        p.set_defaults(func=func)
        parsers[name] = p
        return p

    p = sub("simulate", "simulate a correlated GBM panel and contaminate it",
            cmd_simulate, seeded=True)
    _add_panel_flags(p)

    p = sub("augment", "window a contaminated panel into labeled train/test rows",
            cmd_augment, seeded=True)
    p.add_argument("--panel", required=True, help="contaminated panel CSV")
    p.add_argument("--value-labels", required=True, help="value-label matrix CSV")
    p.add_argument("--split-index", type=int, default=workflows.PipelineConfig.split_index,
                   help="train/test split column; 0 keeps one set")
    p.add_argument("--window-length", type=int, default=workflows.PipelineConfig.window_length)
    p.add_argument("--r-c", type=float, default=workflows.PipelineConfig.r_c)

    p = sub("fit", "fit the PCA features and train the scoring network", cmd_fit, seeded=True)
    p.add_argument("--windows", required=True, help="training windows CSV")
    p.add_argument("--labels", required=True, help="training labels CSV")
    p.add_argument("--k", type=int, default=pcafeat.DEFAULT_LATENT_DIM)
    p.add_argument("--hidden", type=_hidden_dims, default=scorer.TrainConfig.hidden_dims,
                   help="comma-separated hidden layer sizes")
    p.add_argument("--lr", type=float, default=scorer.TrainConfig.learning_rate,
                   help="Adam learning rate")
    p.add_argument("--iters", type=int, default=scorer.TrainConfig.max_iters,
                   help="training iterations")
    p.add_argument("--tau", type=float, default=scorer.TrainConfig.temperature,
                   help="label-smoothing temperature")

    p = sub("detect", "run iterative detection over window rows", cmd_detect)
    p.add_argument("--windows", required=True, help="windows CSV")
    _add_model_flags(p)
    p.add_argument("--method", choices=detector.IMPUTATION_METHODS,
                   default=detector.DEFAULT_METHOD)
    p.add_argument("--max-iter", type=int, default=detector.DEFAULT_MAX_ITER)
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
    p.add_argument("--alpha", type=float, default=workflows.DEFAULT_VAR_ALPHA,
                   help="VaR confidence level")
    p.add_argument("--h", type=int, default=workflows.DEFAULT_H_STEPS, help="horizon in steps")
    p.add_argument("--dt", type=float, default=simgen.DiffusionConfig.dt,
                   help="step size in years (default matches simulate)")
    p.add_argument("--correlation", type=float, default=workflows.PipelineConfig.correlation)
    p.add_argument("--method", choices=detector.IMPUTATION_METHODS,
                   default=detector.DEFAULT_METHOD)

    p = sub("bench", "multi-seed end-to-end benchmark", cmd_bench, seeded=True)
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
        if getattr(args, "command", None) is None:
            parser.print_help()
            return 2
        if args.config:
            # config flags go right after the command, so the user's own come later and win
            at = argv.index(args.command) + 1
            flags = _config_flags(parsers[args.command], _read(_load_config, args.config))
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        _write_outputs(args, *args.func(args))
        return 0
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    except (InputError, OSError) as exc:
        print(f"panelscan: error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, ZeroDivisionError, OverflowError,
            np.linalg.LinAlgError) as exc:  # first: numpy 2.4 derives LinAlgError from ValueError
        print(f"panelscan: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"panelscan: invalid input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
