#!/usr/bin/env python3
"""Calibrate the two-step detector on one synthetic panel and read the results.

Walks the default desk-scale path: simulate a correlated GBM panel, stamp
multiplicative anomalies, window and select the train/test rows, fit the PCA
features plus the scoring network, then report identification, localization
and the learned cut-off. Ends with a few concrete test rows so the scores and
located stamps can be eyeballed against the truth.
"""

import numpy as np

from panelscan import workflows

SEED = 0


def main():
    cfg = workflows.PipelineConfig(seed=SEED)
    print(f"reference run: {cfg.n_stocks} stocks x {cfg.n_steps} steps, "
          f"window p={cfg.window_length}, latent k={cfg.latent_dim}, seed {SEED}")
    result = workflows.reference_run(cfg)
    s = result.summary

    print("\nidentification (window rows)")
    for split in ("train", "test"):
        m = s[f"ident_{split}"]
        print(f"  {split:5s}  acc {m.accuracy:.4f}  precision {m.precision:.4f}  "
              f"recall {m.recall:.4f}  F1 {m.f1:.4f}")

    print("\nlocalization (contaminated rows, 1-based stamp inside the window)")
    for split in ("train", "test"):
        m = s[f"loc_{split}"]
        print(f"  {split:5s}  acc {m.accuracy:.4f}   raw-argmax dummy "
              f"{s[f'dummy_loc_accuracy_{split}']:.4f}")
    print(f"  non-extreme test rows: {s['non_extreme_accuracy']:.4f} on "
          f"{s['n_non_extreme']} rows where the anomaly is not the window max "
          f"(dummy on all contaminated test rows: {s['dummy_loc_accuracy_test']:.4f})")

    print(f"\nlearned cut-off s = {s['cutoff']:.4f}  "
          f"(training best loss {s['final_loss']:.4f})")
    print(f"score tail masses on train: network {s['nn_auc_u']:.4f} clean / "
          f"{s['nn_auc_c']:.4f} contaminated vs naive {s['naive_auc_u']:.4f} / "
          f"{s['naive_auc_c']:.4f}")

    panel = result.data.test
    scored = result.test_scored

    print("\nsample test rows (score > s flags the row)")
    print("  row   A  score      flagged  true stamp  located")
    rng = np.random.default_rng(SEED)
    hot = np.flatnonzero(panel.ident_labels == 1)
    cold = np.flatnonzero(panel.ident_labels == 0)
    shown = np.concatenate([rng.choice(hot, 4, replace=False),
                            rng.choice(cold, 2, replace=False)])
    for row in shown:
        a = panel.ident_labels[row]
        loc = f"{panel.loc_labels[row]:10d}" if a else "         -"
        print(f"  {row:4d}  {a}  {scored.scores[row]:9.4f}  "
              f"{str(bool(scored.flags[row])):7s} {loc}  {scored.locations[row]:7d}")


if __name__ == "__main__":
    main()
