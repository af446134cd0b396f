"""Remake the stored detector that the scan workload loads.

Runs the seed-0 desk-scale calibration (default PipelineConfig) at the
benchmark's BLAS thread count and writes the PCA model and the scoring
network in panelscan's own text formats, with the market the detector was
calibrated on (per-stock s0, mu and sigma of the train half):

    python3 perfbench/make_model.py

Run it from the root of the repository; it takes about a minute.
"""

import os
import sys
import time

import env


def main():
    env.prepare()
    from panelscan import io, workflows

    started = time.perf_counter()
    bundle = workflows.build_datasets(workflows.PipelineConfig(seed=0))
    model, training = workflows.fit_detector(bundle)
    os.makedirs(env.MODEL_DIR, exist_ok=True)
    io.write_pca_model(env.PCA_FILE, model.pca)
    io.write_network(env.NET_FILE, model.net)
    io.write_params(env.PARAMS_FILE, bundle.clean_train)
    print(f"wrote {env.PCA_FILE}, {env.NET_FILE} and {env.PARAMS_FILE} "
          f"in {time.perf_counter() - started:.1f} s "
          f"(best loss {float(training.best_loss)!r}, cut-off {float(model.net.cutoff)!r}, "
          f"{env.BLAS_THREADS} BLAS thread)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
