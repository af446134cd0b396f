"""Smoke runs of every demo script on a small panel."""

import importlib.util
from pathlib import Path

import pytest

from panelscan import scorer, workflows

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PipelineConfig = workflows.PipelineConfig


def _small_config(seed=0):
    """The CLI tests' small panel: 6 x 380, split 220, windows of 64, k = 12, 40 iterations."""
    return PipelineConfig(
        n_stocks=6, n_steps=380, split_index=220, window_length=64, train_anoms=2,
        test_anoms=1, latent_dim=12, seed=seed,
        train=scorer.TrainConfig(hidden_dims=(16,), max_iters=40,
                                 seed=workflows.derive_seed(seed, "train_net")))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_demo_is_found():
    assert [path.name for path in DEMOS] == [
        "cutoff_and_amplitude_study.py", "quickstart_detection.py", "var_cleanup_workflow.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_on_a_small_panel(path, monkeypatch, capsys):
    demo = _load(path)
    monkeypatch.setattr(workflows, "PipelineConfig", _small_config)
    if hasattr(demo, "N_RUNS"):
        monkeypatch.setattr(demo, "N_RUNS", 2)
    demo.main()
    out = capsys.readouterr().out
    assert out.strip()
    assert "nan" not in out.lower()
