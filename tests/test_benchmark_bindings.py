"""The benchmark's tracer wraps package names by attribute, and its runner
calls others; a simplification that deletes or renames one of them must
fail here, not in the benchmark."""
from __future__ import annotations

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from waveflow.checkpoint import load_checkpoint
from waveflow.cli import main as waveflow_main
from waveflow.flows import build_glow
from waveflow.train import TrainConfig
from waveflow.waveletflow import WaveletFlowModel, build_waveletflow

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = Path(__file__).resolve().parent / "data"

# Wrapped bindings at the time the benchmark was defined.
EXPECTED_PATCHES = 44


def test_tracer_patches_every_binding_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    trace = tracer.Tracer()
    with tracer.traced(trace):
        patches = list(trace._patches)
        wrapped = [getattr(owner, attr) for owner, attr, _ in patches]
    assert len(patches) == EXPECTED_PATCHES
    assert all(now is not original for now, (_, _, original) in zip(wrapped, patches))
    assert trace._patches == []
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner}.{attr} was not restored"


def test_training_workers_start_under_the_tracer(monkeypatch):
    """A traced pass trains through spawned workers: what a worker is handed
    must pickle by reference although the tracer has replaced bindings."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    trace = tracer.Tracer()
    model = build_waveletflow(8, steps_per_level=1, hidden=2, seed=0)
    images = np.random.default_rng(0).random((6, 1, 8, 8))
    train_module = importlib.import_module("waveflow.train")  # the package attribute is the function
    with tracer.traced(trace):
        patches = list(trace._patches)
        histories = train_module.train(model, images, TrainConfig(batch_size=6, max_epochs=1), workers=2)
    assert list(histories) == list(model.components())
    assert trace.summary()["train.train"]["calls"] == 1
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner}.{attr} was not restored"


# The stored 4 px WaveletFlow has no level large enough to score, so the
# pyramid case is an 8 px build with the stored model's hidden width.
SCORED_MODELS = {
    "glow": lambda: load_checkpoint(DATA / "glow_4px.json"),
    "waveletflow": lambda: build_waveletflow(8, steps_per_level=1, hidden=2, seed=0),
}


@pytest.mark.parametrize("family", sorted(SCORED_MODELS))
def test_benchmark_score_fn_scores_both_families(family, monkeypatch):
    """perfbench/run.py calls these package names to score; a deletion or
    rename must fail here too, not only in the benchmark."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    model = SCORED_MODELS[family]()
    size = model.architecture["image_size"]
    x = np.random.default_rng(0).random((1, size, size))
    value = run.score_fn(model)(x)
    expected = (
        model.score(x).score
        if isinstance(model, WaveletFlowModel)
        else model.log_density(x).bits_per_dim
    )
    assert isinstance(value, float) and math.isfinite(value)
    assert value == expected
    # The benchmark's per-image path and the CLI's batch path agree.
    assert value == model.score_batch(x[None])[0].score


def test_benchmark_components_cover_both_families(monkeypatch):
    """perfbench/layers.py reads each component's seconds by name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    size = importlib.import_module("run").IMAGE_SIZE
    names = set(build_waveletflow(size, steps_per_level=1, hidden=2).components())
    names |= set(build_glow(K=1, L=2, in_channels=1, image_size=size, hidden=2).components())
    assert set(layers.COMPONENTS) == names


@pytest.mark.parametrize("workload", ["train-wf", "train-glow"])
def test_benchmark_check_training_accepts_a_train_output(workload, tmp_path, monkeypatch):
    """perfbench/run.py reads training.json and history.csv of ``waveflow
    train`` run with its own [train] and [training] sections."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    data = tmp_path / "data"
    synth = {"image_size": 8, "train_in_dist": 8, "test_in_dist": 2, "test_ood": 2, "seed": 0}
    synth_ini = run.write_ini(tmp_path / "synth.ini", {"run": {"out": data, "threads": 1}, "synth": synth})
    assert waveflow_main(["synth", "--config", str(synth_ini)]) == 0
    epochs = 2
    bench = run.Run(run.WORKLOADS[workload], seed=0, nproc=1, run_dir=tmp_path)
    train_ini = bench.train_ini(tmp_path / "train.ini", data, epochs)  # patience = epochs + 1
    assert waveflow_main(["train", "--config", str(train_ini), "--out", str(tmp_path / "model")]) == 0
    checks = run.Checks()
    training = run.check_training(tmp_path / "model", epochs, checks)
    assert checks.failures == []
    assert checks.attempted == 2 * len(training["component_s"])
    assert training["epochs"] == epochs * len(training["component_s"])
    assert training["aborted"] == 0
