"""End-to-end acceptance checks, one test per criterion.

Each test prints a single machine-greppable verdict line of the form

    [acceptance] <nn> <name>: PASS|FAIL (key numbers...)

Run ``pytest tests/test_acceptance.py -v -s`` to watch the lines stream;
without ``-s`` pytest still shows them in the captured-output section.
The heavyweight fixtures (synthetic dataset, trained models) are shared
module-wide, so the file costs a few minutes total, dominated by the two
training runs behind criteria 6-8.
"""
from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from textwrap import dedent
from types import SimpleNamespace

import numpy as np
import pytest

from waveflow import autodiff as ad
from waveflow.cli import main as cli_main
from waveflow.data import SynthConfig, generate_synthetic, load_split
from waveflow.evaluate import auc, roc_points, wavelet_magnitude_score
from waveflow.flows import (
    ActNorm,
    AffineCoupling,
    FlowModel,
    build_glow,
    coupling_parameter_count,
)
from waveflow.haar import build_pyramid, reconstruct
from waveflow.masks import STRATEGIES, make_mask
from waveflow.train import TrainConfig, train
from waveflow.waveletflow import build_waveletflow

from helpers import finite_diff_grad, numeric_logabsdet, pairwise_auc, randomize, trapezoid_area


@contextmanager
def criterion(number: int, name: str):
    """Yield an info dict; print one PASS/FAIL line when the block ends."""
    info: dict[str, object] = {}
    try:
        yield info
    except BaseException:
        _verdict(number, name, "FAIL", info)
        raise
    _verdict(number, name, "PASS", info)


def _verdict(number: int, name: str, verdict: str, info: dict) -> None:
    detail = " ".join(f"{k}={v}" for k, v in info.items())
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {number:02d} {name}: {verdict}{suffix}", flush=True)


# ---------------------------------------------------------------------------
# Shared heavyweight fixtures: one synthetic dataset, two trained models.
# ---------------------------------------------------------------------------

TRAIN_SETUP = TrainConfig(
    learning_rate=1e-3,
    batch_size=32,
    max_epochs=20,
    patience=10,
    dequantize=True,
    seed=0,
)


@pytest.fixture(scope="module")
def dataset32(tmp_path_factory):
    cfg = dataclasses.replace(SynthConfig(), train_in_dist=200, test_in_dist=60, test_ood=60, seed=0)
    manifest = generate_synthetic(cfg, tmp_path_factory.mktemp("acc-data"), threads=2)
    train_images, _ = load_split(manifest, "train")
    test_in, _ = load_split(manifest, "test", label="in_dist")
    test_ood, _ = load_split(manifest, "test", label="ood")
    return SimpleNamespace(train=train_images, test_in=test_in, test_ood=test_ood)


@pytest.fixture(scope="module")
def trained(dataset32):
    # Two workers: the result is byte-identical to a serial run's
    # (test_train.py's TestTrainingBits pins both families at 1 and 2).
    wf = build_waveletflow(32, steps_per_level=2, hidden=24, seed=0)
    t0 = time.perf_counter()
    wf_history = train(wf, dataset32.train, TRAIN_SETUP, workers=2)
    wf_seconds = time.perf_counter() - t0

    glow = build_glow(K=4, L=2, in_channels=1, image_size=32, hidden=24, seed=0)
    glow_history = train(glow, dataset32.train, TRAIN_SETUP, workers=2)["flow"]
    return SimpleNamespace(
        wf=wf,
        wf_history=wf_history,
        wf_seconds=wf_seconds,
        glow=glow,
        glow_history=glow_history,
    )


@pytest.fixture(scope="module")
def ood_scores(dataset32, trained):
    wf_in = [trained.wf.score(im).score for im in dataset32.test_in]
    wf_ood = [trained.wf.score(im).score for im in dataset32.test_ood]
    glow_in = [trained.glow.log_density(im).bits_per_dim for im in dataset32.test_in]
    glow_ood = [trained.glow.log_density(im).bits_per_dim for im in dataset32.test_ood]
    mag_in = [wavelet_magnitude_score(im).score for im in dataset32.test_in]
    mag_ood = [wavelet_magnitude_score(im).score for im in dataset32.test_ood]
    return SimpleNamespace(
        wf=(wf_in, wf_ood), glow=(glow_in, glow_ood), magnitude=(mag_in, mag_ood)
    )


# ---------------------------------------------------------------------------
# 1. Wavelet round trip
# ---------------------------------------------------------------------------


def test_01_wavelet_round_trip():
    rng = np.random.default_rng(11)
    with criterion(1, "wavelet-round-trip") as info:
        t0 = time.perf_counter()
        worst_err = 0.0
        worst_drift = 0.0
        for _ in range(100):
            x = rng.random((1, 32, 32))
            pyramid = build_pyramid(x)
            back = reconstruct(pyramid)
            worst_err = max(worst_err, float(np.max(np.abs(back - x))))
            energy = float(np.sum(x * x))
            worst_drift = max(worst_drift, abs(float(np.sum(back * back)) - energy) / energy)
            # The analysis is orthonormal, so the coefficients themselves
            # must carry exactly the input energy as well.
            coeff = float(np.sum(pyramid.base**2)) + sum(
                float(np.sum(lvl.detail**2)) for lvl in pyramid.levels
            )
            worst_drift = max(worst_drift, abs(coeff - energy) / energy)
        elapsed = time.perf_counter() - t0
        info["max_abs_err"] = f"{worst_err:.2e}"
        info["energy_drift"] = f"{worst_drift:.2e}"
        info["seconds"] = f"{elapsed:.2f}"
        assert worst_err < 1e-6
        assert worst_drift < 1e-9
        assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Bijectivity for every mask strategy
# ---------------------------------------------------------------------------


def test_02_bijectivity_every_strategy():
    with criterion(2, "bijectivity") as info:
        worst = 0.0
        for strategy in STRATEGIES:
            rng = np.random.default_rng(hash(strategy) % (2**32))
            glow = build_glow(
                K=4, L=2, in_channels=1, image_size=8, mask_strategy=strategy, hidden=8, seed=1
            )
            randomize(glow, rng)
            x = rng.normal(0.0, 0.5, size=(50, 1, 8, 8))
            latents, _ = glow.forward_latents(x)
            back, _ = glow.inverse_from_latents([z.data for z in latents])
            worst = max(worst, float(np.max(np.abs(back - x))))

            wf = build_waveletflow(16, steps_per_level=2, mask_strategy=strategy, hidden=8, seed=2)
            for flow in wf.level_flows.values():
                randomize(flow, rng)
                c, h, w = flow.input_shape
                detail = rng.normal(0.0, 0.5, size=(50, c, h, w))
                low = rng.normal(0.0, 0.5, size=(50, 1, h, w))
                latents, _ = flow.forward_latents(detail, low)
                back, _ = flow.inverse_from_latents([z.data for z in latents], low)
                worst = max(worst, float(np.max(np.abs(back - detail))))
        info["strategies"] = len(STRATEGIES)
        info["max_abs_dev"] = f"{worst:.2e}"
        assert worst < 1e-4


# ---------------------------------------------------------------------------
# 3. Analytic log-determinants against a numerical Jacobian
# ---------------------------------------------------------------------------


def test_03_logdet_matches_numeric_jacobian():
    rng = np.random.default_rng(33)
    with criterion(3, "logdet-oracle") as info:
        gaps = {}

        coupling = AffineCoupling(make_mask("checkerboard", 0, (2, 2, 2)), 0, 8, rng)
        for p in coupling.parameters():
            p.data[...] = rng.normal(0.0, 0.3, size=p.data.shape)
        x = rng.normal(0.0, 0.5, size=(1, 2, 2, 2))
        _, ld = coupling.forward(ad.Tensor(x))

        def coupling_flat(inp):
            z, _ = coupling.forward(ad.Tensor(inp))
            return z.data.reshape(-1)

        gaps["coupling"] = abs(ld.item() - numeric_logabsdet(coupling_flat, x))

        actnorm = ActNorm(4)
        actnorm.scale.data[...] = rng.uniform(0.5, 2.0, size=4)
        actnorm.offset.data[...] = rng.normal(0.0, 0.5, size=4)
        actnorm.initialized = True
        x = rng.normal(0.0, 0.5, size=(1, 4, 2, 2))
        _, ld = actnorm.forward(ad.Tensor(x))

        def actnorm_flat(inp):
            z, _ = actnorm.forward(ad.Tensor(inp))
            return z.data.reshape(-1)

        gaps["actnorm"] = abs(ld.item() - numeric_logabsdet(actnorm_flat, x))

        stack = build_glow(K=2, L=2, in_channels=1, image_size=4, hidden=8, seed=3)
        randomize(stack, rng)
        x = rng.normal(0.0, 0.5, size=(1, 1, 4, 4))
        _, ld = stack.forward_latents(x)

        def stack_flat(inp):
            latents, _ = stack.forward_latents(inp)
            return np.concatenate([z.data.reshape(-1) for z in latents])

        gaps["stack"] = abs(ld.item() - numeric_logabsdet(stack_flat, x))

        for name, gap in gaps.items():
            info[name] = f"{gap:.2e}"
            assert gap < 1e-3, f"{name} logdet off by {gap}"


# ---------------------------------------------------------------------------
# 4. The learned density integrates to one
# ---------------------------------------------------------------------------


def _integrate_density(model: FlowModel, half_width: float = 8.0, step: float = 0.02) -> float:
    cells = int(round(2 * half_width / step))
    centers = -half_width + step * (np.arange(cells) + 0.5)
    grid = np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1).reshape(-1, 2)
    points = grid.reshape(-1, 2, 1, 1)
    total = 0.0
    for start in range(0, points.shape[0], 20000):
        lp = model.log_prob_graph(points[start : start + 20000]).data
        total += float(np.sum(np.exp(lp)))
    return total * step * step


def test_04_density_normalization():
    rng = np.random.default_rng(44)
    with criterion(4, "density-normalization") as info:
        model = build_glow(K=4, L=1, in_channels=2, image_size=1, hidden=16, seed=7)
        before = _integrate_density(model)
        info["integral_init"] = f"{before:.6f}"
        assert abs(before - 1.0) <= 0.01

        chol = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
        adam = ad.Adam(model.parameters(), learning_rate=1e-3)
        for step in range(500):
            batch = (rng.standard_normal((256, 2)) @ chol.T).reshape(256, 2, 1, 1)
            if step == 0:
                model.initialize_actnorm(batch)
            lp = model.log_prob_graph(batch)
            loss = ad.affine(ad.reduce_sum(lp), -1.0 / 256)
            loss.backward()
            adam.step()

        after = _integrate_density(model)
        info["integral_trained"] = f"{after:.6f}"
        assert abs(after - 1.0) <= 0.01


# ---------------------------------------------------------------------------
# 5. Backward pass against central differences
# ---------------------------------------------------------------------------


def test_05_gradients_match_finite_differences():
    with criterion(5, "gradient-oracle") as info:
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            coupling = AffineCoupling(make_mask("channel-half", 0, (2, 2, 2)), 0, 4, rng)
            for p in coupling.parameters():
                p.data[...] = rng.normal(0.0, 0.3, size=p.data.shape)
            x = rng.normal(0.0, 0.5, size=(1, 2, 2, 2))

            def loss_graph():
                z, ld = coupling.forward(ad.Tensor(x))
                return ad.sub(ad.affine(ad.reduce_sum(ad.mul(z, z)), 0.5), ld)

            params = coupling.parameters()
            for p in params:
                p.zero_grad()
            loss_graph().backward()
            analytic = [p.grad.copy() for p in params]
            numeric = finite_diff_grad(lambda: loss_graph().item(), params)
            for p, got, want in zip(params, analytic, numeric):
                rel = float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-6)
                worst = max(worst, rel)
                assert rel < 1e-3, f"{p.name} gradient off by {rel} (seed {seed})"
        info["seeds"] = 20
        info["tensors"] = len(params)
        info["worst_rel_err"] = f"{worst:.2e}"


# ---------------------------------------------------------------------------
# 6. Every pyramid level learns something on the synthetic training split
# ---------------------------------------------------------------------------


def test_06_training_improves_every_level(trained):
    with criterion(6, "training-sanity") as info:
        drops = {}
        for name in sorted(trained.wf_history):
            history = trained.wf_history[name]
            assert not history.aborted, f"{name} training aborted"
            first = history.records[0].bpd
            best = min(record.bpd for record in history.records)
            drops[name] = (first - best) / abs(first)
        info.update({name: f"{drop:.0%}" for name, drop in sorted(drops.items())})
        info["seconds"] = f"{trained.wf_seconds:.0f}"
        for name, drop in drops.items():
            assert drop >= 0.10, f"{name} bpd dropped only {drop:.1%}"
        assert trained.wf_seconds < 1800.0


# ---------------------------------------------------------------------------
# 7. The pyramid model beats both references on the held-out split
# ---------------------------------------------------------------------------


def test_07_ood_detection_beats_references(ood_scores):
    with criterion(7, "ood-comparison") as info:
        wf_auc = auc(*ood_scores.wf)
        glow_auc = auc(*ood_scores.glow)
        magnitude_auc = auc(*ood_scores.magnitude)
        info["wf"] = f"{wf_auc:.4f}"
        info["glow"] = f"{glow_auc:.4f}"
        info["magnitude"] = f"{magnitude_auc:.4f}"
        assert wf_auc >= 0.85
        assert wf_auc > magnitude_auc
        assert wf_auc > glow_auc


# ---------------------------------------------------------------------------
# 8. Averaging degrades the magnitude baseline below its best single level
# ---------------------------------------------------------------------------


def test_08_averaged_magnitude_below_best_level(dataset32, ood_scores):
    with criterion(8, "baseline-averaging-degrades") as info:
        per_level = {}
        for level in range(1, 6):
            in_dist = [wavelet_magnitude_score(im, levels=[level]).score for im in dataset32.test_in]
            ood = [wavelet_magnitude_score(im, levels=[level]).score for im in dataset32.test_ood]
            per_level[level] = auc(in_dist, ood)
        averaged = auc(*ood_scores.magnitude)
        info.update({f"level{lvl}": f"{value:.3f}" for lvl, value in per_level.items()})
        info["averaged"] = f"{averaged:.3f}"
        assert averaged < max(per_level.values())


# ---------------------------------------------------------------------------
# 9. Coupling parameters scale linearly with flow depth
# ---------------------------------------------------------------------------


def test_09_parameter_count_scales_with_depth():
    with criterion(9, "parameter-scaling") as info:
        half = coupling_parameter_count(build_waveletflow(32, steps_per_level=16, hidden=16))
        full = coupling_parameter_count(build_waveletflow(32, steps_per_level=32, hidden=16))
        ratio = half / full
        info["ratio"] = f"{ratio:.4f}"
        info["params_k16"] = half
        assert 0.45 <= ratio <= 0.55


# ---------------------------------------------------------------------------
# 10. Three independent AUC computations agree exactly
# ---------------------------------------------------------------------------


def test_10_auc_implementations_agree():
    rng = np.random.default_rng(1010)
    with criterion(10, "auc-oracle") as info:
        worst = 0.0
        for trial in range(100):
            n0 = int(rng.integers(2, 40))
            n1 = int(rng.integers(2, 40))
            if trial % 2:  # alternate heavy-tie integer grids and continuous scores
                id_scores = rng.integers(0, 5, size=n0).astype(float)
                ood_scores = rng.integers(0, 5, size=n1).astype(float)
            else:
                id_scores = np.round(rng.normal(0, 1, size=n0), 1)
                ood_scores = np.round(rng.normal(0.5, 1, size=n1), 1)
            rank = auc(id_scores, ood_scores)
            brute = pairwise_auc(id_scores, ood_scores)
            area = trapezoid_area(roc_points(id_scores, ood_scores))
            worst = max(worst, abs(rank - brute), abs(rank - area))
        info["sets"] = 100
        info["max_gap"] = f"{worst:.1e}"
        assert worst < 1e-12


# ---------------------------------------------------------------------------
# 11. The seeded command-line pipeline is byte-reproducible
# ---------------------------------------------------------------------------

SMOKE_SYNTH = """
    [run]
    out = {out}
    [synth]
    image_size = 16
    train_in_dist = 50
    test_in_dist = 12
    test_ood = 12
    seed = 5
"""

SMOKE_TRAIN = """
    [run]
    out = {out}
    [train]
    dataset = {dataset}
    K = 2
    hidden = 8
    [training]
    learning_rate = 1e-3
    batch_size = 16
    max_epochs = 2
    augment = false
    seed = 0
"""


def _smoke_pipeline(root) -> bytes:
    root.mkdir()
    data, run, scores, metrics = root / "data", root / "run", root / "scores", root / "metrics"
    steps = [
        ("synth", SMOKE_SYNTH.format(out=data)),
        ("train", SMOKE_TRAIN.format(out=run, dataset=data)),
        (
            "score",
            f"[run]\nout = {scores}\n[score]\ndataset = {data}\ncheckpoint = {run / 'checkpoint.json'}\n",
        ),
        ("eval", f"[run]\nout = {metrics}\n[eval]\nscores = {scores / 'scores.csv'}\n"),
    ]
    for name, text in steps:
        config = root / f"{name}.ini"
        config.write_text(dedent(text))
        assert cli_main([name, "--config", str(config)]) == 0, f"{name} step failed"
    return (metrics / "metrics.json").read_bytes()


def test_11_pipeline_reproducibility(tmp_path):
    with criterion(11, "pipeline-reproducibility") as info:
        t0 = time.perf_counter()
        first = _smoke_pipeline(tmp_path / "a")
        second = _smoke_pipeline(tmp_path / "b")
        elapsed = time.perf_counter() - t0
        reported_auc = json.loads(first)["auc"]
        info["identical"] = first == second
        info["auc"] = f"{reported_auc:.3f}"
        info["seconds"] = f"{elapsed:.0f}"
        assert first == second
        assert 0.0 <= reported_auc <= 1.0
        assert elapsed < 180.0
