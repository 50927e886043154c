import dataclasses
import importlib
import itertools
import math
import multiprocessing
import re
import tempfile

import numpy as np
import pytest

import waveflow.autodiff as ad
from waveflow.flows import FlowNumericsError, build_glow
from waveflow.train import (
    AugmentConfig,
    EarlyStopper,
    TrainConfig,
    _bins,
    _openblas,
    _train_component,
    augment,
    dequantize,
    sample_augment_params,
    train,
)
from waveflow.waveletflow import build_waveletflow

from helpers import FaultyBase, digest

IDENTITY_AUG = AugmentConfig(
    rotation=(0.0, 0.0), translation=(0.0, 0.0), scaling=(1.0, 1.0), shear=(0.0, 0.0)
)


def make_blobs(n, size, seed):
    """Soft blobs on a dim background with mild pixel noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    images = []
    for _ in range(n):
        cy, cx = rng.uniform(size * 0.3, size * 0.7, 2)
        r = rng.uniform(size * 0.15, size * 0.3)
        blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
        img = 0.2 + 0.6 * blob + rng.normal(0.0, 0.02, (size, size))
        images.append(np.clip(img, 0.0, 1.0)[None])
    return np.stack(images)


class TestAugment:
    def test_identity_config_returns_input_exactly(self):
        rng = np.random.default_rng(0)
        img = rng.random((1, 8, 8))
        out = augment(img, np.random.default_rng(1), IDENTITY_AUG)
        assert np.array_equal(out, img)

    def test_half_turn_flips_both_axes(self):
        cfg = dataclasses.replace(IDENTITY_AUG, rotation=(180.0, 180.0))
        img = np.random.default_rng(2).random((1, 6, 6))
        out = augment(img, np.random.default_rng(3), cfg)
        assert np.allclose(out, img[:, ::-1, ::-1], atol=1e-12)

    def test_pure_translation_shifts_pixels(self):
        cfg = dataclasses.replace(IDENTITY_AUG, translation=(0.25, 0.25))
        img = np.zeros((1, 8, 8))
        img[0, 3, 3] = 1.0
        out = augment(img, np.random.default_rng(0), cfg)
        assert out[0, 5, 5] == 1.0
        assert out.sum() == 1.0

    def test_constant_image_is_invariant(self):
        img = np.full((1, 8, 8), 0.37)
        out = augment(img, np.random.default_rng(5), AugmentConfig())
        assert np.allclose(out, 0.37, atol=1e-12)

    def test_params_respect_ranges(self):
        cfg = AugmentConfig()
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = sample_augment_params(rng, cfg)
            assert cfg.rotation[0] <= p["rotation_deg"] <= cfg.rotation[1]
            assert cfg.translation[0] <= p["translate_x"] <= cfg.translation[1]
            assert cfg.translation[0] <= p["translate_y"] <= cfg.translation[1]
            assert cfg.scaling[0] <= p["scale"] <= cfg.scaling[1]
            assert cfg.shear[0] <= p["shear_x_deg"] <= cfg.shear[1]
            assert cfg.shear[0] <= p["shear_y_deg"] <= cfg.shear[1]

    def test_output_stays_in_unit_range_and_keeps_mean(self):
        img = make_blobs(1, 16, seed=7)[0]
        rng = np.random.default_rng(13)
        means = []
        for _ in range(50):
            out = augment(img, rng, AugmentConfig())
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0
            means.append(out.mean())
        assert abs(np.mean(means) - img.mean()) < 0.15

    def test_two_dim_input_rejected(self):
        with pytest.raises(ValueError, match=r"\(C,H,W\)"):
            augment(np.zeros((8, 8)), np.random.default_rng(0), IDENTITY_AUG)

    def test_zero_scale_rejected(self):
        cfg = dataclasses.replace(IDENTITY_AUG, scaling=(0.0, 0.0))
        with pytest.raises(ValueError, match="singular"):
            augment(np.zeros((1, 4, 4)), np.random.default_rng(0), cfg)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="rotation"):
            AugmentConfig(rotation=(10.0, -10.0)).validate()


class TestDequantize:
    def test_levels_land_in_their_bins(self):
        ks = np.arange(256)
        img = (ks / 255.0).reshape(1, 16, 16)
        out = dequantize(img, np.random.default_rng(0))
        flat = out.ravel()
        assert np.all(flat >= ks / 256.0)
        assert np.all(flat < (ks + 1) / 256.0)

    def test_noise_is_uniform_within_a_bin(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(21)
        img = np.full((1, 1, 1), 100 / 255.0)
        draws = np.array([dequantize(img, rng)[0, 0, 0] for _ in range(2000)])
        unit = (draws - 100 / 256.0) * 256.0
        counts, _ = np.histogram(unit, bins=8, range=(0.0, 1.0))
        assert scipy_stats.chisquare(counts).pvalue > 1e-4

    def test_preserves_ordering(self):
        img = np.sort(np.random.default_rng(3).integers(0, 256, 64)) / 255.0
        out = dequantize(img.reshape(1, 8, 8), np.random.default_rng(9)).ravel()
        assert np.all(np.diff(out)[np.diff(img) > 0] > 0)


class TestEarlyStopper:
    def test_ties_do_not_count_as_improvement(self):
        stopper = EarlyStopper(patience=10)
        assert stopper.update(0, 5.0) == (True, False)
        assert stopper.update(1, 4.9) == (True, False)
        for epoch in range(2, 11):
            assert stopper.update(epoch, 4.9) == (False, False)
        assert stopper.update(11, 4.9) == (False, True)
        assert stopper.best_epoch == 1
        assert stopper.best == 4.9

    def test_counter_resets_on_improvement(self):
        stopper = EarlyStopper(patience=2)
        stopper.update(0, 3.0)
        stopper.update(1, 3.5)
        improved, stop = stopper.update(2, 2.0)
        assert improved and not stop
        assert stopper.bad == 0


class TestConfigValidation:
    def test_bad_learning_rate(self):
        for rate in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate).validate()

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0).validate()

    def test_bad_image_shapes(self):
        model = build_glow(K=1, L=2, in_channels=1, image_size=8, hidden=4)
        cfg = TrainConfig(max_epochs=1)
        with pytest.raises(ValueError, match="N,1,S,S"):
            train(model, np.zeros((4, 8, 8)), cfg)
        with pytest.raises(ValueError, match="empty"):
            train(model, np.zeros((0, 1, 8, 8)), cfg)


class StubPart:
    """A one-parameter component over (1,2,2) inputs whose log-density is
    a given function of the batch."""

    input_shape = (1, 2, 2)

    def __init__(self, log_prob, param):
        self.log_prob = log_prob
        self.param = param

    def parameters(self):
        return [self.param]

    def initialize_actnorm(self, x, cond):
        pass

    def log_prob_graph(self, x, cond=None):
        return self.log_prob(x, cond)


def monitoring() -> bool:
    """True inside the monitored clean-set pass, which runs under ``ad.no_grad``
    in chunks of ``batch_size``; a training step runs with the graph on."""
    return not ad._grad_mode.enabled


class TestComponentLoop:
    def _run(self, log_prob, param, n_images=8):
        images = np.zeros((n_images, 1, 2, 2))
        cfg = TrainConfig(max_epochs=5, batch_size=4, augment=None, seed=3)
        return _train_component(
            StubPart(log_prob, param),
            inputs=lambda imgs: (imgs, None),
            images=images,
            clean=(images, None),
            config=cfg,
            rng=np.random.default_rng(0),
        )

    def test_abort_on_non_finite_loss(self):
        steps = {"n": 0}
        param = ad.Parameter("w", np.array([1.5]))

        def log_prob(x, cond):
            if monitoring():
                return ad.Tensor(np.full(len(x), -1.0))
            steps["n"] += 1
            return ad.Tensor(np.full(len(x), np.nan))

        history = self._run(log_prob, param)
        assert history.aborted
        assert history.best_epoch == 0
        assert len(history.records) == 1
        assert param.data[0] == 1.5  # snapshot of the best (initial) state restored
        # the NaN came from the first training step, not the monitored NLL
        assert steps["n"] == 1
        assert history.records[0].nll == 1.0

    def test_abort_on_numerics_error(self):
        param = ad.Parameter("w", np.array([2.5]))

        def log_prob(x, cond):
            if not monitoring():  # every training step
                raise FlowNumericsError(7)
            return ad.Tensor(np.full(len(x), -1.0))

        history = self._run(log_prob, param)
        assert history.aborted
        assert len(history.records) == 1
        assert param.data[0] == 2.5

    def test_abort_on_numerics_error_in_monitored_nll(self):
        clean_passes = {"n": 0}
        monitored = {"images": 0}
        param = ad.Parameter("w", np.array([3.5]))

        def log_prob(x, cond):
            if monitoring():  # a chunk of the clean set; a pass covers all 8 images
                if monitored["images"] % 8 == 0:
                    clean_passes["n"] += 1
                monitored["images"] += len(x)
                if clean_passes["n"] == 2:
                    raise FlowNumericsError(3)
            return ad.mul(ad.Tensor(np.full(len(x), -1.0)), param)

        history = self._run(log_prob, param)
        assert clean_passes["n"] == 2
        assert history.aborted
        assert history.best_epoch == 0
        assert len(history.records) == 1
        assert param.data[0] == 3.5  # the epoch's steps are undone

    def test_abort_on_non_finite_epoch_zero_nll(self):
        steps = {"n": 0}
        param = ad.Parameter("w", np.array([4.5]))

        def log_prob(x, cond):
            if monitoring():
                return ad.Tensor(np.full(len(x), np.nan))
            steps["n"] += 1
            return ad.mul(ad.Tensor(np.full(len(x), -1.0)), param)

        history = self._run(log_prob, param)
        assert history.aborted
        assert history.best_epoch == 0
        assert [r.epoch for r in history.records] == [0]
        assert math.isnan(history.records[0].nll)
        assert steps["n"] == 0  # no optimizer step was taken
        assert param.data[0] == 4.5

    def test_abort_on_numerics_error_at_epoch_zero(self):
        steps = {"n": 0}
        param = ad.Parameter("w", np.array([5.5]))

        def log_prob(x, cond):
            if monitoring():
                raise FlowNumericsError(0)
            steps["n"] += 1
            return ad.mul(ad.Tensor(np.full(len(x), -1.0)), param)

        history = self._run(log_prob, param)
        assert history.aborted
        assert history.best_epoch == 0
        assert history.records == []  # epoch 0's NLL was never measured
        assert steps["n"] == 0
        assert param.data[0] == 5.5

    def test_epoch_zero_is_pre_training(self):
        calls = []
        param = ad.Parameter("w", np.array([0.0]))

        def log_prob(x, cond):
            calls.append((monitoring(), len(x)))
            return ad.Tensor(np.full(len(x), -2.0))

        history = self._run(log_prob, param)
        # the first calls are the monitored pass over the whole clean set, in
        # batch-sized chunks; the training batches follow
        first_pass = list(itertools.takewhile(lambda call: call[0], calls))
        assert [n for _, n in first_pass] == [4, 4]
        assert calls[len(first_pass)] == (False, 4)
        assert history.records[0].epoch == 0
        assert history.records[0].nll == 2.0
        assert history.records[0].bpd == pytest.approx(2.0 / (4 * math.log(2)))


class TestTrainingBits:
    """Bit-exact pins of a short training run with augmentation and
    dequantization on: every parameter after the best epochs are restored
    and every component's (epoch, nll) records, as SHA-256 of the float64
    bytes.  A reordered random draw, op or snapshot changes a digest; at
    this learning rate level2's best epoch is 1, so the restore is pinned
    too."""

    BUILDS = {
        "waveletflow": lambda: build_waveletflow(8, steps_per_level=1, hidden=8, seed=1),
        "glow": lambda: build_glow(K=1, L=2, in_channels=1, image_size=8, hidden=8, seed=1),
    }
    PINNED = {
        "waveletflow": (
            "85be1b078ab321396aa528f795755f2f341f04c76cf636c13852bcbdebeda8d5",
            "c41ee46b747ddddf405c1505c4dc12a1769a3d5c666d0996db532974d12d4ccc",
            {"base": 2, "level1": 2, "level2": 1, "level3": 2},
        ),
        "glow": (
            "dfe148b8d5b6e17177d6702703de7e97eb13d563c4c65639d484067e711ce172",
            "950b97b129d0d5789c2075a3d0fd96ffb938fcd91c483f434297619d213594ef",
            {"flow": 2},
        ),
    }

    # One worker keeps the plain family ids; two train in a spawned worker too.
    @pytest.mark.parametrize(
        "family, workers",
        [pytest.param(family, workers, id=family + ("" if workers == 1 else "-2workers"))
         for family in sorted(BUILDS) for workers in (1, 2)],
    )
    def test_parameters_and_records_are_pinned(self, family, workers):
        model = self.BUILDS[family]()
        cfg = TrainConfig(
            learning_rate=3e-2, batch_size=6, max_epochs=2, augment=AugmentConfig(), dequantize=True, seed=4
        )
        histories = train(model, make_blobs(12, 8, seed=5), cfg, workers=workers)
        params, records, best = self.PINNED[family]
        assert {name: h.best_epoch for name, h in histories.items()} == best
        assert not any(h.aborted for h in histories.values())
        assert digest(*[[(r.epoch, r.nll) for r in h.records] for h in histories.values()]) == records
        assert digest(*[p.data for p in model.parameters()]) == params


class TestMonitoredNll:
    @pytest.mark.parametrize("family", ["waveletflow", "glow"])
    def test_chunked_pass_equals_whole_set(self, family):
        # 10 images in chunks of 4: the last chunk is ragged.
        images = make_blobs(10, 16, seed=6)
        if family == "waveletflow":
            model = build_waveletflow(image_size=16, steps_per_level=2, hidden=6, seed=1)
            name = "level4"  # a conditional level flow on 8x8 details
        else:
            model = build_glow(K=2, L=2, in_channels=1, image_size=16, hidden=6, seed=1)
            name = "flow"
        part = model.components()[name]
        clean = model.component_inputs(images)[name]
        part.initialize_actnorm(*clean)
        rng = np.random.default_rng(2)
        for p in part.parameters():  # move off the identity initialization
            p.data += 0.05 * rng.standard_normal(p.data.shape)
        whole = -np.mean(part.log_prob_graph(*clean).data)
        history = _train_component(
            part,
            inputs=lambda batch: model.component_inputs(batch)[name],
            images=images,
            clean=clean,
            config=TrainConfig(batch_size=4, max_epochs=1, augment=None, seed=0),
            rng=np.random.default_rng(0),
        )
        assert history.records[0].nll == whole
        # the restored best parameters reproduce the best epoch's value
        best = history.records[history.best_epoch].nll
        assert -np.mean(part.log_prob_graph(*clean).data) == best


class TestGlowTraining:
    def test_loss_improves_and_best_is_restored(self):
        images = make_blobs(16, 8, seed=0)
        model = build_glow(K=2, L=2, in_channels=1, image_size=8, hidden=8, seed=0)
        identity_bpd = np.mean(
            [model.log_density(img).bits_per_dim for img in images]
        )
        cfg = TrainConfig(
            learning_rate=1e-3, batch_size=8, max_epochs=3, augment=None, seed=5
        )
        history = train(model, images, cfg)["flow"]
        assert history.records[0].epoch == 0
        assert history.records[0].bpd == pytest.approx(identity_bpd, abs=1e-9)
        assert not history.aborted
        best = min(r.nll for r in history.records)
        assert best < history.records[0].nll
        # restored parameters reproduce the best monitored value
        now = -np.mean(
            [model.log_density(img).log_likelihood for img in images]
        )
        assert now == pytest.approx(best, abs=1e-9)

    def test_levels_rejected_for_a_pixel_flow(self):
        model = build_glow(K=1, L=2, in_channels=1, image_size=8, hidden=4)
        with pytest.raises(ValueError, match="unknown level"):
            train(model, make_blobs(4, 8, seed=3), TrainConfig(max_epochs=1), levels=[0])

    def test_actnorm_initialized_during_first_batch(self):
        images = make_blobs(8, 8, seed=1)
        model = build_glow(K=1, L=2, in_channels=1, image_size=8, hidden=4, seed=0)
        assert not any(layer.initialized for layer in model.actnorm_layers())
        train(model, images, TrainConfig(batch_size=8, max_epochs=1, augment=None))
        assert all(layer.initialized for layer in model.actnorm_layers())


class TestWaveletTraining:
    @staticmethod
    def _config(**kw):
        base = dict(learning_rate=1e-3, batch_size=6, max_epochs=2, seed=9)
        base.update(kw)
        return TrainConfig(**base)

    def test_every_component_gets_a_history(self):
        images = make_blobs(12, 8, seed=2)
        model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=1)
        histories = train(model, images, self._config())
        assert set(histories) == {"base", "level1", "level2", "level3"}
        for history in histories.values():
            assert history.records[0].epoch == 0
            assert all(np.isfinite(r.nll) for r in history.records)

    def test_level_subset_trains_only_those_parameters(self):
        images = make_blobs(12, 8, seed=2)
        model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=1)
        before = {
            name: [p.data.copy() for p in flow.parameters()]
            for name, flow in [("level1", model.level_flows[1]), ("base", model.base)]
        }
        histories = train(model, images, self._config(), levels=[3])
        assert set(histories) == {"level3"}
        for p, old in zip(model.level_flows[1].parameters(), before["level1"]):
            assert np.array_equal(p.data, old)
        for p, old in zip(model.base.parameters(), before["base"]):
            assert np.array_equal(p.data, old)

    def test_components_are_independent_of_training_order(self):
        # level 3 alone must replay exactly the same stream as in a full run
        images = make_blobs(12, 8, seed=2)
        full_model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=1)
        solo_model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=1)
        full = train(full_model, images, self._config())["level3"]
        solo = train(solo_model, images, self._config(), levels=[3])["level3"]
        assert [(r.epoch, r.nll, r.bpd) for r in full.records] == [
            (r.epoch, r.nll, r.bpd) for r in solo.records
        ]
        for p, q in zip(
            full_model.level_flows[3].parameters(),
            solo_model.level_flows[3].parameters(),
        ):
            assert np.array_equal(p.data, q.data)

    def test_repeat_runs_are_bit_identical(self):
        images = make_blobs(10, 8, seed=4)
        outs = []
        for _ in range(2):
            model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=2)
            histories = train(model, images, self._config(max_epochs=2))
            outs.append(
                (
                    {
                        k: [(r.epoch, r.nll, r.bpd) for r in h.records]
                        for k, h in histories.items()
                    },
                    [p.data.copy() for p in model.parameters()],
                )
            )
        assert outs[0][0] == outs[1][0]
        for a, b in zip(outs[0][1], outs[1][1]):
            assert np.array_equal(a, b)

    def test_unknown_level_rejected(self):
        images = make_blobs(4, 8, seed=3)
        model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=1)
        with pytest.raises(ValueError, match="unknown level"):
            train(model, images, self._config(), levels=[9])

    @pytest.mark.parametrize("bad", [math.nan, 1.5], ids=["nan", "above-one"])
    def test_images_score_batch_rejects_are_rejected_before_training(self, bad, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a component trained")

        # The package's ``train`` attribute is the function, so fetch the module.
        monkeypatch.setattr(importlib.import_module("waveflow.train"), "_train_component", no_training)
        images = make_blobs(4, 8, seed=3)
        images[1, 0, 2, 5] = bad
        model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=1)
        with pytest.raises(ValueError, match="non-finite|lie in"):
            train(model, images, self._config())
        with pytest.raises(ValueError, match="non-finite|lie in"):
            model.score_batch(images)

    def test_wrong_image_size_rejected(self):
        model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=1)
        with pytest.raises(ValueError, match="expects 8"):
            train(model, make_blobs(4, 16, seed=3), self._config())


class TestWorkers:
    """``train(..., workers=n)``: every bin but the heaviest trains in a
    spawned process, with the serial run's result."""

    CONFIG = TrainConfig(learning_rate=1e-3, batch_size=6, max_epochs=1, seed=9)

    def test_bins_are_longest_first(self):
        parts = build_waveletflow(32, steps_per_level=1, hidden=2).components()
        assert _bins(parts, 1) == [list(parts)[::-1]]
        assert _bins(parts, 2) == [["level5"], ["level4", "level3", "level2", "level1", "base"]]
        assert _bins(parts, 3) == [["level5"], ["level4"], ["level3", "level2", "level1", "base"]]
        assert len(_bins(parts, 64)) == len(parts)

    def test_one_component_trains_in_the_caller(self, monkeypatch):
        def no_processes(*args, **kwargs):
            raise AssertionError("a worker process started")

        monkeypatch.setattr(importlib.import_module("waveflow.train"), "_train_in_processes", no_processes)
        model = build_glow(K=1, L=2, in_channels=1, image_size=8, hidden=4)
        assert list(train(model, make_blobs(6, 8, seed=1), self.CONFIG, workers=4)) == ["flow"]

    def test_bad_worker_count_rejected(self):
        model = build_waveletflow(8, steps_per_level=1, hidden=4)
        with pytest.raises(ValueError, match="workers"):
            train(model, make_blobs(4, 8, seed=1), self.CONFIG, workers=0)

    def test_actnorm_state_survives_the_worker(self):
        # Constant images have zero-variance details at every level, so each
        # level's actnorm layers warn; level1 and level2 train in the worker.
        images = np.full((6, 1, 8, 8), 0.5)
        config = dataclasses.replace(self.CONFIG, augment=None, dequantize=False)
        states = []
        for workers in (1, 2):
            model = build_waveletflow(8, steps_per_level=1, hidden=4, seed=1)
            train(model, images, config, workers=workers)
            layers = [layer for part in model.components().values() for layer in part.actnorm_layers()]
            states.append([(layer.initialized, layer.warnings) for layer in layers])
        assert all(warnings for _, warnings in states[0]) and all(flag for flag, _ in states[0])
        assert states[1] == states[0]

    @pytest.mark.parametrize(
        "base, error, message",
        [
            (FaultyBase(exit_code=3), ChildProcessError, "training worker for .*base exited with code 3"),
            (FaultyBase(), LookupError, "the faulty base failed"),
            (FaultyBase(input_shape=(1, 64, 64)), LookupError, "the faulty base failed"),
        ],
        ids=["worker-exits", "worker-raises", "caller-raises"],
    )
    def test_failure_leaves_nothing_behind(self, base, error, message, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        model = build_waveletflow(8, steps_per_level=1, hidden=4, seed=1)
        model.base = base
        with pytest.raises(error) as err:
            train(model, make_blobs(6, 8, seed=1), self.CONFIG, workers=2)
        assert re.fullmatch(message, str(err.value))  # the message alone, without the worker's traceback note
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(_openblas() is None, reason="no OpenBLAS bundled with numpy")
    def test_blas_thread_count_is_restored(self):
        get, set_ = _openblas()
        initial = get()
        set_(2)  # a count other than the one the caller's bin trains at
        try:
            train(build_waveletflow(8, steps_per_level=1, hidden=4), make_blobs(6, 8, seed=1), self.CONFIG, workers=2)
            assert get() == 2
            model = build_waveletflow(8, steps_per_level=1, hidden=4)
            model.base = FaultyBase(input_shape=(1, 64, 64))  # fails in the caller, on one BLAS thread
            with pytest.raises(LookupError):
                train(model, make_blobs(6, 8, seed=1), self.CONFIG, workers=2)
            assert get() == 2
        finally:
            set_(initial)
