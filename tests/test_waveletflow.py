"""Pyramid-flow tests: factorized likelihood bookkeeping, scoring rules,
level independence, and coarse-to-fine sampling."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from helpers import finite_diff_grad, held_bytes
from waveflow import autodiff as ad
from waveflow.evaluate import wavelet_magnitude_score
from waveflow.flows import build_glow
from waveflow.haar import build_pyramid
from waveflow.train import TrainConfig, train
from waveflow.waveletflow import GaussianBase, build_waveletflow

LOG_2PI = math.log(2.0 * math.pi)


# Both model families score a (N,1,S,S) batch with score_batch; the
# scoring tests run each check on one model of each.
SCORERS = {
    "waveletflow": lambda size, seed=0: build_waveletflow(
        image_size=size, steps_per_level=2, hidden=6, seed=seed
    ),
    "glow": lambda size, seed=0: build_glow(K=2, L=2, in_channels=1, image_size=size, hidden=6, seed=seed),
}

# Each family's single-image score, and its report's levels at 16 px:
# (every level in per_level, scoring_levels).  A pixel flow has none.
SINGLE_SCORE = {
    "waveletflow": lambda model, image: model.score(image).score,
    "glow": lambda model, image: model.log_density(image).bits_per_dim,
}
LEVELS_AT_16 = {"waveletflow": ((0, 1, 2, 3, 4), (3, 4)), "glow": ((), ())}


def stdnormal_bpd(x: np.ndarray) -> float:
    nll = 0.5 * np.sum(x * x) + 0.5 * LOG_2PI * x.size
    return float(nll / (x.size * math.log(2.0)))


class TestConstruction:
    def test_level_layout_for_size_32(self):
        model = build_waveletflow(image_size=32, steps_per_level=1, hidden=4)
        assert sorted(model.level_flows) == [1, 2, 3, 4, 5]
        assert [model.level_flows[level].input_shape[1:] for level in [1, 2, 3, 4, 5]] == [
            (size, size) for size in [1, 2, 4, 8, 16]
        ]
        assert model.scoring_levels() == (3, 4, 5)
        for flow in model.level_flows.values():
            assert flow.architecture["L"] == 1
            assert flow.cond_channels == 1
            assert flow.input_shape[0] == 3

    def test_per_level_step_counts(self):
        model = build_waveletflow(image_size=8, steps_per_level={1: 1, 2: 3, 3: 2}, hidden=4)
        assert model.level_flows[2].architecture["K"] == 3

    def test_missing_level_in_step_map_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            build_waveletflow(image_size=8, steps_per_level={1: 1}, hidden=4)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_waveletflow(image_size=24, hidden=4)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_waveletflow(image_size=2, hidden=4)


class TestLikelihood:
    def test_fresh_level_flows_give_standard_normal_nll(self):
        model = build_waveletflow(image_size=16, steps_per_level=2, hidden=4)
        rng = np.random.default_rng(0)
        image = rng.random((1, 16, 16))
        pyramid = build_pyramid(image)
        for level in pyramid.levels:
            flow = model.level_flows[level.level_index]
            got = flow.log_density(level.detail, level.low)
            np.testing.assert_allclose(got.bits_per_dim, stdnormal_bpd(level.detail), rtol=1e-12)

    def test_fresh_base_is_standard_normal(self):
        base = GaussianBase()
        x = np.array([[[[0.7]]]])
        got = base.log_prob_graph(x).item()
        np.testing.assert_allclose(got, -0.5 * 0.49 - 0.5 * LOG_2PI, rtol=1e-12)

    def test_base_batched_matches_single(self):
        base = GaussianBase()
        base.mean.data[...] = 0.3
        base.log_std.data[...] = -0.2
        xs = np.random.default_rng(1).random((5, 1, 1, 1))
        batched = base.log_prob_graph(xs).data
        singles = np.array([base.log_prob_graph(xs[n : n + 1]).item() for n in range(len(xs))])
        np.testing.assert_allclose(batched, singles, atol=1e-12)
        assert batched.shape == (5,)

    def test_unknown_level_rejected(self):
        model = build_waveletflow(image_size=8, steps_per_level=1, hidden=4)
        with pytest.raises(ValueError, match="unknown level"):
            train(model, np.zeros((1, 1, 8, 8)), TrainConfig(), levels=[9])


class TestScoring:
    def test_score_is_mean_over_scoring_levels(self):
        model = build_waveletflow(image_size=16, steps_per_level=1, hidden=4)
        image = np.random.default_rng(2).random((1, 16, 16))
        report = model.score(image)
        assert report.scoring_levels == (3, 4)
        expected = np.mean([report.per_level[3], report.per_level[4]])
        np.testing.assert_allclose(report.score, expected, rtol=1e-12)
        # every level plus the base stays in the report for diagnostics
        assert sorted(report.per_level) == [0, 1, 2, 3, 4]

    def test_scorer_consumes_exactly_the_pyramid_coefficients(self):
        model = build_waveletflow(image_size=16, steps_per_level=1, hidden=4)
        image = np.random.default_rng(3).random((1, 16, 16))
        inputs = model.component_inputs(image[None])
        pyramid = build_pyramid(image)

        def digest(arr):
            return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()

        base_value, no_cond = inputs["base"]
        assert digest(base_value) == digest(pyramid.base)
        assert no_cond is None
        for level in pyramid.levels:
            detail, low = inputs[f"level{level.level_index}"]
            assert digest(detail) == digest(level.detail)
            assert digest(low) == digest(level.low)

    def test_out_of_range_image_rejected(self):
        for build in SCORERS.values():
            for value in (-0.5, 1.5):
                with pytest.raises(ValueError, match=r"\[0, 1\]"):
                    build(8).score_batch(np.full((1, 1, 8, 8), value))

    def test_wrong_size_rejected(self):
        for build in SCORERS.values():
            with pytest.raises(ValueError, match="shape"):
                build(8).score_batch(np.zeros((1, 1, 16, 16)))

    def test_size_4_has_no_scoring_level(self):
        model = build_waveletflow(image_size=4, steps_per_level=1, hidden=4)
        with pytest.raises(ValueError, match="too small"):
            model.score(np.zeros((1, 4, 4)))

    def test_score_batch_equals_per_image_score(self):
        for family, build in SCORERS.items():
            model = build(16, seed=3)
            rng = np.random.default_rng(11)
            for p in model.parameters():
                p.data += rng.normal(0.0, 0.05, size=p.data.shape)
            images = rng.random((5, 1, 16, 16))
            reports = model.score_batch(images)
            assert len(reports) == 5
            for image, report in zip(images, reports):
                single = model.score_batch(image[None])[0]
                assert report.score == single.score == SINGLE_SCORE[family](model, image)
                assert report.per_level == single.per_level
                assert report.scoring_levels == single.scoring_levels
                assert (tuple(sorted(report.per_level)), report.scoring_levels) == LEVELS_AT_16[family]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected_before_any_layer(self, bad):
        images = np.full((2, 1, 8, 8), 0.5)
        images[1, 0, 3, 4] = bad
        for family, build in SCORERS.items():
            model = build(8)
            with pytest.raises(ValueError, match="non-finite"):
                model.score_batch(images)
            with pytest.raises(ValueError, match="non-finite"):
                SINGLE_SCORE[family](model, images[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 1.5])
    def test_bad_image_rejected_by_every_detector(self, bad):
        # One bad pixel, and a constant image of the bad value.
        one_pixel = np.full((1, 8, 8), 0.5)
        one_pixel[0, 3, 4] = bad
        for image in (one_pixel, np.full((1, 8, 8), bad)):
            for build in SCORERS.values():
                with pytest.raises(ValueError, match=r"non-finite|\[0, 1\]"):
                    build(8).score_batch(image[None])
            with pytest.raises(ValueError, match=r"non-finite|\[0, 1\]"):
                wavelet_magnitude_score(image)

    def test_wrong_batch_rank_rejected(self):
        for build in SCORERS.values():
            with pytest.raises(ValueError, match="shape"):
                build(8).score_batch(np.zeros((1, 8, 8)))

    def test_gradients_match_finite_differences_after_scoring(self):
        model = build_waveletflow(image_size=8, steps_per_level=1, hidden=4, seed=5)
        rng = np.random.default_rng(12)
        for p in model.parameters():
            p.data[...] = rng.normal(0.0, 0.1, size=p.data.shape)
        image = rng.random((1, 8, 8))
        model.score(image)
        inputs = model.component_inputs(image[None])
        flow = model.level_flows[3]

        def loss_graph():
            lp = ad.add(model.base.log_prob_graph(*inputs["base"]), flow.log_prob_graph(*inputs["level3"]))
            return ad.affine(ad.reduce_sum(lp), -1.0)

        params = model.base.parameters() + flow.parameters()
        loss_graph().backward()
        numeric = finite_diff_grad(lambda: loss_graph().item(), params)
        for p, want in zip(params, numeric):
            rel = float(np.max(np.abs(p.grad - want))) / max(float(np.max(np.abs(want))), 1e-6)
            assert rel < 1e-3, f"{p.name} gradient off by {rel}"

    def test_graph_free_forward_keeps_no_memory(self, monkeypatch):
        # A level-5 pass over 8 images at 32 px, hidden 24: with the graph,
        # every intermediate (each conv's output too, but no im2col
        # columns) stays alive as long as the result does.
        model = build_waveletflow(image_size=32, steps_per_level=2, hidden=24)
        detail, low = model.component_inputs(np.random.default_rng(13).random((8, 1, 32, 32)))["level5"]
        flow = model.level_flows[5]
        shapes = []
        conv2d = ad.conv2d

        def recorded(x, weight, bias):
            out = conv2d(x, weight, bias)
            shapes.append((x.shape, out.shape))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(ad, "conv2d", recorded)
            flow.log_prob_graph(detail, low)
        outputs = sum(8 * math.prod(out) for _, out in shapes)
        columns = sum(8 * 9 * math.prod(x) for x, _ in shapes)

        def graph_free():
            with ad.no_grad():
                return flow.log_prob_graph(detail, low)

        with_graph = held_bytes(lambda: flow.log_prob_graph(detail, low))
        assert outputs < with_graph < columns
        assert held_bytes(graph_free) < 0.01 * with_graph


class TestComponents:
    def test_pyramid_components_in_training_order(self):
        model = build_waveletflow(image_size=8, steps_per_level=1, hidden=4)
        parts = model.components()
        assert list(parts) == ["base", "level1", "level2", "level3"]
        assert parts["base"] is model.base
        for level in (1, 2, 3):
            assert parts[f"level{level}"] is model.level_flows[level]
        assert set(model.component_inputs(np.zeros((2, 1, 8, 8)))) == set(parts)

    def test_glow_is_one_component(self):
        model = build_glow(K=1, L=2, in_channels=1, image_size=8, hidden=4)
        assert list(model.components()) == ["flow"]
        assert model.components()["flow"] is model
        images = np.zeros((2, 1, 8, 8))
        x, cond = model.component_inputs(images)["flow"]
        assert x is images and cond is None

    def test_parameters_concatenate_components(self):
        for model in (
            build_waveletflow(image_size=8, steps_per_level=1, hidden=4),
            build_glow(K=1, L=2, in_channels=1, image_size=8, hidden=4),
        ):
            expected = [p for part in model.components().values() for p in part.parameters()]
            assert [id(p) for p in model.parameters()] == [id(p) for p in expected]

    def test_base_has_the_component_surface(self):
        base = GaussianBase()
        assert base.input_shape == (1, 1, 1)
        assert base.actnorm_layers() == []
        base.initialize_actnorm(np.zeros((2, 1, 1, 1)))
        x = np.full((2, 1, 1, 1), 0.7)
        assert np.array_equal(base.log_prob_graph(x, None).data, base.log_prob_graph(x).data)


class TestIndependence:
    def test_level_parameters_are_disjoint(self):
        model = build_waveletflow(image_size=16, steps_per_level=1, hidden=4)
        seen: set[int] = set()
        for level, flow in model.level_flows.items():
            ids = {id(p) for p in flow.parameters()}
            assert not ids & seen
            seen |= ids

    def test_perturbing_one_level_leaves_others_unchanged(self):
        model = build_waveletflow(image_size=16, steps_per_level=1, hidden=4)
        image = np.random.default_rng(4).random((1, 16, 16))
        before = model.score(image).per_level
        for p in model.level_flows[4].parameters():
            p.data += 0.05
        after = model.score(image).per_level
        assert after[4] != before[4]
        for level in (0, 1, 2, 3):
            assert after[level] == before[level]  # bit-identical


class TestSampling:
    def test_sample_shape_and_range(self):
        model = build_waveletflow(image_size=16, steps_per_level=1, hidden=4)
        x = model.sample(np.random.default_rng(5))
        assert x.shape == (1, 16, 16)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_sample_scores_finite(self):
        model = build_waveletflow(image_size=16, steps_per_level=1, hidden=4)
        x = model.sample(np.random.default_rng(6), temperature=0.8)
        report = model.score(x)
        assert np.isfinite(report.score)

    def test_tiny_temperature_yields_constant_upsampled_base(self):
        model = build_waveletflow(image_size=8, steps_per_level=1, hidden=4)
        model.base.mean.data[...] = 0.5  # keep the residue inside [0,1]
        x = model.sample(np.random.default_rng(7), temperature=1e-12)
        # identity flows and near-zero latents: every pixel is base / 2^depth
        np.testing.assert_allclose(x, 0.5 / 8.0, atol=1e-9)

    def test_non_positive_temperature_rejected(self):
        model = build_waveletflow(image_size=8, steps_per_level=1, hidden=4)
        with pytest.raises(ValueError, match="temperature"):
            model.sample(np.random.default_rng(8), temperature=-1.0)
