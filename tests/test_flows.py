"""Flow tests: identity at init, exact bijectivity, log-determinants
against a numerical Jacobian, conditioning, and sampling."""
from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from waveflow import autodiff as ad
from waveflow.flows import (
    ActNorm,
    AffineCoupling,
    FlowModel,
    FlowNumericsError,
    build_glow,
    coupling_parameter_count,
)
from waveflow.masks import make_mask

from helpers import numeric_logabsdet, randomize

LOG_2PI = math.log(2.0 * math.pi)


def stdnormal_logp(x: np.ndarray) -> float:
    return float(-0.5 * np.sum(x * x) - 0.5 * LOG_2PI * x.size)


def flatten_latents(model: FlowModel, x: np.ndarray, cond=None) -> np.ndarray:
    latents, _ = model.forward_latents(x, cond)
    return np.concatenate([z.data.reshape(-1) for z in latents])


class TestIdentityAtInit:
    def test_fresh_model_is_standard_normal_density(self):
        model = build_glow(K=3, L=1, in_channels=2, image_size=4, mask_strategy="channel-half")
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 4))
        got = model.log_density(x)
        np.testing.assert_allclose(got.log_likelihood, stdnormal_logp(x), rtol=1e-12)

    def test_fresh_multiscale_model_is_standard_normal_density(self):
        model = build_glow(K=2, L=2, in_channels=1, image_size=8, mask_strategy="checkerboard")
        x = np.random.default_rng(1).standard_normal((1, 8, 8))
        got = model.log_density(x)
        np.testing.assert_allclose(got.log_likelihood, stdnormal_logp(x), rtol=1e-12)

    def test_bits_per_dim_of_zero_vector(self):
        model = build_glow(K=1, L=1, in_channels=4, image_size=1, mask_strategy="channel-half")
        x = np.zeros((4, 1, 1))
        got = model.log_density(x)
        np.testing.assert_allclose(got.log_likelihood, -2.0 * LOG_2PI, rtol=1e-12)
        np.testing.assert_allclose(got.bits_per_dim, 0.5 * LOG_2PI / math.log(2.0), rtol=1e-12)


class TestCoupling:
    def test_zero_initialized_network_is_identity(self):
        rng = np.random.default_rng(2)
        mask = make_mask("checkerboard", 0, (2, 4, 4))
        layer = AffineCoupling(mask, cond_channels=0, hidden=8, rng=rng)
        x = rng.standard_normal((1, 2, 4, 4))
        z, logdet = layer.forward(ad.Tensor(x))
        np.testing.assert_allclose(z.data, x)
        np.testing.assert_allclose(logdet.data, 0.0)

    def test_passthrough_partition_unchanged(self):
        rng = np.random.default_rng(3)
        mask = make_mask("checkerboard", 1, (1, 4, 4))
        layer = AffineCoupling(mask, cond_channels=0, hidden=8, rng=rng)
        for p in layer.parameters():
            p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
        x = rng.standard_normal((1, 1, 4, 4))
        z, _ = layer.forward(ad.Tensor(x))
        keep = np.broadcast_to(mask.values == 1.0, x.shape)
        np.testing.assert_allclose(z.data[keep], x[keep])
        assert not np.allclose(z.data[~keep], x[~keep])

    def test_roundtrip_and_inverse_logdet(self):
        rng = np.random.default_rng(4)
        mask = make_mask("channel-half", 0, (4, 3, 3))
        layer = AffineCoupling(mask, cond_channels=0, hidden=8, rng=rng)
        for p in layer.parameters():
            p.data[...] = rng.normal(0.0, 0.4, size=p.data.shape)
        x = rng.standard_normal((1, 4, 3, 3))
        z, logdet = layer.forward(ad.Tensor(x))
        back, logdet_gen = layer.inverse(z.data)
        np.testing.assert_allclose(back, x, atol=1e-10)
        np.testing.assert_allclose(logdet_gen, -logdet.data, atol=1e-10)

    def test_scale_is_bounded_even_with_huge_weights(self):
        rng = np.random.default_rng(5)
        mask = make_mask("checkerboard", 0, (1, 4, 4))
        layer = AffineCoupling(mask, cond_channels=0, hidden=8, rng=rng)
        for p in layer.parameters():
            p.data[...] = 1e4
        x = rng.standard_normal((1, 1, 4, 4))
        s, _ = layer._scale_translation(ad.Tensor(x))
        assert np.all(np.abs(s.data) <= 2.0)
        z, logdet = layer.forward(ad.Tensor(x))
        assert np.all(np.isfinite(z.data)) and np.isfinite(logdet.data)

    def test_condition_changes_output(self):
        rng = np.random.default_rng(6)
        mask = make_mask("checkerboard", 0, (1, 4, 4))
        layer = AffineCoupling(mask, cond_channels=1, hidden=8, rng=rng)
        for p in layer.parameters():
            p.data[...] = rng.normal(0.0, 0.4, size=p.data.shape)
        x = rng.standard_normal((1, 1, 4, 4))
        z_a, _ = layer.forward(ad.Tensor(x), ad.Tensor(np.zeros((1, 1, 4, 4))))
        z_b, _ = layer.forward(ad.Tensor(x), ad.Tensor(np.ones((1, 1, 4, 4))))
        assert not np.allclose(z_a.data, z_b.data)

    def test_missing_condition_rejected(self):
        rng = np.random.default_rng(7)
        mask = make_mask("checkerboard", 0, (1, 4, 4))
        layer = AffineCoupling(mask, cond_channels=1, hidden=8, rng=rng)
        with pytest.raises(ValueError, match="condition"):
            layer.forward(ad.Tensor(np.zeros((1, 1, 4, 4))))


class TestActNorm:
    def test_initialization_whitens_the_init_batch(self):
        rng = np.random.default_rng(8)
        layer = ActNorm(3)
        batch = rng.normal(2.0, 3.0, size=(16, 3, 5, 5))
        layer.initialize(batch)
        z, _ = layer.forward(ad.Tensor(batch))
        np.testing.assert_allclose(z.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(z.data.var(axis=(0, 2, 3)), 1.0, atol=1e-6)

    def test_zero_variance_channel_clamped_with_warning(self):
        layer = ActNorm(2)
        batch = np.zeros((4, 2, 3, 3))
        batch[:, 0] = np.random.default_rng(9).standard_normal((4, 3, 3))
        batch[:, 1] = 7.0  # constant channel
        layer.initialize(batch)
        assert layer.scale.data[1] == 1.0
        assert any("zero variance" in w for w in layer.warnings)

    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        layer = ActNorm(2)
        layer.initialize(rng.standard_normal((8, 2, 4, 4)))
        x = rng.standard_normal((1, 2, 4, 4))
        z, logdet = layer.forward(ad.Tensor(x))
        back, logdet_gen = layer.inverse(z.data)
        np.testing.assert_allclose(back, x, atol=1e-12)
        np.testing.assert_allclose(logdet_gen, -logdet.data, atol=1e-12)


class TestBijectivity:
    @pytest.mark.parametrize("strategy", ["channel-half", "checkerboard", "cycle", "horizontal", "radial"])
    def test_glow_roundtrip_every_strategy(self, strategy):
        rng = np.random.default_rng(11)
        model = build_glow(K=2, L=2, in_channels=1, image_size=8, mask_strategy=strategy)
        randomize(model, rng)
        for _ in range(5):
            x = rng.standard_normal((1, 1, 8, 8))
            latents, _ = model.forward_latents(x)
            back, _ = model.inverse_from_latents([z.data for z in latents])
            np.testing.assert_allclose(back, x, atol=1e-8)

    def test_conditional_roundtrip(self):
        rng = np.random.default_rng(12)
        model = build_glow(
            K=3, L=1, in_channels=3, image_size=4, cond_channels=1, mask_strategy="channel-half"
        )
        randomize(model, rng)
        x = rng.standard_normal((1, 3, 4, 4))
        cond = rng.standard_normal((1, 1, 4, 4))
        latents, _ = model.forward_latents(x, cond)
        back, _ = model.inverse_from_latents([z.data for z in latents], cond)
        np.testing.assert_allclose(back, x, atol=1e-8)

    def test_conditional_multiscale_rejected(self):
        with pytest.raises(ValueError, match="single-scale"):
            build_glow(
                K=2, L=2, in_channels=1, image_size=8, cond_channels=1, mask_strategy="checkerboard"
            )


class TestLogDet:
    def test_coupling_logdet_matches_numeric_jacobian(self):
        rng = np.random.default_rng(14)
        mask = make_mask("checkerboard", 0, (1, 2, 2))
        layer = AffineCoupling(mask, cond_channels=0, hidden=6, rng=rng)
        for p in layer.parameters():
            p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
        x = rng.standard_normal((1, 1, 2, 2))

        def forward_flat(inp):
            z, _ = layer.forward(ad.Tensor(inp))
            return z.data.reshape(-1)

        _, logdet = layer.forward(ad.Tensor(x))
        np.testing.assert_allclose(logdet.item(), numeric_logabsdet(forward_flat, x), atol=1e-3)

    def test_actnorm_logdet_matches_numeric_jacobian(self):
        rng = np.random.default_rng(15)
        layer = ActNorm(2)
        layer.scale.data[...] = np.array([1.3, 0.6])
        layer.offset.data[...] = np.array([0.2, -0.4])
        layer.initialized = True
        x = rng.standard_normal((1, 2, 2, 2))

        def forward_flat(inp):
            z, _ = layer.forward(ad.Tensor(inp))
            return z.data.reshape(-1)

        _, logdet = layer.forward(ad.Tensor(x))
        np.testing.assert_allclose(logdet.item(), numeric_logabsdet(forward_flat, x), atol=1e-3)

    def test_full_stack_logdet_matches_numeric_jacobian(self):
        rng = np.random.default_rng(16)
        model = build_glow(K=2, L=2, in_channels=1, image_size=4, mask_strategy="checkerboard")
        randomize(model, rng)
        x = rng.standard_normal((1, 1, 4, 4))

        def forward_flat(inp):
            return flatten_latents(model, inp)

        _, logdet = model.forward_latents(x)
        np.testing.assert_allclose(logdet.item(), numeric_logabsdet(forward_flat, x), atol=1e-3)

    def test_likelihood_consistent_with_generative_logdet(self):
        rng = np.random.default_rng(17)
        model = build_glow(K=2, L=1, in_channels=2, image_size=3, mask_strategy="channel-half")
        randomize(model, rng)
        x = rng.standard_normal((2, 3, 3))
        latents, _ = model.forward_latents(x[None])
        lat_arrays = [z.data for z in latents]
        back, logdet_gen = model.inverse_from_latents(lat_arrays)
        np.testing.assert_allclose(back[0], x, atol=1e-9)
        z_logp = sum(stdnormal_logp(z) for z in lat_arrays)
        got = model.log_density(x).log_likelihood
        np.testing.assert_allclose(got, z_logp - float(logdet_gen[0]), atol=1e-8)


class TestModelPlumbing:
    def test_latent_dims_sum_to_input_dims(self):
        for K, L, size in [(1, 1, 4), (2, 2, 8), (2, 3, 16)]:
            model = build_glow(K=K, L=L, in_channels=1, image_size=size, mask_strategy="checkerboard")
            total = sum(int(np.prod(s)) for s in model.latent_shapes)
            assert total == size * size

    def test_batched_log_prob_matches_per_image(self):
        rng = np.random.default_rng(18)
        model = build_glow(K=2, L=2, in_channels=1, image_size=8, mask_strategy="checkerboard")
        randomize(model, rng)
        xs = rng.standard_normal((5, 1, 8, 8))
        batched = model.log_prob_graph(xs).data
        singles = np.array([model.log_prob_graph(xs[n : n + 1]).item() for n in range(len(xs))])
        np.testing.assert_allclose(batched, singles, atol=1e-9)

    def test_nan_failure_reports_layer_index(self):
        model = build_glow(K=2, L=1, in_channels=2, image_size=4, mask_strategy="channel-half")
        # Poison the second coupling's head bias: layers 0..2 are the first
        # step, the failure must surface at the second step's coupling.
        _, coupling = model.scales[0][1]
        coupling.b3.data[...] = np.nan
        with pytest.raises(FlowNumericsError) as err:
            model.log_prob_graph(np.zeros((1, 2, 4, 4)))
        assert err.value.layer_index == 5
        # A training worker sends its exception back pickled.
        again = pickle.loads(pickle.dumps(err.value))
        assert (type(again), again.layer_index, str(again)) == (FlowNumericsError, 5, str(err.value))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected_before_any_layer(self, bad):
        model = build_glow(K=1, L=2, in_channels=1, image_size=4, mask_strategy="checkerboard")
        image = np.zeros((1, 4, 4))
        image[0, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            model.log_density(image)

    def test_too_small_to_squeeze_rejected(self):
        with pytest.raises(ValueError, match="squeeze"):
            build_glow(K=1, L=3, in_channels=1, image_size=4, mask_strategy="checkerboard")

    @pytest.mark.parametrize("bad", [{"K": 0}, {"L": 0}, {"hidden": 0}, {"cond_channels": -1}])
    def test_bad_layout_rejected(self, bad):
        layout = dict(K=1, L=1, in_channels=2, image_size=4, hidden=2) | bad
        with pytest.raises(ValueError, match="must be >= 1"):
            build_glow(**layout)

    def test_wrong_input_shape_rejected(self):
        model = build_glow(K=1, L=1, in_channels=2, image_size=4, mask_strategy="channel-half")
        with pytest.raises(ad.ShapeError):
            model.log_prob_graph(np.zeros((1, 2, 8, 8)))

    def test_single_image_rank_rejected_by_graph_api(self):
        model = build_glow(K=1, L=1, in_channels=2, image_size=4, mask_strategy="channel-half")
        with pytest.raises(ad.ShapeError, match="N,C,H,W"):
            model.log_prob_graph(np.zeros((2, 4, 4)))

    def test_doubling_k_doubles_coupling_parameters(self):
        small = build_glow(K=2, L=2, in_channels=1, image_size=8, hidden=12, mask_strategy="checkerboard")
        big = build_glow(K=4, L=2, in_channels=1, image_size=8, hidden=12, mask_strategy="checkerboard")
        ratio = coupling_parameter_count(small) / coupling_parameter_count(big)
        assert 0.45 <= ratio <= 0.55


class TestSampling:
    def test_identity_model_samples_standard_normal(self):
        model = build_glow(K=2, L=1, in_channels=1, image_size=4, mask_strategy="checkerboard")
        rng = np.random.default_rng(19)
        samples = np.stack([model.sample(rng) for _ in range(1000)])
        assert np.all(np.abs(samples.mean(axis=0)) < 0.1)

    def test_forward_recovers_sampled_latents(self):
        rng = np.random.default_rng(20)
        model = build_glow(K=2, L=2, in_channels=1, image_size=8, mask_strategy="checkerboard")
        randomize(model, rng)
        latents = [0.7 * rng.standard_normal((1,) + shape) for shape in model.latent_shapes]
        x, _ = model.inverse_from_latents(latents)
        recovered, _ = model.forward_latents(x)
        for drawn, rec in zip(latents, recovered):
            np.testing.assert_allclose(rec.data, drawn, atol=1e-8)

    def test_sampled_image_has_finite_likelihood(self):
        rng = np.random.default_rng(21)
        model = build_glow(K=2, L=2, in_channels=1, image_size=8, mask_strategy="checkerboard")
        randomize(model, rng)
        x = model.sample(rng, temperature=0.8)
        assert np.isfinite(model.log_density(x).log_likelihood)

    def test_non_positive_temperature_rejected(self):
        model = build_glow(K=1, L=1, in_channels=1, image_size=2, mask_strategy="checkerboard")
        with pytest.raises(ValueError, match="temperature"):
            model.sample(np.random.default_rng(0), temperature=0.0)
