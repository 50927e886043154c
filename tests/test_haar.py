"""Haar transform tests: hand-worked 2x2 values, energy preservation,
round trips, and pyramid bookkeeping."""
from __future__ import annotations

import numpy as np
import pytest

from waveflow.haar import HaarLevel, build_pyramid, haar_forward, haar_inverse, reconstruct


class TestSingleLevel:
    def test_hand_worked_2x2_block(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        level = haar_forward(x)
        np.testing.assert_allclose(level.low, [[[5.0]]])
        np.testing.assert_allclose(level.detail[0], [[-2.0]])  # top/bottom
        np.testing.assert_allclose(level.detail[1], [[-1.0]])  # left/right
        np.testing.assert_allclose(level.detail[2], [[0.0]])  # diagonal

    def test_constant_block_concentrates_in_low(self):
        v = 0.73
        x = np.full((1, 2, 2), v)
        level = haar_forward(x)
        np.testing.assert_allclose(level.low, [[[2.0 * v]]])
        np.testing.assert_allclose(level.detail, 0.0, atol=1e-15)

    def test_energy_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.standard_normal((2, 8, 8))
            level = haar_forward(x)
            got = np.sum(level.low**2) + np.sum(level.detail**2)
            np.testing.assert_allclose(got, np.sum(x**2), rtol=1e-12)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 6, 10))
        np.testing.assert_allclose(haar_inverse(haar_forward(x)), x, atol=1e-12)

    def test_inverse_of_hand_worked_coefficients(self):
        level = HaarLevel(
            low=np.array([[[5.0]]]),
            detail=np.array([[[-2.0]], [[-1.0]], [[0.0]]]),
            level_index=1,
        )
        np.testing.assert_allclose(haar_inverse(level), [[[1.0, 2.0], [3.0, 4.0]]])

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            haar_forward(np.zeros((1, 3, 4)))

    def test_mismatched_detail_shape_rejected(self):
        with pytest.raises(ValueError):
            haar_inverse(HaarLevel(low=np.zeros((1, 2, 2)), detail=np.zeros((3, 4, 4)), level_index=1))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 1, 4, 4))
        a, b = 1.7, -0.4
        lx, ly = haar_forward(x), haar_forward(y)
        lsum = haar_forward(a * x + b * y)
        np.testing.assert_allclose(lsum.low, a * lx.low + b * ly.low, atol=1e-12)
        np.testing.assert_allclose(lsum.detail, a * lx.detail + b * ly.detail, atol=1e-12)


class TestPyramid:
    def test_full_depth_shapes_and_numbering(self):
        x = np.random.default_rng(3).standard_normal((1, 32, 32))
        pyr = build_pyramid(x)
        assert len(pyr.levels) == 5
        sizes = [lvl.detail.shape[-1] for lvl in pyr.levels]
        assert sizes == [16, 8, 4, 2, 1]
        indices = [lvl.level_index for lvl in pyr.levels]
        assert indices == [5, 4, 3, 2, 1]  # coarsest level is 1
        assert pyr.base.shape == (1, 1, 1)

    def test_energy_preserved_across_pyramid(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 16, 16))
        pyr = build_pyramid(x)
        total = np.sum(pyr.base**2) + sum(np.sum(l.detail**2) for l in pyr.levels)
        np.testing.assert_allclose(total, np.sum(x**2), rtol=1e-12)

    def test_reconstruct_roundtrip(self):
        rng = np.random.default_rng(5)
        for size in (4, 8, 32):
            x = rng.standard_normal((1, size, size))
            np.testing.assert_allclose(reconstruct(build_pyramid(x)), x, atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            build_pyramid(np.zeros((1, 8, 16)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_pyramid(np.zeros((1, 12, 12)))

    def test_one_pixel_input_rejected(self):
        with pytest.raises(ValueError, match="power of two >= 2, got 1"):
            build_pyramid(np.zeros((1, 1, 1)))


class TestBatch:
    def test_batched_pyramid_equals_per_image_pyramids(self):
        stack = np.random.default_rng(7).random((5, 1, 16, 16))
        batched = build_pyramid(stack)
        singles = [build_pyramid(img) for img in stack]
        for pos, level in enumerate(batched.levels):
            assert level.level_index == singles[0].levels[pos].level_index
            assert np.array_equal(level.low, np.stack([s.levels[pos].low for s in singles]))
            assert np.array_equal(level.detail, np.stack([s.levels[pos].detail for s in singles]))
        assert np.array_equal(batched.base, np.stack([s.base for s in singles]))

    def test_batched_inverse_round_trip(self):
        stack = np.random.default_rng(8).standard_normal((3, 2, 8, 8))
        singles = np.stack([reconstruct(build_pyramid(x)) for x in stack])
        assert np.array_equal(reconstruct(build_pyramid(stack)), singles)
