import json

import numpy as np
import pytest

from waveflow import evaluate
from waveflow.evaluate import (
    auc,
    metrics_json,
    pooled_histogram,
    roc_points,
    summarize,
    wavelet_magnitude_score,
)
from waveflow.haar import build_pyramid

from helpers import pairwise_auc, trapezoid_area


class TestAuc:
    def test_matches_pairwise_counting(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            # integer scores force plenty of ties
            a = rng.integers(0, 6, size=rng.integers(2, 30)).astype(float)
            b = rng.integers(0, 6, size=rng.integers(2, 30)).astype(float)
            assert auc(a, b) == pytest.approx(pairwise_auc(a, b), abs=1e-12)

    def test_perfect_and_inverted_separation(self):
        lo = [0.1, 0.2, 0.3]
        hi = [0.9, 1.1, 2.0]
        assert auc(lo, hi) == 1.0
        assert auc(hi, lo) == 0.0

    def test_identical_scores_give_half(self):
        assert auc([1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, 40)
        b = rng.normal(0.5, 1, 30)
        assert auc(a, b) == pytest.approx(auc(np.exp(a), np.exp(b)), abs=1e-12)
        assert auc(a, b) == pytest.approx(auc(3 * a + 7, 3 * b + 7), abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            auc([], [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            auc([np.nan], [1.0])


class TestRoc:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(2)
        pts = roc_points(rng.normal(0, 1, 25), rng.normal(1, 1, 35))
        assert tuple(pts[0]) == (0.0, 0.0)
        assert tuple(pts[-1]) == (1.0, 1.0)
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_one_point_per_distinct_score(self):
        a = np.array([0.0, 1.0, 1.0, 2.0])
        b = np.array([1.0, 3.0])
        pts = roc_points(a, b)
        assert len(pts) == 1 + len(np.unique(np.concatenate([a, b])))

    def test_tie_produces_diagonal_segment(self):
        # the only shared score moves both rates in a single step
        pts = roc_points([0.0, 1.0], [1.0, 2.0])
        steps = np.diff(pts, axis=0)
        diagonal = [s for s in steps if s[0] > 0 and s[1] > 0]
        assert len(diagonal) == 1
        assert diagonal[0] == pytest.approx([0.5, 0.5])

    def test_equals_loop_reference_bit_for_bit(self):
        """The vectorized ranks and sweep against the per-value loops they
        replaced, on tie-heavy sets that mix -0.0 and +0.0."""

        def midranks_loop(values):
            order = np.argsort(values, kind="mergesort")
            ranks = np.empty(len(values))
            i = 0
            while i < len(values):
                j = i
                while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                    j += 1
                ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            return ranks

        def roc_loop(a, b):
            points, fp, tp = [(0.0, 0.0)], 0, 0
            for threshold in np.unique(np.concatenate([a, b]))[::-1]:
                fp += int(np.sum(a == threshold))
                tp += int(np.sum(b == threshold))
                points.append((fp / len(a), tp / len(b)))
            return np.array(points)

        rng = np.random.default_rng(6)
        for trial in range(100):
            a = rng.integers(-3, 4, size=rng.integers(1, 40)).astype(float)
            b = rng.integers(-3, 4, size=rng.integers(1, 40)).astype(float)
            if trial % 2:
                a, b = a * 0.5 * rng.random(), np.where(b == 0, -0.0, b)
            pooled = np.concatenate([a, b])
            assert evaluate._midranks(pooled).view(np.uint64).tolist() == (
                midranks_loop(pooled).view(np.uint64).tolist()
            )
            assert roc_points(a, b).view(np.uint64).tolist() == roc_loop(a, b).view(np.uint64).tolist()

    def test_area_equals_rank_auc(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.integers(0, 8, size=rng.integers(2, 40)).astype(float)
            b = rng.integers(0, 8, size=rng.integers(2, 40)).astype(float)
            area = trapezoid_area(roc_points(a, b))
            assert area == pytest.approx(auc(a, b), abs=1e-12)


class TestHistogram:
    def test_shared_bins_cover_both_sets(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(0, 1, 100), rng.normal(3, 1, 80)
        edges, ca, cb = pooled_histogram(a, b, bins=15)
        assert len(edges) == 16
        assert edges[0] == min(a.min(), b.min())
        assert edges[-1] == max(a.max(), b.max())
        assert ca.sum() == 100 and cb.sum() == 80
        widths = np.diff(edges)
        assert np.allclose(widths, widths[0])

    def test_degenerate_pool_gets_unit_bin(self):
        edges, ca, cb = pooled_histogram([2.0, 2.0], [2.0], bins=10)
        assert list(edges) == [1.5, 2.5]
        assert ca.sum() == 2 and cb.sum() == 1

    def test_bad_bins(self):
        with pytest.raises(ValueError, match="bins"):
            pooled_histogram([1.0], [2.0], bins=0)


class TestSummarize:
    def test_payload_is_json_ready_and_consistent(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(0, 1, 30), rng.normal(1, 1, 20)
        payload = summarize(a, b, histogram_bins=8)
        text = metrics_json(payload)
        assert json.loads(text) == payload
        assert payload["n_in_dist"] == 30 and payload["n_ood"] == 20
        assert payload["auc"] == auc(a, b)
        assert payload["roc"][0] == [0.0, 0.0] and payload["roc"][-1] == [1.0, 1.0]
        assert sum(payload["score_histogram"]["in_dist"]) == 30


class TestMetricsJson:
    def test_deterministic_and_sorted(self):
        payload = {"zeta": 1, "alpha": {"b": 2.5, "a": [1, 2]}}
        text1 = metrics_json(payload)
        text2 = metrics_json({"alpha": {"a": [1, 2], "b": 2.5}, "zeta": 1})
        assert text1 == text2
        assert text1.index('"alpha"') < text1.index('"zeta"')
        assert text1.endswith("\n")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            metrics_json({"x": float("nan")})


class TestWaveletMagnitude:
    def test_matches_direct_pyramid_computation(self):
        rng = np.random.default_rng(6)
        img = rng.random((1, 16, 16))
        report = wavelet_magnitude_score(img)
        pyramid = build_pyramid(img)
        for lvl in pyramid.levels:
            expected = float(np.mean(np.abs(lvl.detail)))
            assert report.per_level[lvl.level_index] == expected
        assert report.scoring_levels == (3, 4)  # sizes 4 and 8 for a 16 px image
        expected_score = np.mean(
            [report.per_level[l] for l in report.scoring_levels]
        )
        assert report.score == pytest.approx(expected_score, abs=1e-15)

    def test_fine_texture_raises_the_score(self):
        yy, xx = np.mgrid[0:16, 0:16]
        smooth = 0.5 + 0.2 * np.sin(2 * np.pi * yy / 16.0)[None]
        noisy = smooth + 0.2 * ((-1.0) ** (yy + xx))[None]
        assert (
            wavelet_magnitude_score(np.clip(noisy, 0, 1)).score
            > wavelet_magnitude_score(np.clip(smooth, 0, 1)).score
        )

    def test_explicit_levels(self):
        img = np.random.default_rng(7).random((1, 8, 8))
        report = wavelet_magnitude_score(img, levels=[1, 2])
        assert report.scoring_levels == (1, 2)
        with pytest.raises(ValueError, match="unknown levels"):
            wavelet_magnitude_score(img, levels=[9])

    def test_one_image_of_rank_three_required(self):
        with pytest.raises(ValueError, match=r"\(C, S, S\)"):
            wavelet_magnitude_score(np.zeros((8, 8)))
        with pytest.raises(ValueError, match=r"\(C, S, S\)"):
            wavelet_magnitude_score(np.zeros((2, 1, 8, 8)))

    def test_tiny_image_needs_explicit_levels(self):
        img = np.random.default_rng(8).random((1, 4, 4))
        with pytest.raises(ValueError, match="no level"):
            wavelet_magnitude_score(img)
        report = wavelet_magnitude_score(img, levels=[1, 2])
        assert report.score > 0
