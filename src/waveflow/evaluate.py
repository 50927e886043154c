"""Detection metrics and the training-free wavelet-magnitude baseline.

Scores follow the convention "higher means more anomalous".  The AUC is
the rank statistic P(anomaly score > nominal score) + 0.5 P(tie),
computed with midranks; the ROC sweep visits every distinct score as a
threshold, so tied scores across classes show up as diagonal segments
whose trapezoid area matches the rank AUC exactly.

``wavelet_magnitude_score`` is a detector like the flows: it checks its
image with the flows' ``checked_images`` and returns the same
``ScoreReport``, with the mean absolute detail coefficient per level.
"""
from __future__ import annotations

import json

import numpy as np

from .flows import ScoreReport, checked_images
from .haar import build_pyramid
from .waveletflow import MIN_SCORING_SIZE, levels_to_score

__all__ = [
    "auc",
    "roc_points",
    "pooled_histogram",
    "summarize",
    "wavelet_magnitude_score",
    "metrics_json",
]


def _checked(scores, name: str) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} score set is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} scores contain non-finite values")
    return arr


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks where tied values share the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts  # 0-based position of each value's first copy
    return (first + 0.5 * (counts - 1) + 1.0)[inverse]


def auc(id_scores, ood_scores) -> float:
    """Probability a detector ranks an anomalous image above a nominal one,
    counting ties as half."""
    nominal = _checked(id_scores, "in-distribution")
    anomalous = _checked(ood_scores, "out-of-distribution")
    pooled = np.concatenate([nominal, anomalous])
    ranks = _midranks(pooled)
    n0, n1 = len(nominal), len(anomalous)
    rank_sum = float(np.sum(ranks[n0:]))
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n0 * n1)


def roc_points(id_scores, ood_scores) -> np.ndarray:
    """(false-positive rate, true-positive rate) pairs, sweeping a
    ``score >= threshold`` rule over every distinct score, descending."""
    nominal = _checked(id_scores, "in-distribution")
    anomalous = _checked(ood_scores, "out-of-distribution")
    n0, n1 = len(nominal), len(anomalous)
    thresholds, inverse = np.unique(np.concatenate([nominal, anomalous]), return_inverse=True)
    descending = len(thresholds) - 1 - inverse  # each score's threshold index, highest first
    fp = np.cumsum(np.bincount(descending[:n0], minlength=len(thresholds)))
    tp = np.cumsum(np.bincount(descending[n0:], minlength=len(thresholds)))
    return np.vstack([[0.0, 0.0], np.column_stack([fp / n0, tp / n1])])


def pooled_histogram(id_scores, ood_scores, bins: int = 20):
    """Shared equal-width bins over the pooled score range.

    Returns (edges, nominal_counts, anomalous_counts).  A degenerate
    pool (all scores equal) gets one unit-wide bin centred on the value.
    """
    nominal = _checked(id_scores, "in-distribution")
    anomalous = _checked(ood_scores, "out-of-distribution")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    pooled = np.concatenate([nominal, anomalous])
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo == hi:
        edges = np.array([lo - 0.5, hi + 0.5])
    else:
        edges = np.linspace(lo, hi, bins + 1)
    counts_nominal, _ = np.histogram(nominal, bins=edges)
    counts_anomalous, _ = np.histogram(anomalous, bins=edges)
    return edges, counts_nominal, counts_anomalous


def summarize(id_scores, ood_scores, histogram_bins: int = 20) -> dict:
    """Everything the evaluation report needs, as plain JSON-ready types."""
    nominal = _checked(id_scores, "in-distribution")
    anomalous = _checked(ood_scores, "out-of-distribution")
    edges, counts_nominal, counts_anomalous = pooled_histogram(
        nominal, anomalous, bins=histogram_bins
    )
    return {
        "auc": auc(nominal, anomalous),
        "n_in_dist": int(len(nominal)),
        "n_ood": int(len(anomalous)),
        "score_mean": {
            "in_dist": float(np.mean(nominal)),
            "ood": float(np.mean(anomalous)),
        },
        "roc": [[float(f), float(t)] for f, t in roc_points(nominal, anomalous)],
        "score_histogram": {
            "bin_edges": [float(e) for e in edges],
            "in_dist": [int(c) for c in counts_nominal],
            "ood": [int(c) for c in counts_anomalous],
        },
    }


def wavelet_magnitude_score(image: np.ndarray, levels: list[int] | None = None) -> ScoreReport:
    """Training-free detector: mean absolute detail coefficient per level,
    averaged over the same levels the flow-based scorer uses.  ``image`` is
    one (C,S,S) image, checked as the flow detectors check theirs."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ValueError(f"expected one (C, S, S) image, got shape {image.shape}")
    pyramid = build_pyramid(checked_images(image[None], image.shape)[0])
    magnitudes = {
        lvl.level_index: float(np.mean(np.abs(lvl.detail))) for lvl in pyramid.levels
    }
    if levels is None:
        chosen = levels_to_score({lvl.level_index: lvl.detail.shape[-1] for lvl in pyramid.levels})
    else:
        chosen = tuple(sorted(levels))
        unknown = set(chosen) - set(magnitudes)
        if unknown:
            raise ValueError(f"unknown levels {sorted(unknown)}; image has {sorted(magnitudes)}")
    if not chosen:
        raise ValueError(
            f"no level of size >= {MIN_SCORING_SIZE} to score; pass explicit levels"
        )
    score = float(np.mean([magnitudes[lvl] for lvl in chosen]))
    return ScoreReport(per_level=magnitudes, scoring_levels=chosen, score=score)


def metrics_json(payload: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline at
    the end, and nothing run-dependent (no timestamps, no hostnames)."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
