"""Wavelet-pyramid normalizing flows for likelihood-based OOD detection.

The package factors an image density into an unconditional model of the
coarsest wavelet residue times per-level conditional flows of detail
coefficients given the low-pass image below them.  Per-level bits per
dimension, averaged over the informative levels, is the anomaly score.

Every model graph API takes (N,C,H,W) batches; a single image is a batch
with N=1.  The single-image entry points ``WaveletFlowModel.score``,
``FlowModel.log_density`` and the two ``sample`` methods take or return
one (C,H,W) image.  Every detector (``score_batch`` of either model
family, ``wavelet_magnitude_score``) returns ``ScoreReport``s.
"""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    DatasetManifest,
    LesionProfile,
    ManifestRecord,
    SynthConfig,
    generate_synthetic,
    load_image,
    load_split,
    read_manifest,
    save_image,
    write_manifest,
)
from .evaluate import auc, metrics_json, roc_points, summarize, wavelet_magnitude_score
from .flows import (
    FlowModel,
    FlowNumericsError,
    LogDensity,
    ScoreReport,
    build_glow,
    coupling_parameter_count,
)
from .haar import HaarLevel, HaarPyramid, build_pyramid, haar_forward, haar_inverse, reconstruct
from .masks import STRATEGIES, MaskError, make_mask
from .train import AugmentConfig, TrainConfig, TrainHistory, augment, dequantize, train
from .waveletflow import WaveletFlowModel, build_waveletflow

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "CheckpointError",
    "DatasetManifest",
    "FlowModel",
    "FlowNumericsError",
    "HaarLevel",
    "HaarPyramid",
    "LesionProfile",
    "LogDensity",
    "ManifestRecord",
    "MaskError",
    "STRATEGIES",
    "ScoreReport",
    "SynthConfig",
    "TrainConfig",
    "TrainHistory",
    "WaveletFlowModel",
    "auc",
    "augment",
    "build_glow",
    "build_pyramid",
    "build_waveletflow",
    "coupling_parameter_count",
    "dequantize",
    "generate_synthetic",
    "haar_forward",
    "haar_inverse",
    "load_checkpoint",
    "load_image",
    "load_split",
    "make_mask",
    "metrics_json",
    "read_manifest",
    "reconstruct",
    "roc_points",
    "save_checkpoint",
    "save_image",
    "summarize",
    "train",
    "wavelet_magnitude_score",
    "write_manifest",
    "__version__",
]
