"""Per-scale conditional flows over a Haar pyramid.

The joint density of an image factorizes as the base-residue density
times, per level, the density of that level's detail coefficients
conditioned on its low-pass.  Each factor is a single-scale coupling
flow (no squeeze/split inside a level); the 1x1 residue gets a Gaussian
with learned mean and variance.  The OOD score of an image is the mean
bits-per-dimension over the levels whose detail grids are at least 4x4:
coarser levels stay in the report for diagnostics but are too small to
score reliably.  Scores are ``ScoreReport``s, the report every detector
returns, with bits/dim per level.

Each factor trains on its own: ``components()`` lists them in training
order and ``component_inputs`` gives each one's (inputs, condition).
``GaussianBase`` has a flow's component surface; a Glow ``FlowModel`` is
the one-component case.

``build_waveletflow`` records its layout arguments as ``model.architecture``
(``steps_per_level`` keyed by level strings, as JSON stores them), and
``model.family`` is ``"waveletflow"``; a checkpoint restores the model as
``build_waveletflow(**architecture)``.

Shape contract: ``component_inputs``, ``GaussianBase.log_prob_graph`` and
``WaveletFlowModel.score_batch`` take (N,C,H,W) batches, like the flow graph
APIs; ``WaveletFlowModel.score`` and ``WaveletFlowModel.sample`` are the
single-image entry points and take or return one (1,S,S) image.  Scoring
runs under ``autodiff.no_grad`` and keeps no graph, so a batch's memory is
released level by level.
"""
from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .flows import FlowModel, ScoreReport, _standard_normal_logp, bits_per_dim, build_glow, checked_images
from .haar import HaarLevel, build_pyramid, haar_inverse

__all__ = [
    "MIN_SCORING_SIZE",
    "levels_to_score",
    "GaussianBase",
    "WaveletFlowModel",
    "build_waveletflow",
]

# Detail grids smaller than this are excluded from the averaged score.
MIN_SCORING_SIZE = 4


def levels_to_score(detail_sizes: dict[int, int]) -> tuple[int, ...]:
    """The levels, in order, whose detail grid (``detail_sizes`` maps a
    level to its grid size) is large enough to count towards the score."""
    return tuple(sorted(level for level, size in detail_sizes.items() if size >= MIN_SCORING_SIZE))


class GaussianBase:
    """Gaussian with learned mean and log-std for the 1x1 pyramid residue."""

    def __init__(self):
        self.input_shape = (1, 1, 1)
        self.mean = ad.Parameter("base.mean", np.zeros(self.input_shape))
        self.log_std = ad.Parameter("base.log_std", np.zeros(self.input_shape))

    def parameters(self) -> list[ad.Parameter]:
        return [self.mean, self.log_std]

    def actnorm_layers(self) -> list:
        return []

    def initialize_actnorm(self, batch: np.ndarray, cond: None = None) -> None:
        """No activation normalization: nothing to initialize."""

    def log_prob_graph(self, x: np.ndarray, cond: None = None) -> ad.Tensor:
        """Per-sample log p of a (N,1,1,1) batch of residues: a (N,) tensor."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ad.ShapeError(f"base expects (N,) + {self.input_shape}, got {x.shape}")
        # The single-element parameters broadcast as scalars over a batch.
        z = ad.mul(ad.sub(ad.Tensor(x), self.mean), ad.exp(ad.neg(self.log_std)))
        return ad.sub(_standard_normal_logp(z), ad.reduce_sum(self.log_std))

    def sample(self, rng: np.random.Generator, temperature: float = 1.0) -> np.ndarray:
        if temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {temperature}")
        std = float(np.exp(self.log_std.data.reshape(())))
        return self.mean.data + temperature * std * rng.standard_normal(self.input_shape)


class WaveletFlowModel:
    """One conditional coupling flow per pyramid level plus the residue model."""

    family = "waveletflow"
    architecture: dict  # set by build_waveletflow; see the module docstring

    def __init__(self, image_size: int, level_flows: dict[int, FlowModel], base: GaussianBase):
        self.image_size = image_size
        self.level_flows = level_flows
        self.base = base

    def components(self) -> dict[str, FlowModel | GaussianBase]:
        """The independently trained parts in training order: the residue
        model, then each level's flow from the coarsest.  A part's position
        is its level number (0 is the residue)."""
        levels = {f"level{level}": self.level_flows[level] for level in sorted(self.level_flows)}
        return {"base": self.base} | levels

    def parameters(self) -> list[ad.Parameter]:
        return [p for part in self.components().values() for p in part.parameters()]

    def scoring_levels(self) -> tuple[int, ...]:
        return levels_to_score({level: flow.input_shape[-1] for level, flow in self.level_flows.items()})

    def component_inputs(self, images: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray | None]]:
        """Each component's (inputs, condition) for a (N,1,S,S) batch, from
        one pyramid: the (N,1,1,1) residues for ``base``, each level's
        (details, low-passes) for ``level<i>``.

        This is the exact pyramid the scorer and the trainer consume.
        """
        pyramid = build_pyramid(images)
        levels = {f"level{lvl.level_index}": (lvl.detail, lvl.low) for lvl in pyramid.levels}
        return {"base": (pyramid.base, None)} | levels

    def score(self, image: np.ndarray) -> ScoreReport:
        """Report for one (1,S,S) image: ``score_batch`` at N=1."""
        return self.score_batch(np.asarray(image)[None])[0]

    def score_batch(self, images: np.ndarray) -> list[ScoreReport]:
        """One report per image of a (N,1,S,S) batch, equal to scoring each
        image alone.  Images must be finite and lie in [0, 1]."""
        images = checked_images(images, (1, self.image_size, self.image_size))
        scoring = self.scoring_levels()
        if not scoring:
            raise ValueError(
                f"no level of size >= {MIN_SCORING_SIZE} to score; image size {self.image_size} is too small"
            )
        inputs = self.component_inputs(images)
        with ad.no_grad():
            per_level = {
                level: bits_per_dim(part.log_prob_graph(*inputs[name]).data, int(np.prod(part.input_shape)))
                for level, (name, part) in enumerate(self.components().items())
            }
        reports = []
        for n in range(len(images)):
            bpd = {level: float(values[n]) for level, values in per_level.items()}
            score = float(np.mean([bpd[level] for level in scoring]))
            reports.append(ScoreReport(per_level=bpd, scoring_levels=scoring, score=score))
        return reports

    def sample(self, rng: np.random.Generator, temperature: float = 1.0) -> np.ndarray:
        """Coarse-to-fine generation of one (1,S,S) image, clipped to the
        image range."""
        if temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {temperature}")
        low = self.base.sample(rng, temperature)
        for level in sorted(self.level_flows):
            detail = self.level_flows[level].sample(rng, temperature, cond=low)
            low = haar_inverse(HaarLevel(low=low, detail=detail, level_index=level))
        return np.clip(low, 0.0, 1.0)


def build_waveletflow(
    image_size: int,
    steps_per_level: int | dict[int | str, int] = 2,
    mask_strategy: str = "channel-half",
    hidden: int = 256,
    seed: int = 0,
) -> WaveletFlowModel:
    """Full-depth pyramid model for a square power-of-two image size.

    ``steps_per_level`` is one step count for every level, or a count for
    each level ``1..depth`` keyed by the level as an int or a string.
    """
    if image_size < 4 or (image_size & (image_size - 1)) != 0:
        raise ValueError(f"image size must be a power of two >= 4, got {image_size}")
    depth = int(math.log2(image_size))
    levels = range(1, depth + 1)
    if isinstance(steps_per_level, int):
        steps = {level: steps_per_level for level in levels}
    else:
        steps = {int(level): count for level, count in steps_per_level.items()}
        missing = set(levels) - set(steps)
        if missing:
            raise ValueError(f"steps_per_level missing levels {sorted(missing)}")
        extra = set(steps) - set(levels)
        if extra:
            raise ValueError(f"steps_per_level has levels {sorted(extra)} outside 1..{depth}")
    level_flows: dict[int, FlowModel] = {}
    for level in levels:
        size = image_size >> (depth - level + 1)
        level_flows[level] = build_glow(
            K=steps[level],
            L=1,
            in_channels=3,
            image_size=size,
            cond_channels=1,
            mask_strategy=mask_strategy,
            hidden=hidden,
            seed=seed + level,
        )
    model = WaveletFlowModel(image_size, level_flows, GaussianBase())
    model.architecture = {
        "image_size": image_size,
        "steps_per_level": {str(level): count for level, count in steps.items()},
        "mask_strategy": mask_strategy,
        "hidden": hidden,
    }
    return model
