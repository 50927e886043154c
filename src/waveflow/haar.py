"""Orthonormal 2-D Haar analysis/synthesis and multi-level pyramids.

Each analysis step halves both spatial dimensions, mapping a (..., C, 2h, 2w)
signal to a (..., C, h, w) low-pass plus three (..., C, h, w) detail bands.
Any leading dimensions are batch dimensions: a (N, C, H, W) stack is
transformed image by image with the exact same arithmetic.  The transform
is orthonormal, so energy is preserved exactly and synthesis is the exact
inverse.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HaarLevel", "HaarPyramid", "haar_forward", "haar_inverse", "build_pyramid", "reconstruct"]


@dataclass(frozen=True)
class HaarLevel:
    """One analysis level: the low-pass and its three detail bands.

    ``low`` is (..., C, h, w); ``detail`` stacks the three bands as
    (..., 3C, h, w) in the order: top/bottom difference, left/right
    difference, diagonal.  ``level_index`` counts from the coarsest level
    (1) upward, so the finest level of a depth-d pyramid carries index d.
    """

    low: np.ndarray
    detail: np.ndarray
    level_index: int


@dataclass(frozen=True)
class HaarPyramid:
    """Full decomposition: levels ordered finest first, plus the residue."""

    levels: tuple[HaarLevel, ...]
    base: np.ndarray


def haar_forward(x: np.ndarray, level_index: int = 1) -> HaarLevel:
    """One orthonormal analysis step over non-overlapping 2x2 blocks."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3:
        raise ValueError(f"haar_forward expects (..., C, H, W), got shape {x.shape}")
    H, W = x.shape[-2:]
    if H % 2 or W % 2:
        raise ValueError(f"haar_forward needs even spatial dims, got {H}x{W}")
    a = x[..., 0::2, 0::2]
    b = x[..., 0::2, 1::2]
    c = x[..., 1::2, 0::2]
    d = x[..., 1::2, 1::2]
    low = (a + b + c + d) / 2.0
    lh = (a + b - c - d) / 2.0
    hl = (a - b + c - d) / 2.0
    hh = (a - b - c + d) / 2.0
    return HaarLevel(low=low, detail=np.concatenate([lh, hl, hh], axis=-3), level_index=level_index)


def haar_inverse(level: HaarLevel) -> np.ndarray:
    """Exact synthesis of the (..., C, 2h, 2w) signal from one level."""
    low = np.asarray(level.low, dtype=np.float64)
    detail = np.asarray(level.detail, dtype=np.float64)
    if low.ndim < 3:
        raise ValueError(f"haar_inverse expects (..., C, h, w) low, got shape {low.shape}")
    *lead, C, h, w = low.shape
    if detail.shape != (*lead, 3 * C, h, w):
        raise ValueError(f"detail shape {detail.shape} does not match low shape {low.shape}")
    lh = detail[..., 0:C, :, :]
    hl = detail[..., C : 2 * C, :, :]
    hh = detail[..., 2 * C :, :, :]
    out = np.empty((*lead, C, 2 * h, 2 * w), dtype=np.float64)
    out[..., 0::2, 0::2] = (low + lh + hl + hh) / 2.0
    out[..., 0::2, 1::2] = (low + lh - hl - hh) / 2.0
    out[..., 1::2, 0::2] = (low - lh + hl - hh) / 2.0
    out[..., 1::2, 1::2] = (low - lh - hl + hh) / 2.0
    return out


def build_pyramid(x: np.ndarray) -> HaarPyramid:
    """Full log2(S) analysis of a square power-of-two image or image stack
    of at least 2x2, leaving a 1x1 residue.  Levels come back finest first;
    level_index numbers them coarsest = 1.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3:
        raise ValueError(f"expected (..., C, S, S), got shape {x.shape}")
    H, W = x.shape[-2:]
    if H != W:
        raise ValueError(f"pyramid input must be square, got {H}x{W}")
    if H < 2 or (H & (H - 1)) != 0:
        raise ValueError(f"pyramid input size must be a power of two >= 2, got {H}")
    depth = H.bit_length() - 1
    levels = []
    cur = x
    for pos in range(depth):
        level = haar_forward(cur, level_index=depth - pos)
        levels.append(level)
        cur = level.low
    return HaarPyramid(levels=tuple(levels), base=cur)


def reconstruct(pyramid: HaarPyramid) -> np.ndarray:
    """Exact inverse of :func:`build_pyramid`."""
    cur = np.asarray(pyramid.base, dtype=np.float64)
    for level in reversed(pyramid.levels):
        cur = haar_inverse(HaarLevel(low=cur, detail=level.detail, level_index=level.level_index))
    return cur
