"""Binary partition masks for affine coupling layers.

A mask value of 1 marks a pass-through cell (it feeds the scale/translation
network unchanged); 0 marks a cell the coupling transforms.  Masks are pure
functions of (strategy, step_index, shape) and alternate between consecutive
steps so stacked couplings eventually touch every cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mask", "MaskError", "STRATEGIES", "make_mask"]

STRATEGIES = ("channel-half", "checkerboard", "cycle", "horizontal", "radial")


class MaskError(ValueError):
    """The requested mask cannot partition the given shape."""


@dataclass(frozen=True)
class Mask:
    strategy: str
    step_index: int
    values: np.ndarray  # (C,H,W) of {0.0, 1.0}


def _channel_window(C: int, step_index: int) -> np.ndarray:
    """Wrap-around window of ceil(C/2) passing channels, sliding per step."""
    keep = (C + 1) // 2
    flags = np.zeros(C)
    for i in range(keep):
        flags[(step_index + i) % C] = 1.0
    return flags


def _spatial_grid(strategy: str, step_index: int, H: int, W: int) -> np.ndarray:
    if strategy == "checkerboard":
        ii, jj = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
        return ((ii + jj + step_index) % 2 == 0).astype(np.float64)
    if strategy == "horizontal":
        grid = np.zeros((H, W))
        grid[: (H + 1) // 2, :] = 1.0
        return grid if step_index % 2 == 0 else 1.0 - grid
    if strategy == "radial":
        ci, cj = (H - 1) / 2.0, (W - 1) / 2.0
        ii, jj = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
        dist = np.abs(ii - ci) + np.abs(jj - cj)
        grid = (dist <= np.median(dist)).astype(np.float64)
        return grid if step_index % 2 == 0 else 1.0 - grid
    raise AssertionError(strategy)


def make_mask(strategy: str, step_index: int, shape: tuple[int, ...]) -> Mask:
    """Build the (C,H,W) 0/1 mask for one coupling step.

    Channel strategies require at least two channels.  Spatial strategies
    whose pattern cannot split a tiny grid (e.g. a 1x1 plane) fall back to
    a sliding channel window so both partitions stay non-empty.
    """
    if strategy not in STRATEGIES:
        raise MaskError(f"unknown mask strategy {strategy!r}; expected one of {STRATEGIES}")
    if step_index < 0:
        raise MaskError(f"step_index must be >= 0, got {step_index}")
    if len(shape) != 3:
        raise MaskError(f"mask shape must be (C,H,W), got {shape}")
    C, H, W = (int(s) for s in shape)
    if C < 1 or H < 1 or W < 1:
        raise MaskError(f"mask shape must be positive, got {shape}")
    if C * H * W < 2:
        raise MaskError("mask cannot split one element")

    if strategy in ("channel-half", "cycle"):
        if C < 2:
            raise MaskError(f"{strategy} mask needs at least 2 channels, got {C}")
        if strategy == "channel-half":
            flags = np.zeros(C)
            flags[: (C + 1) // 2] = 1.0
            if step_index % 2 == 1:
                flags = 1.0 - flags
        else:
            flags = _channel_window(C, step_index)
        values = np.broadcast_to(flags[:, None, None], (C, H, W)).copy()
    else:
        grid = _spatial_grid(strategy, step_index, H, W)
        total = grid.sum()
        if total == 0 or total == H * W:
            # Degenerate spatial pattern: split by channels instead.
            if C < 2:
                raise MaskError("mask cannot split one element")
            flags = _channel_window(C, step_index)
            values = np.broadcast_to(flags[:, None, None], (C, H, W)).copy()
        else:
            values = np.broadcast_to(grid[None, :, :], (C, H, W)).copy()

    count = values.sum()
    assert 0 < count < values.size, "mask partitions must both be non-empty"
    return Mask(strategy=strategy, step_index=step_index, values=values)
