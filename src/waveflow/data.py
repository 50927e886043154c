"""Image I/O, dataset manifests, and the synthetic lesion-analog generator.

Images are 8-bit binary graymaps ("P5", maxval 255) mapped to [0,1] via
k/255.  A dataset is a directory of graymaps plus a ``manifest.csv``
listing (path, label, split) records; the train split may contain only
in-distribution records.

The generator draws every random quantity for an image from a stream
seeded by (seed, split, class, index), and it draws the same sequence
regardless of amplitude settings (draw, then scale).  Two consequences:
generation is order- and thread-independent, and a class knob set to
zero contributes exactly nothing — profiles that differ only in blob
radius produce pixel-identical images when fed the same stream.

Rendering has two steps.  The draw takes one image's random numbers
from its stream; the paint applies the per-pixel formulas once over a
(B,S,S) chunk of draws of one profile.  The coordinate grids and the
texture's frequency band are built once per image size.  Every formula
is elementwise per image, so an image's bits do not depend on the chunk
it is painted in; ``render_image`` is the chunk of one.
"""
from __future__ import annotations

import csv
import functools
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "PgmError",
    "ManifestError",
    "ManifestRecord",
    "DatasetManifest",
    "LesionProfile",
    "SynthConfig",
    "LABELS",
    "SPLITS",
    "save_image",
    "load_image",
    "write_manifest",
    "read_manifest",
    "render_image",
    "generate_synthetic",
    "load_split",
    "stack_images",
]

LABELS = ("in_dist", "ood")
SPLITS = ("train", "test")


class PgmError(ValueError):
    """Malformed or unsupported graymap file."""


class ManifestError(ValueError):
    """Malformed dataset manifest or violated dataset invariant."""


# ---------------------------------------------------------------------------
# P5 graymap I/O


def save_image(image: np.ndarray, path: str | os.PathLike) -> None:
    """Write a [0,1] grayscale image as a binary 8-bit graymap.

    An image that cannot be written raises a PgmError that names the path."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3 and image.shape[0] == 1:
        image = image[0]
    if image.ndim != 2:
        raise PgmError(f"{path}: expected a (H,W) or (1,H,W) image, got shape {image.shape}")
    if not np.all(np.isfinite(image)) or image.min() < 0.0 or image.max() > 1.0:
        raise PgmError(f"{path}: image values must be finite and within [0,1]")
    h, w = image.shape
    levels = np.rint(image * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii") + levels.tobytes())


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens, skipping
    '#' comments; returns the tokens and the offset one byte past the
    single whitespace that terminates the last one."""
    tokens: list[bytes] = []
    pos = 0
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PgmError("truncated graymap header")
        tokens.append(data[start:pos])
        if len(tokens) == count:
            if pos >= n:
                raise PgmError("truncated graymap header")
            pos += 1  # exactly one whitespace byte separates header from payload
    return tokens, pos


def load_image(path: str | os.PathLike) -> np.ndarray:
    """Read a binary 8-bit graymap into a (1,H,W) float array with values k/255.

    A malformed file raises a PgmError that names it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_pgm(blob)
    except PgmError as exc:
        raise PgmError(f"{path}: {exc}") from exc


def _decode_pgm(blob: bytes) -> np.ndarray:
    if not blob.startswith(b"P5"):
        raise PgmError(f"not a binary graymap (magic {blob[:2]!r}, expected b'P5')")
    tokens, offset = _header_tokens(blob, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise PgmError(f"non-numeric graymap header fields {tokens[1:]!r}") from exc
    if width <= 0 or height <= 0:
        raise PgmError(f"bad graymap dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"unsupported depth: maxval {maxval}; only 8-bit (maxval 255) is handled")
    payload = blob[offset:]
    if len(payload) < width * height:
        raise PgmError(
            f"truncated payload: {len(payload)} bytes for {width}x{height} pixels"
        )
    pixels = np.frombuffer(payload[: width * height], dtype=np.uint8)
    return (pixels.astype(np.float64) / 255.0).reshape(1, height, width)


# ---------------------------------------------------------------------------
# Manifests


@dataclass(frozen=True)
class ManifestRecord:
    path: str  # relative to the manifest's directory
    label: str
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple[ManifestRecord, ...]
    root: str = "."

    def validate(self) -> None:
        seen: set[str] = set()
        for rec in self.records:
            if rec.label not in LABELS:
                raise ManifestError(f"unknown label {rec.label!r} (allowed: {LABELS})")
            if rec.split not in SPLITS:
                raise ManifestError(f"unknown split {rec.split!r} (allowed: {SPLITS})")
            if rec.split == "train" and rec.label != "in_dist":
                raise ManifestError(
                    f"record {rec.path!r}: train split must contain only in_dist images"
                )
            if rec.path in seen:
                raise ManifestError(f"duplicate path {rec.path!r}")
            seen.add(rec.path)

    def select(self, split: str | None = None, label: str | None = None) -> list[ManifestRecord]:
        return [
            rec
            for rec in self.records
            if (split is None or rec.split == split) and (label is None or rec.label == label)
        ]

    def image_path(self, record: ManifestRecord) -> Path:
        return Path(self.root) / record.path


def write_manifest(manifest: DatasetManifest, path: str | os.PathLike) -> None:
    manifest.validate()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["path", "label", "split"])
    for rec in manifest.records:
        writer.writerow([rec.path, rec.label, rec.split])
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(buffer.getvalue())


def read_manifest(path: str | os.PathLike) -> DatasetManifest:
    try:
        with open(path, encoding="ascii", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ManifestError(f"manifest {path} is not an ASCII CSV file: {exc}") from exc
    if not rows or rows[0] != ["path", "label", "split"]:
        raise ManifestError(
            f"manifest must start with a 'path,label,split' header, got {rows[0] if rows else 'an empty file'}"
        )
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ManifestError(f"line {lineno}: expected 3 fields, got {len(row)}")
        records.append(ManifestRecord(path=row[0], label=row[1], split=row[2]))
    manifest = DatasetManifest(records=tuple(records), root=str(Path(path).parent))
    manifest.validate()
    return manifest


# ---------------------------------------------------------------------------
# Synthetic generator


@dataclass(frozen=True)
class LesionProfile:
    """Per-class knobs; ranges are sampled uniformly per image."""

    radius: tuple[float, float]  # blob radius as a fraction of image size
    contrast: tuple[float, float]  # how much darker the blob is than the skin
    edge_width: float = 0.25  # soft-edge width as a fraction of the radius
    shading: float = 0.15  # interior shading gradient amplitude
    border_irregularity: float = 0.0  # radial harmonic perturbation amplitude
    texture: float = 0.0  # band-limited interior noise amplitude
    hair_strokes: tuple[int, int] = (0, 0)  # inclusive count range

    def validate(self, name: str) -> None:
        for attr in ("radius", "contrast", "hair_strokes"):
            lo, hi = getattr(self, attr)
            if not lo <= hi:
                raise ValueError(f"{name}.{attr}: range ({lo}, {hi}) is inverted")
        if self.radius[0] <= 0 or self.radius[1] >= 0.5:
            raise ValueError(f"{name}.radius must stay within (0, 0.5) of the image size")
        if not (0 <= self.contrast[0] and self.contrast[1] <= 1):
            raise ValueError(f"{name}.contrast must stay within [0, 1]")
        for attr in ("edge_width", "shading", "border_irregularity", "texture"):
            if not math.isfinite(getattr(self, attr)):
                raise ValueError(f"{name}.{attr} must be finite, got {getattr(self, attr)}")
        if self.edge_width <= 0:
            raise ValueError(f"{name}.edge_width must be > 0")
        if min(self.shading, self.border_irregularity, self.texture) < 0:
            raise ValueError(f"{name}: amplitudes must be >= 0")
        if self.hair_strokes[0] < 0:
            raise ValueError(f"{name}.hair_strokes must be >= 0")


_IN_DIST_DEFAULT = LesionProfile(
    radius=(0.18, 0.28),
    contrast=(0.28, 0.50),
    edge_width=0.18,
    shading=0.15,
    border_irregularity=0.05,
    texture=0.015,
    hair_strokes=(0, 0),
)

_OOD_DEFAULT = LesionProfile(
    radius=(0.20, 0.30),
    contrast=(0.28, 0.50),
    edge_width=0.40,
    shading=0.15,
    border_irregularity=0.08,
    texture=0.06,
    hair_strokes=(0, 2),
)


@dataclass(frozen=True)
class SynthConfig:
    image_size: int = 32
    train_in_dist: int = 240
    test_in_dist: int = 80
    test_ood: int = 80
    in_dist: LesionProfile = field(default_factory=lambda: _IN_DIST_DEFAULT)
    ood: LesionProfile = field(default_factory=lambda: _OOD_DEFAULT)
    brightness: tuple[float, float] = (0.62, 0.88)  # shared background, both classes
    background_gradient: float = 0.12
    seed: int = 0

    def validate(self) -> None:
        if self.image_size < 4 or self.image_size & (self.image_size - 1):
            raise ValueError(f"image_size must be a power of two >= 4, got {self.image_size}")
        for attr in ("train_in_dist", "test_in_dist", "test_ood"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1, got {getattr(self, attr)}")
        lo, hi = self.brightness
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"brightness range ({lo}, {hi}) must sit inside [0, 1]")
        if not 0 <= self.background_gradient < math.inf:
            raise ValueError(f"background_gradient must be finite and >= 0, got {self.background_gradient}")
        self.in_dist.validate("in_dist")
        self.ood.validate("ood")


_HARMONICS = np.arange(2.0, 7.0)  # the border's radial harmonics
_CURVE_T = np.linspace(0.0, 1.0, 48)[:, None]  # where a hair stroke's curve is sampled
# Quadratic Bezier weights of a stroke's start, control and end points, (48, 1) each.
_BEZIER = ((1 - _CURVE_T) ** 2, 2 * _CURVE_T * (1 - _CURVE_T), _CURVE_T**2)
_CHUNK = 16  # images painted together; a larger chunk holds larger per-pixel arrays


class _Grid(NamedTuple):
    """The per-pixel constants of one image size."""

    yy: np.ndarray  # (S,S) row of each pixel
    xx: np.ndarray  # (S,S) column of each pixel
    ramp_y: np.ndarray  # (S,S) yy / S - 0.5, the background gradient's axes
    ramp_x: np.ndarray
    band: np.ndarray  # (S,S) the texture's high-frequency FFT pass band


@functools.lru_cache(maxsize=None)
def _grid(size: int) -> _Grid:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    rho = np.sqrt(fx * fx + fy * fy) / 0.5  # 1.0 at the Nyquist frequency
    band = (rho >= 0.6) & (rho <= 0.95)
    grid = _Grid(yy, xx, yy / size - 0.5, xx / size - 0.5, band)
    for array in grid:
        array.flags.writeable = False
    return grid


class _Draw(NamedTuple):
    """One image's random numbers, with the per-image scalars derived from them."""

    brightness: float
    gradient: tuple[float, float, float]  # the background gradient's magnitude, cos and sin of its angle
    center: tuple[float, float]  # (cy, cx)
    radius: float
    contrast: float
    amplitudes: np.ndarray  # (5,) one per harmonic
    phases: np.ndarray  # (5,)
    shade_dir: np.ndarray  # (2,) as (x, y)
    white: np.ndarray  # (S,S) the texture's white noise
    strokes: list[tuple[np.ndarray, float, float]]  # hair: (curve (48, 2) as (x, y), width, darkness)


def _draw(config: SynthConfig, profile: LesionProfile, rng: np.random.Generator) -> _Draw:
    """Take every random number an image needs from its stream, in an order
    that no amplitude knob changes."""
    size = config.image_size
    brightness = rng.uniform(*config.brightness)
    gradient_angle = rng.uniform(0.0, 2.0 * math.pi)
    gradient_mag = rng.uniform(0.0, 1.0) * config.background_gradient
    cy, cx = rng.uniform(0.38 * size, 0.62 * size, 2)
    radius = size * rng.uniform(*profile.radius)
    contrast = rng.uniform(*profile.contrast)
    amplitudes = rng.normal(0.0, 1.0, len(_HARMONICS)) / _HARMONICS
    phases = rng.uniform(0.0, 2.0 * math.pi, len(_HARMONICS))
    shade_dir = rng.normal(0.0, 1.0, 2)
    white = rng.normal(0.0, 1.0, (size, size))
    strokes = []
    for _ in range(int(rng.integers(profile.hair_strokes[0], profile.hair_strokes[1] + 1))):
        # A curved stroke: a quadratic arc of about the image's length.
        scy, scx = rng.uniform(0.2 * size, 0.8 * size, 2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        length = size * rng.uniform(0.7, 1.2)
        bend = rng.uniform(-0.15, 0.15) * length
        width = rng.uniform(0.5, 1.1)
        darkness = rng.uniform(0.2, 0.45)
        ux, uy = math.cos(angle), math.sin(angle)
        p0 = np.array([scx - 0.5 * length * ux, scy - 0.5 * length * uy])
        p2 = np.array([scx + 0.5 * length * ux, scy + 0.5 * length * uy])
        p1 = np.array([scx - bend * uy, scy + bend * ux])  # control point off the chord
        strokes.append((_BEZIER[0] * p0 + _BEZIER[1] * p1 + _BEZIER[2] * p2, width, darkness))
    gradient = (gradient_mag, math.cos(gradient_angle), math.sin(gradient_angle))
    return _Draw(brightness, gradient, (cy, cx), radius, contrast, amplitudes, phases, shade_dir, white, strokes)


def _paint(config: SynthConfig, profile: LesionProfile, draws: list[_Draw]) -> np.ndarray:
    """A (B,S,S) chunk, one image per draw: a soft-edged blob on a shaded
    background, with the profile's irregular-border / texture / hair
    features scaled in.  Each formula runs once over the whole chunk."""
    grid = _grid(config.image_size)

    def per_image(values) -> np.ndarray:  # (B, ...) values, broadcast over each image's pixels
        return np.array(values, dtype=np.float64)[..., None, None]

    gradient_mag, cos, sin = per_image([d.gradient for d in draws]).swapaxes(0, 1)
    cy, cx = per_image([d.center for d in draws]).swapaxes(0, 1)
    radius = per_image([d.radius for d in draws])
    shade_x, shade_y = per_image([d.shade_dir for d in draws]).swapaxes(0, 1)
    image = per_image([d.brightness for d in draws]) + gradient_mag * (grid.ramp_x * cos + grid.ramp_y * sin)

    # Radial border perturbation: fixed harmonic budget, scaled by the knob.
    dy = grid.yy - cy
    dx = grid.xx - cx
    # The (B,5,S,S) terms are updated in place: a fresh array that large
    # costs more in page faults than the arithmetic.
    terms = _HARMONICS[:, None, None] * np.arctan2(dy, dx)[:, None]
    terms += per_image([d.phases for d in draws])
    np.cos(terms, out=terms)
    terms *= per_image([d.amplitudes for d in draws])
    wobble = terms.sum(axis=1)
    local_radius = radius * (1.0 + profile.border_irregularity * wobble)

    # Unit-variance noise restricted to high spatial frequencies, so the
    # texture's energy concentrates in the finest pyramid levels.
    shaped = np.fft.ifft2(np.fft.fft2(np.array([d.white for d in draws])) * grid.band).real
    std = shaped.std(axis=(-2, -1), keepdims=True)
    texture_field = shaped / np.where(std > 1e-12, std, 1.0)

    dist = np.sqrt(dy**2 + dx**2)
    edge = np.maximum(profile.edge_width * radius, 1e-6)
    mask = 1.0 / (1.0 + np.exp((dist - local_radius) / edge))
    interior_shade = profile.shading * (shade_x * dx + shade_y * dy) / radius
    image = image - per_image([d.contrast for d in draws]) * mask * (1.0 + interior_shade)
    image = image + profile.texture * texture_field * mask

    squares = np.empty((len(_CURVE_T), *grid.xx.shape))
    for painted, d in zip(image, draws):
        for curve, width, darkness in d.strokes:
            # Distance to the nearest of the curve's points.  sqrt is monotone
            # and correctly rounded, so one sqrt after the min gives the bits
            # of a sqrt per point.
            dx = grid.xx[0] - curve[:, 0, None]  # (48, S)
            dy = grid.xx[0] - curve[:, 1, None]
            np.add((dx * dx)[:, None, :], (dy * dy)[:, :, None], out=squares)
            stroke_dist = np.sqrt(squares.min(axis=0))
            painted -= darkness * np.exp(-((stroke_dist / width) ** 2))

    return np.clip(image, 0.0, 1.0)


def render_image(config: SynthConfig, profile: LesionProfile, rng: np.random.Generator) -> np.ndarray:
    """One (1,S,S) image drawn from ``rng``: a chunk of one."""
    return _paint(config, profile, [_draw(config, profile, rng)])


_SPLIT_CODE = {"train": 1, "test": 2}
_LABEL_CODE = {"in_dist": 1, "ood": 2}


def _image_rng(seed: int, split: str, label: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SPLIT_CODE[split], _LABEL_CODE[label], index])


def generate_synthetic(
    config: SynthConfig, out_dir: str | os.PathLike, threads: int = 1
) -> DatasetManifest:
    """Write the dataset (graymaps + manifest.csv) and return its manifest.

    Images are painted in chunks of one (split, label); per-image seeds
    make the output bytes independent of the chunking and the thread count.
    """
    config.validate()
    out = Path(out_dir)
    try:
        (out / "images").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create dataset directory {out}: {exc}") from exc

    records: list[ManifestRecord] = []
    chunks: list[tuple[LesionProfile, list[tuple[ManifestRecord, int]]]] = []
    plan = [
        ("train", "in_dist", config.train_in_dist, config.in_dist),
        ("test", "in_dist", config.test_in_dist, config.in_dist),
        ("test", "ood", config.test_ood, config.ood),
    ]
    for split, label, count, profile in plan:
        group = [
            (ManifestRecord(path=f"images/{split}_{label}_{index:04d}.pgm", label=label, split=split), index)
            for index in range(count)
        ]
        records += [rec for rec, _ in group]
        chunks += [(profile, group[start : start + _CHUNK]) for start in range(0, count, _CHUNK)]

    def paint_and_save(chunk):
        profile, members = chunk
        draws = [_draw(config, profile, _image_rng(config.seed, rec.split, rec.label, i)) for rec, i in members]
        for (rec, _), image in zip(members, _paint(config, profile, draws)):
            save_image(image, out / rec.path)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(paint_and_save, chunks))
    else:
        for chunk in chunks:
            paint_and_save(chunk)

    manifest = DatasetManifest(records=tuple(records), root=str(out))
    write_manifest(manifest, out / "manifest.csv")
    return manifest


def load_split(
    manifest: DatasetManifest, split: str, label: str | None = None
) -> tuple[np.ndarray, list[ManifestRecord]]:
    """Stack a split's images into an (N,1,S,S) array (in manifest order)."""
    records = manifest.select(split=split, label=label)
    if not records:
        raise ManifestError(f"no records with split={split!r}, label={label!r}")
    images = stack_images(records, [load_image(manifest.image_path(rec)) for rec in records])
    return images, records


def stack_images(
    records: list[ManifestRecord], images: list[np.ndarray], shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Stack the images loaded for ``records`` into one (N,1,S,S) array.

    Every image must have ``shape`` (by default the first image's); the
    error names the manifest path of the first image that differs.
    """
    shape = shape or images[0].shape
    for rec, image in zip(records, images):
        if image.shape != shape:
            raise ManifestError(f"{rec.path}: shape {image.shape} differs from the first image's {shape}")
    return np.stack(images)
