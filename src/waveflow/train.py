"""Maximum-likelihood training with affine augmentation and early stopping.

A model's components (a pyramid model's residue model and level flows;
Glow's one flow) train independently.  Every component owns a seeded
random stream, so runs are bit-identical given the same data, config, and
seed, whichever process trains a component and in whatever order.
``train(..., workers=n)`` splits the components into up to ``n`` bins,
longest first by input size.  The calling process trains the bin with
the heaviest component, each other bin trains in a ``spawn``-started
worker, all on one BLAS thread, and the parent writes the workers'
parameters and actnorm state back into its model.  One bin
(``workers=1``, or a one-component Glow model) trains in the calling
process, in ``components()`` order, with BLAS untouched.

The monitored quantity is the mean train-set NLL on clean
(un-augmented, un-dequantized) data; training stops after
``patience`` epochs without strict improvement and the best epoch's
parameters are restored.  A component is one epoch loop: epoch 0 is its
first pass, which takes no optimizer step and measures the monitored NLL
before training.  A non-finite loss or monitored NLL, or a
``FlowNumericsError`` from any pass, epoch 0's included, aborts the
component; every abort leaves the loop by one path, which restores the
best parameters seen so far.  ``train`` takes the images ``score_batch``
takes (finite, in [0, 1], of the model's image size) and rejects others
before any component trains.  ``model.component_inputs`` splits each
batch (one Haar pyramid per batch) and the clean set, once per process
that trains.  The monitored NLL and actnorm initialization run without an
autodiff graph; the monitored NLL runs over the clean set in
``batch_size`` chunks, and since every op is per sample it equals the
whole-set value bit for bit.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import math
import multiprocessing
import os
import pickle
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .flows import FlowModel, FlowNumericsError, bits_per_dim, checked_images
from .haar import build_pyramid  # noqa: F401  (perfbench/tracer.py patches this binding)
from .waveletflow import GaussianBase, WaveletFlowModel

__all__ = [
    "AugmentConfig",
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "EarlyStopper",
    "sample_augment_params",
    "augment",
    "dequantize",
    "train",
]


@dataclass(frozen=True)
class AugmentConfig:
    """Uniform sampling ranges for the per-image affine warp."""

    rotation: tuple[float, float] = (-180.0, 180.0)  # degrees
    translation: tuple[float, float] = (-0.1, 0.1)  # fraction of the image size
    scaling: tuple[float, float] = (0.9, 1.1)
    shear: tuple[float, float] = (-10.0, 10.0)  # degrees, x and y independently

    def validate(self) -> None:
        for name in ("rotation", "translation", "scaling", "shear"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"augment range {name}={lo, hi} is invalid")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 10
    augment: AugmentConfig | None = field(default_factory=AugmentConfig)
    dequantize: bool = False
    seed: int = 0

    def validate(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must all be >= 1")
        if self.augment is not None:
            self.augment.validate()


@dataclass(frozen=True)
class EpochRecord:
    epoch: int  # 0 is the pre-training evaluation
    nll: float  # mean clean train-set NLL, nats
    bpd: float
    seconds: float  # wall time since this component started


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    best_epoch: int = 0
    aborted: bool = False


class EarlyStopper:
    """Stop after ``patience`` consecutive epochs without strict improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.bad = 0

    def update(self, epoch: int, nll: float) -> tuple[bool, bool]:
        """Returns (improved, stop)."""
        if nll < self.best:
            self.best = nll
            self.best_epoch = epoch
            self.bad = 0
            return True, False
        self.bad += 1
        return False, self.bad >= self.patience


def sample_augment_params(rng: np.random.Generator, config: AugmentConfig) -> dict[str, float]:
    return {
        "rotation_deg": float(rng.uniform(*config.rotation)),
        "translate_x": float(rng.uniform(*config.translation)),
        "translate_y": float(rng.uniform(*config.translation)),
        "scale": float(rng.uniform(*config.scaling)),
        "shear_x_deg": float(rng.uniform(*config.shear)),
        "shear_y_deg": float(rng.uniform(*config.shear)),
    }


def _affine_matrix(params: dict[str, float]) -> np.ndarray:
    theta = math.radians(params["rotation_deg"])
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shear_x = np.array([[1.0, math.tan(math.radians(params["shear_x_deg"]))], [0.0, 1.0]])
    shear_y = np.array([[1.0, 0.0], [math.tan(math.radians(params["shear_y_deg"])), 1.0]])
    return rot @ shear_x @ shear_y * params["scale"]


def _warp(plane: np.ndarray, matrix: np.ndarray, tx: float, ty: float) -> np.ndarray:
    """Inverse-mapped affine warp with bilinear sampling and edge replication."""
    H, W = plane.shape
    det = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    if abs(det) < 1e-12:
        raise ValueError("augmentation transform is singular")
    inv = np.array([[matrix[1, 1], -matrix[0, 1]], [-matrix[1, 0], matrix[0, 0]]]) / det
    cx, cy = (W - 1) / 2.0, (H - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(H, dtype=np.float64), np.arange(W, dtype=np.float64), indexing="ij")
    dx = xs - cx - tx * W
    dy = ys - cy - ty * H
    src_x = np.clip(inv[0, 0] * dx + inv[0, 1] * dy + cx, 0.0, W - 1.0)
    src_y = np.clip(inv[1, 0] * dx + inv[1, 1] * dy + cy, 0.0, H - 1.0)
    x0 = np.floor(src_x).astype(np.int64)
    y0 = np.floor(src_y).astype(np.int64)
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    fx = src_x - x0
    fy = src_y - y0
    top = plane[y0, x0] * (1.0 - fx) + plane[y0, x1] * fx
    bottom = plane[y1, x0] * (1.0 - fx) + plane[y1, x1] * fx
    return top * (1.0 - fy) + bottom * fy


def augment(image: np.ndarray, rng: np.random.Generator, config: AugmentConfig) -> np.ndarray:
    """One uniformly-sampled affine warp composed of rotation, translation,
    scaling, and shear, applied with bilinear interpolation to every plane
    of a (C,H,W) image."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ValueError(f"augment takes a (C,H,W) image, got shape {image.shape}")
    params = sample_augment_params(rng, config)
    matrix = _affine_matrix(params)
    out = np.stack(
        [_warp(p, matrix, params["translate_x"], params["translate_y"]) for p in image]
    )
    return np.clip(out, 0.0, 1.0)


def dequantize(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Spread 8-bit pixel levels over continuous bins: each k/255 value
    becomes uniform on [k/256, (k+1)/256), keeping the result inside [0, 1)."""
    image = np.asarray(image, dtype=np.float64)
    noise = rng.random(image.shape) / 256.0
    return image * (255.0 / 256.0) + noise


class _NonFinite(Exception):
    """A training loss or a monitored NLL that is not finite."""


def _prepare_images(batch: np.ndarray, rng: np.random.Generator, config: TrainConfig) -> np.ndarray:
    if config.augment is None and not config.dequantize:
        return batch
    out = []
    for img in batch:
        if config.augment is not None:
            img = augment(img, rng, config.augment)
        if config.dequantize:
            img = dequantize(img, rng)
        out.append(img)
    return np.stack(out)


def _train_component(
    part: FlowModel | GaussianBase,
    inputs,
    images: np.ndarray,
    clean: tuple[np.ndarray, np.ndarray | None],
    config: TrainConfig,
    rng: np.random.Generator,
) -> TrainHistory:
    """Shared loop: minimize the mean NLL under ``part`` of ``inputs(batch)``
    over batches of ``images``; ``clean`` is the whole clean set's input,
    the monitored quantity's.  Epoch 0 takes no step: its pass measures the
    monitored NLL before training."""
    start = time.perf_counter()
    parameters = part.parameters()
    dims = int(np.prod(part.input_shape))
    optimizer = ad.Adam(parameters, learning_rate=config.learning_rate)
    stopper = EarlyStopper(config.patience)
    history = TrainHistory(records=[])
    best: list[np.ndarray] = []  # epoch 0 takes no step, so aborting there restores nothing
    clean_x, clean_cond = clean
    step = config.batch_size
    try:
        for epoch in range(config.max_epochs + 1):
            if epoch > 0:
                order = rng.permutation(len(images))
                for lo in range(0, len(images), step):
                    x, cond = inputs(_prepare_images(images[order[lo : lo + step]], rng, config))
                    if epoch == 1 and lo == 0:
                        part.initialize_actnorm(x, cond)
                    loss = ad.affine(ad.reduce_sum(part.log_prob_graph(x, cond)), -1.0 / len(x))
                    if not np.isfinite(loss.data):
                        raise _NonFinite
                    loss.backward()
                    optimizer.step()
            # Every op is per sample, so batch-sized chunks give the whole-set
            # value bit for bit without the whole set's im2col columns at once.
            with ad.no_grad():
                lp = [
                    part.log_prob_graph(
                        clean_x[lo : lo + step], None if clean_cond is None else clean_cond[lo : lo + step]
                    ).data
                    for lo in range(0, len(clean_x), step)
                ]
            nll = -float(np.mean(np.concatenate(lp)))
            history.records.append(EpochRecord(epoch, nll, bits_per_dim(-nll, dims), time.perf_counter() - start))
            if not np.isfinite(nll):
                raise _NonFinite
            improved, stop = stopper.update(epoch, nll)
            if improved:
                best = [p.data.copy() for p in parameters]
            if stop:
                break
    except (_NonFinite, FlowNumericsError):
        history.aborted = True
    for p, saved in zip(parameters, best):
        p.data[...] = saved
    history.best_epoch = stopper.best_epoch
    return history


# Random stream of a pixel flow; a pyramid component's is its level number.
_FLOW_STREAM = 1000


def _component_level(name: str) -> int | None:
    """The level a component models: 0 for 'base', i for 'level<i>', and
    None for a pixel flow ('flow')."""
    if name == "flow":
        return None
    return 0 if name == "base" else int(name.removeprefix("level"))


def _train_parts(
    model: FlowModel | WaveletFlowModel, names: list[str], images: np.ndarray, config: TrainConfig
) -> dict[str, TrainHistory]:
    """Train the named components one after another in this process."""
    parts = model.components()
    clean = model.component_inputs(images)  # shared by every component's monitored NLL
    histories = {}
    for name in names:
        level = _component_level(name)
        histories[name] = _train_component(
            parts[name],
            inputs=lambda batch, name=name: model.component_inputs(batch)[name],
            images=images,
            clean=clean[name],
            config=config,
            rng=np.random.default_rng([config.seed, _FLOW_STREAM if level is None else level]),
        )
    return histories


def _bins(parts: dict[str, FlowModel | GaussianBase], workers: int) -> list[list[str]]:
    """Split the component names into ``min(workers, len(parts))`` bins,
    longest first, each into the least loaded bin; a part's cost is the
    size of its input.  Bin 0 holds the heaviest component."""
    cost = {name: math.prod(part.input_shape) for name, part in parts.items()}
    bins: list[list[str]] = [[] for _ in range(min(workers, len(parts)))]
    loads = [0] * len(bins)
    for name in sorted(cost, key=cost.get, reverse=True):
        i = loads.index(min(loads))
        bins[i].append(name)
        loads[i] += cost[name]
    return bins


# Thread-count (getter, setter) symbols of numpy's bundled OpenBLAS, newest first.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas() -> tuple | None:
    """The thread-count getter and setter of the OpenBLAS numpy bundles,
    or None where there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for get, set_ in _BLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its thread
    count; a no-op without OpenBLAS."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _state(part: FlowModel | GaussianBase) -> tuple[list[np.ndarray], list[tuple[bool, list[str]]]]:
    """What training changes in a part: its parameter arrays and each
    actnorm layer's ``initialized`` flag and ``warnings``."""
    return [p.data for p in part.parameters()], [(a.initialized, a.warnings) for a in part.actnorm_layers()]


def _worker(payload: str, conn) -> None:
    """Train the components a payload file names, on one BLAS thread, and
    send back their histories and states, or the exception that stopped them."""
    try:
        with open(payload, "rb") as fh:
            model, names, images, config = pickle.load(fh)
        with _one_blas_thread():
            histories = _train_parts(model, names, images, config)
        parts = model.components()
        message = ("trained", histories, {name: _state(parts[name]) for name in names})
    except Exception as exc:  # re-raised by the caller, with the worker's traceback as a note
        exc.add_note(f"raised in a training worker:\n{traceback.format_exc()}")
        message = ("raised", exc)
    conn.send(message)
    conn.close()


def _train_in_processes(
    model: FlowModel | WaveletFlowModel, bins: list[list[str]], images: np.ndarray, config: TrainConfig
) -> dict[str, TrainHistory]:
    """Train bin 0 here and every other bin in its own spawned process.

    Each worker's payload is pickled into a private temporary directory,
    so a process starts with only the file's path and a pipe end.  On any
    exit every worker is terminated and joined before the directory goes.
    """
    ctx = multiprocessing.get_context("spawn")
    histories: dict[str, TrainHistory] = {}
    states = {}
    with tempfile.TemporaryDirectory(prefix="waveflow-train-") as tmp:
        workers = []
        try:
            for index, names in enumerate(bins[1:], start=1):
                payload = os.path.join(tmp, f"bin{index}.pickle")
                with open(payload, "wb") as fh:
                    pickle.dump((model, names, images, config), fh, protocol=pickle.HIGHEST_PROTOCOL)
                receive, send = ctx.Pipe(duplex=False)
                process = ctx.Process(target=_worker, args=(payload, send), daemon=True)
                process.start()
                send.close()
                workers.append((names, process, receive))
            with _one_blas_thread():
                histories.update(_train_parts(model, bins[0], images, config))
            for names, process, receive in workers:
                try:
                    message = receive.recv()
                except (EOFError, OSError):
                    process.join()
                    raise ChildProcessError(
                        f"training worker for {', '.join(names)} exited with code {process.exitcode}"
                    ) from None
                if message[0] == "raised":
                    raise message[1]
                histories.update(message[1])
                states.update(message[2])
        finally:
            for _, process, receive in workers:
                if process.is_alive():
                    process.terminate()
                process.join()
                receive.close()
    for name, part in model.components().items():
        if name in states:
            arrays, actnorms = states[name]
            for p, data in zip(part.parameters(), arrays):
                p.data[...] = data
            for layer, (initialized, warnings) in zip(part.actnorm_layers(), actnorms):
                layer.initialized, layer.warnings = initialized, warnings
    return histories


def train(
    model: FlowModel | WaveletFlowModel,
    images: np.ndarray,
    config: TrainConfig,
    levels: list[int] | None = None,
    workers: int = 1,
) -> dict[str, TrainHistory]:
    """Fit a pixel flow or a pyramid model on a stack of (1,S,S) images,
    finite and in [0, 1] like ``score_batch``'s.

    Each of ``model.components()`` trains independently; ``levels``
    restricts training to a subset of a pyramid model's components (0 means
    the base residue model; a pixel flow has no levels).  ``workers`` caps
    the processes training at once: the components are split into that
    many bins, and every bin but the heaviest trains in a spawned process;
    the result is the same for any value.  Returns one history per trained
    component, keyed 'flow', 'base', 'level<i>', in ``components()`` order.
    """
    config.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[1] != 1:
        raise ValueError(f"expected images of shape (N,1,S,S), got {images.shape}")
    if len(images) == 0:
        raise ValueError("training set is empty")
    if not isinstance(model, (FlowModel, WaveletFlowModel)):
        raise TypeError(f"cannot train a {type(model).__name__}")
    size = model.architecture["image_size"]
    if images.shape[-1] != size:
        raise ValueError(f"images are {images.shape[-1]} px but the model expects {size}")
    images = checked_images(images, (1, size, size))
    parts = model.components()
    if levels is not None:
        known = sorted(level for level in map(_component_level, parts) if level is not None)
        unknown = set(levels) - set(known)
        if unknown:
            raise ValueError(f"unknown levels {sorted(unknown)}; the model's levels are {known}")
        parts = {name: part for name, part in parts.items() if _component_level(name) in levels}
    bins = _bins(parts, workers)
    if len(bins) <= 1:
        return _train_parts(model, list(parts), images, config)
    histories = _train_in_processes(model, bins, images, config)
    return {name: histories[name] for name in parts}
