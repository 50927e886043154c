"""Oracles shared by several test modules: a random well-conditioned flow,
a central-difference log-determinant and parameter gradient, a
brute-force pairwise AUC, the trapezoid area under ROC points, the
SHA-256 digest of float64 arrays that bit-exact pins compare, a bit-exact
comparison of two graphs' outputs and input gradients, the bytes a call's
result keeps allocated, a residue model that fails when it trains, the
usable core count that is the default of ``[run] threads``, and the
one-image-at-a-time synthetic lesion renderer that ``data.render_image``
must reproduce byte for byte."""
from __future__ import annotations

import functools
import hashlib
import math
import multiprocessing
import os
import tracemalloc

import numpy as np

from waveflow import autodiff as ad
from waveflow.flows import FlowModel
from waveflow.waveletflow import GaussianBase

# The CPUs this process may run on.
USABLE_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def randomize(model: FlowModel, rng: np.random.Generator, scale: float = 0.1) -> None:
    """Make the model a non-trivial, well-conditioned bijection.

    Perturbation size matters: weights far larger than anything training
    would produce push activations to 1e4 and amplify float round-off, so
    keep per-layer gains near one.
    """
    for p in model.parameters():
        p.data[...] = rng.normal(0.0, scale, size=p.data.shape)
    for layer in model.actnorm_layers():
        layer.scale.data[...] = np.abs(layer.scale.data) + 0.7
        layer.initialized = True


def numeric_logabsdet(fn, x: np.ndarray, eps: float = 1e-5) -> float:
    """log|det J| of a flattened bijection via central differences."""
    d = x.size
    jac = np.zeros((d, d))
    flat = x.reshape(-1).copy()
    for j in range(d):
        bumped = flat.copy()
        bumped[j] += eps
        plus = fn(bumped.reshape(x.shape))
        bumped[j] -= 2 * eps
        minus = fn(bumped.reshape(x.shape))
        jac[:, j] = (plus - minus) / (2 * eps)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign != 0, "numerical Jacobian is singular"
    return float(logdet)


def finite_diff_grad(loss_fn, params: list[ad.Parameter], epsilon: float = 1e-4) -> list[np.ndarray]:
    """Central-difference gradient of ``loss_fn()`` w.r.t. each parameter."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(loss_fn())
            flat[i] = orig - epsilon
            f_minus = float(loss_fn())
            flat[i] = orig
            gf[i] = (f_plus - f_minus) / (2.0 * epsilon)
        grads.append(g)
    return grads


def pairwise_auc(id_scores, ood_scores) -> float:
    """Brute-force oracle: P(ood > id) + 0.5 P(tie) over all pairs."""
    wins = ties = 0
    for o in ood_scores:
        for i in id_scores:
            wins += o > i
            ties += o == i
    return (wins + 0.5 * ties) / (len(id_scores) * len(ood_scores))


def trapezoid_area(points: np.ndarray) -> float:
    """Area under (x, y) points by the trapezoid rule."""
    points = np.asarray(points, dtype=np.float64)
    integrate = getattr(np, "trapezoid", None) or np.trapz
    return float(integrate(points[:, 1], points[:, 0]))


def digest(*arrays) -> str:
    """SHA-256 of the arrays' float64 bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and IEEE bit patterns; unlike ``np.array_equal`` this
    tells -0.0 from +0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _probed(arrays: dict[str, np.ndarray]) -> tuple[dict[str, ad.Tensor], dict[str, np.ndarray]]:
    """Graph inputs, by name, that record the exact gradient each receives,
    and the dict a backward pass fills with those gradients.  A
    ``Parameter`` adds its gradient into a zero ``grad``, which turns -0.0
    into +0.0; a probe keeps every bit."""
    grads: dict[str, np.ndarray] = {}

    def probe(name: str, value: np.ndarray) -> ad.Tensor:
        def back(g):
            grads[name] = np.array(g)
            return (None,)

        return ad.Tensor(value, (ad.Tensor(0.0),), back)

    return {name: probe(name, value) for name, value in arrays.items()}, grads


def assert_same_graph(fused, generic, arrays: dict, out_grads: tuple, threads: int = 1) -> None:
    """``fused(**inputs)`` and ``generic(**inputs)`` return the same tuple of
    outputs and send every input the same gradient of
    sum_i sum(outputs[i] * out_grads[i]), bit for bit, at ``batch_threads``
    width ``threads``."""
    results = []
    for build in (generic, fused):
        inputs, grads = _probed(arrays)
        with ad.batch_threads(threads):
            outs = build(**inputs)
            terms = [ad.reduce_sum(ad.mul(out, ad.Tensor(g))) for out, g in zip(outs, out_grads, strict=True)]
            functools.reduce(ad.add, terms).backward()
        results.append(([out.data for out in outs], grads))
    (want, want_grads), (got, got_grads) = results
    for i, (a, b) in enumerate(zip(got, want)):
        assert same_bits(a, b), f"output {i}"
    assert sorted(got_grads) == sorted(want_grads) == sorted(arrays)
    for name in arrays:
        assert same_bits(got_grads[name], want_grads[name]), name


def with_signed_zeros(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` with +0.0, -0.0, +0.0, -0.0 over its first four entries."""
    a = np.array(a, dtype=np.float64)
    flat = a.reshape(-1)
    flat[0:4:2], flat[1:4:2] = 0.0, -0.0
    return a


def held_bytes(run) -> int:
    """Bytes that ``run()`` allocated and still holds while its result is
    alive, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()  # noqa: F841  (kept alive while measuring)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class FaultyBase(GaussianBase):
    """A pyramid residue model whose first pass fails: it raises
    ``LookupError``, or with ``exit_code`` set and inside a worker process
    it ends that process with the code.  ``input_shape`` sets its training
    cost, which decides whether it trains in a worker or in the caller."""

    def __init__(self, exit_code: int | None = None, input_shape: tuple[int, ...] = (1, 1, 1)):
        super().__init__()
        self.exit_code = exit_code
        self.input_shape = input_shape

    def log_prob_graph(self, x, cond=None):
        if self.exit_code is not None and multiprocessing.parent_process() is not None:
            os._exit(self.exit_code)
        raise LookupError("the faulty base failed")


# ---------------------------------------------------------------------------
# Reference synthetic lesion renderer: one image at a time, every per-pixel
# field built from scratch, every stroke distance a sqrt before the min.


def _band_limited_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    """Unit-variance noise restricted to high spatial frequencies, so the
    texture's energy concentrates in the finest pyramid levels."""
    white = rng.normal(0.0, 1.0, (size, size))
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    rho = np.sqrt(fx * fx + fy * fy) / 0.5  # 1.0 at the Nyquist frequency
    band = (rho >= 0.6) & (rho <= 0.95)
    shaped = np.fft.ifft2(np.fft.fft2(white) * band).real
    std = shaped.std()
    return shaped / std if std > 1e-12 else shaped


def _hair_stroke(rng: np.random.Generator, size: int, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Darkening field of one curved stroke (a quadratic arc of ~image length)."""
    cy, cx = rng.uniform(0.2 * size, 0.8 * size, 2)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    length = size * rng.uniform(0.7, 1.2)
    bend = rng.uniform(-0.15, 0.15) * length
    width = rng.uniform(0.5, 1.1)
    darkness = rng.uniform(0.2, 0.45)
    ux, uy = math.cos(angle), math.sin(angle)
    p0 = np.array([cx - 0.5 * length * ux, cy - 0.5 * length * uy])
    p2 = np.array([cx + 0.5 * length * ux, cy + 0.5 * length * uy])
    p1 = np.array([cx - bend * uy, cy + bend * ux])  # control point off the chord
    t = np.linspace(0.0, 1.0, 48)[:, None]
    curve = (1 - t) ** 2 * p0 + 2 * t * (1 - t) * p1 + t**2 * p2  # (48, 2) as (x, y)
    dx = xx[None, :, :] - curve[:, 0, None, None]
    dy = yy[None, :, :] - curve[:, 1, None, None]
    dist = np.sqrt(dx * dx + dy * dy).min(axis=0)
    return darkness * np.exp(-((dist / width) ** 2))


def reference_render_image(config, profile, rng: np.random.Generator) -> np.ndarray:
    """One (1,S,S) image: a soft-edged blob on a shaded background, with the
    profile's irregular-border / texture / hair features scaled in."""
    size = config.image_size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)

    brightness = rng.uniform(*config.brightness)
    gradient_angle = rng.uniform(0.0, 2.0 * math.pi)
    gradient_mag = rng.uniform(0.0, 1.0) * config.background_gradient
    image = brightness + gradient_mag * (
        (xx / size - 0.5) * math.cos(gradient_angle) + (yy / size - 0.5) * math.sin(gradient_angle)
    )

    cy, cx = rng.uniform(0.38 * size, 0.62 * size, 2)
    radius = size * rng.uniform(*profile.radius)
    contrast = rng.uniform(*profile.contrast)

    # Radial border perturbation: fixed harmonic budget, scaled by the knob.
    harmonics = np.arange(2, 7)
    amplitudes = rng.normal(0.0, 1.0, len(harmonics)) / harmonics
    phases = rng.uniform(0.0, 2.0 * math.pi, len(harmonics))
    theta = np.arctan2(yy - cy, xx - cx)
    wobble = np.sum(
        amplitudes[:, None, None] * np.cos(harmonics[:, None, None] * theta[None] + phases[:, None, None]),
        axis=0,
    )
    local_radius = radius * (1.0 + profile.border_irregularity * wobble)

    shade_dir = rng.normal(0.0, 1.0, 2)
    texture_field = _band_limited_noise(rng, size)

    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    edge = max(profile.edge_width * radius, 1e-6)
    mask = 1.0 / (1.0 + np.exp((dist - local_radius) / edge))
    interior_shade = profile.shading * (shade_dir[0] * (xx - cx) + shade_dir[1] * (yy - cy)) / radius
    image = image - contrast * mask * (1.0 + interior_shade)
    image = image + profile.texture * texture_field * mask

    count = int(rng.integers(profile.hair_strokes[0], profile.hair_strokes[1] + 1))
    for _ in range(count):
        image = image - _hair_stroke(rng, size, yy, xx)

    return np.clip(image, 0.0, 1.0)[None]
