"""Affine coupling flows with exact log-determinants.

The normalizing direction maps data x to latents z.  Each coupling step
leaves the pass-through partition untouched, feeds it (plus any
conditioning channels) to a three-layer 3x3 conv network, and applies
z = (x + t) * exp(s) on the transformed partition; the layer's
log-determinant is the sum of s over that partition.  Scales are bounded
to [-2, 2] with a tanh so exp can never overflow.

A model is ``scales``: L lists of K (``ActNorm``, ``AffineCoupling``)
steps.  A step runs the actnorm, reverses the channel order and runs the
coupling.  With L > 1 every scale starts with a space-to-depth squeeze
and all but the last end with a split whose second half is a latent,
scored against a standard normal; squeeze, reversal and split have no
parameters and are plain ``autodiff`` ops, not layers of their own.
Conditioning applies only to single-scale (L=1) flows, such as the levels
of a wavelet pyramid: every coupling then sees the condition at the input
resolution.

Shape contract: the graph APIs (``forward_latents``, ``log_prob_graph``,
``inverse_from_latents``, ``initialize_actnorm`` and the ``forward`` and
``inverse`` of ``ActNorm`` and ``AffineCoupling``) take (N,C,H,W) batches
and return one value per sample; a single image is a batch with N=1.
``FlowModel.log_density`` and ``FlowModel.sample`` are the single-image
entry points: they take and return (C,H,W) arrays.

Every detector returns one ``ScoreReport`` per image of a batch;
``FlowModel.score_batch`` gives a pixel flow's bits/dim, with no levels.

The forward-only entry points (``log_density``, ``score_batch``,
``initialize_actnorm``, ``inverse_from_latents`` and so ``sample``) run
under ``autodiff.no_grad`` and keep no graph; ``log_prob_graph`` builds one
for training.

``FlowModel.components()`` is ``{"flow": self}``: a Glow model is the
one-component case of the list that training and checkpoints iterate.

``build_glow`` records its layout arguments as ``model.architecture``, and
``model.family`` is ``"glow"``; a checkpoint restores the model as
``build_glow(**architecture)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .masks import Mask, make_mask

__all__ = [
    "LogDensity",
    "ScoreReport",
    "checked_images",
    "FlowNumericsError",
    "bits_per_dim",
    "ActNorm",
    "AffineCoupling",
    "FlowModel",
    "build_glow",
    "coupling_parameter_count",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SCALE_BOUND = 2.0


class FlowNumericsError(ArithmeticError):
    """A forward pass produced a non-finite value; carries the layer index."""

    def __init__(self, layer_index: int, message: str = ""):
        self.layer_index = layer_index
        super().__init__(message or f"non-finite values after flow layer {layer_index}")

    def __reduce__(self):  # pickles, e.g. out of a training worker, with its index
        return type(self), (self.layer_index, str(self)), self.__dict__


@dataclass(frozen=True)
class LogDensity:
    """Exact log-likelihood in nats plus its bits-per-dimension form."""

    log_likelihood: float
    bits_per_dim: float
    dims: int


@dataclass(frozen=True)
class ScoreReport:
    """One image's anomaly score, its value per level (key 0 is a pyramid's
    residue) and the levels averaged into it.  A pixel flow has no levels."""

    per_level: dict[int, float]
    scoring_levels: tuple[int, ...]
    score: float


def checked_images(images, shape: tuple[int, ...]) -> np.ndarray:
    """A (N,) + ``shape`` batch as float64, rejected unless its values are
    finite and lie in [0, 1]."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[1:] != shape:
        raise ValueError(f"expected images of shape (N, {', '.join(map(str, shape))}), got {images.shape}")
    if not np.all(np.isfinite(images)):
        raise ValueError("image contains non-finite values")
    if images.min() < 0.0 or images.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")
    return images


def bits_per_dim(log_prob, dims: int):
    """Bits/dim of log-likelihoods in nats over ``dims`` dimensions; takes a
    float or an array of per-sample values."""
    return -log_prob / (dims * math.log(2.0))


# Reducing these axes of a (N,C,H,W) batch leaves one value per sample.
_SAMPLE_AXES = (1, 2, 3)


def _standard_normal_logp(t: ad.Tensor) -> ad.Tensor:
    dims = int(np.prod(t.data.shape[1:]))
    sq = ad.reduce_sum(ad.mul(t, t), axes=_SAMPLE_AXES)
    return ad.affine(sq, -0.5, -0.5 * _LOG_2PI * dims)


class ActNorm:
    """Per-channel affine with data-dependent initialization.

    Starts as the identity; ``initialize`` sets offset/scale so the init
    batch has per-channel zero mean and unit variance.  A zero-variance
    channel keeps scale 1 and leaves a note in ``warnings``.
    """

    def __init__(self, channels: int, name: str = "actnorm"):
        self.channels = channels
        self.scale = ad.Parameter(f"{name}.scale", np.ones(channels))
        self.offset = ad.Parameter(f"{name}.offset", np.zeros(channels))
        self.initialized = False
        self.warnings: list[str] = []

    def parameters(self) -> list[ad.Parameter]:
        return [self.scale, self.offset]

    def initialize(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.float64)
        mean = batch.mean(axis=(0, 2, 3))
        std = batch.std(axis=(0, 2, 3))
        scale = np.empty_like(std)
        for c in range(self.channels):
            if std[c] < 1e-12:
                scale[c] = 1.0
                self.warnings.append(
                    f"{self.scale.name}: channel {c} has zero variance at init; scale clamped to 1"
                )
            else:
                scale[c] = 1.0 / std[c]
        self.offset.data[...] = mean
        self.scale.data[...] = scale
        self.initialized = True

    def forward(self, t: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        z = ad.channel_affine(t, self.scale, self.offset)
        hw = t.data.shape[-2] * t.data.shape[-1]
        logdet = ad.affine(ad.reduce_sum(ad.log_abs(self.scale)), float(hw))
        return z, logdet

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        view = (self.channels, 1, 1)
        x = z / self.scale.data.reshape(view) + self.offset.data.reshape(view)
        hw = z.shape[-2] * z.shape[-1]
        logdet_gen = -float(hw * np.sum(np.log(np.abs(self.scale.data))))
        return x, logdet_gen


class AffineCoupling:
    """Masked affine coupling driven by a three-layer 3x3 conv network."""

    def __init__(
        self,
        mask: Mask,
        cond_channels: int,
        hidden: int,
        rng: np.random.Generator,
        name: str = "coupling",
    ):
        self.mask = mask
        self.cond_channels = cond_channels
        C = mask.values.shape[0]
        self.channels = C
        c_in = C + cond_channels
        he1 = math.sqrt(2.0 / (9.0 * c_in))
        he2 = math.sqrt(2.0 / (9.0 * hidden))
        self.w1 = ad.Parameter(f"{name}.w1", rng.normal(0.0, he1, size=(hidden, c_in, 3, 3)))
        self.b1 = ad.Parameter(f"{name}.b1", np.zeros(hidden))
        self.w2 = ad.Parameter(f"{name}.w2", rng.normal(0.0, he2, size=(hidden, hidden, 3, 3)))
        self.b2 = ad.Parameter(f"{name}.b2", np.zeros(hidden))
        # Zero-initialized head: the fresh layer is exactly the identity.
        self.w3 = ad.Parameter(f"{name}.w3", np.zeros((2 * C, hidden, 3, 3)))
        self.b3 = ad.Parameter(f"{name}.b3", np.zeros(2 * C))

    def parameters(self) -> list[ad.Parameter]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def _mask_tensors(self, shape: tuple[int, ...]) -> tuple[ad.Tensor, ad.Tensor]:
        m = np.broadcast_to(self.mask.values, shape)
        return ad.Tensor(m), ad.Tensor(1.0 - m)

    def _scale_translation(self, u: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        h = ad.relu(ad.conv2d(u, self.w1, self.b1))
        h = ad.relu(ad.conv2d(h, self.w2, self.b2))
        out = ad.conv2d(h, self.w3, self.b3)
        s_raw = ad.slice_channels(out, 0, self.channels)
        t = ad.slice_channels(out, self.channels, 2 * self.channels)
        s = ad.affine(ad.tanh(s_raw), _SCALE_BOUND)  # bounded before exp
        return s, t

    def _net_input(self, passthrough: ad.Tensor, cond: ad.Tensor | None) -> ad.Tensor:
        if self.cond_channels:
            if cond is None:
                raise ValueError("coupling layer built with conditioning but no condition given")
            return ad.concat_channels([passthrough, cond])
        return passthrough

    def forward(self, t: ad.Tensor, cond: ad.Tensor | None = None) -> tuple[ad.Tensor, ad.Tensor]:
        m, m_inv = self._mask_tensors(t.data.shape)
        passthrough = ad.mul(t, m)
        s, trans = self._scale_translation(self._net_input(passthrough, cond))
        moved = ad.mul(ad.mul(ad.add(t, trans), ad.exp(s)), m_inv)
        z = ad.add(passthrough, moved)
        logdet = ad.reduce_sum(ad.mul(s, m_inv), axes=_SAMPLE_AXES)
        return z, logdet

    def inverse(self, z: np.ndarray, cond: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        m = np.broadcast_to(self.mask.values, z.shape)
        passthrough = z * m
        cond_t = ad.Tensor(cond) if cond is not None else None
        s, trans = self._scale_translation(self._net_input(ad.Tensor(passthrough), cond_t))
        sd, td = s.data, trans.data
        x = passthrough + (1.0 - m) * (z * np.exp(-sd) - td)
        logdet_gen = -np.sum(sd * (1.0 - m), axis=_SAMPLE_AXES)
        return x, logdet_gen


# One flow step: activation normalization, a channel reversal, a coupling.
Step = tuple[ActNorm, AffineCoupling]


class FlowModel:
    """Scales of (actnorm, coupling) steps mapping images to unit-normal latents.

    ``latent_shapes`` lists every factored-out latent in the order it is
    produced, with the final latent last; their dimensions always sum to
    the input dimension.
    """

    family = "glow"
    architecture: dict  # set by build_glow: its keyword arguments except seed

    def __init__(
        self,
        input_shape: tuple[int, int, int],
        scales: list[list[Step]],
        latent_shapes: list[tuple[int, int, int]],
        cond_channels: int = 0,
    ):
        self.input_shape = tuple(input_shape)
        self.scales = scales
        self.latent_shapes = [tuple(s) for s in latent_shapes]
        self.cond_channels = cond_channels
        assert len(self.latent_shapes) == len(scales)
        assert sum(int(np.prod(s)) for s in self.latent_shapes) == int(np.prod(self.input_shape))

    def steps(self) -> list[Step]:
        """Every (actnorm, coupling) step in forward order."""
        return [step for steps in self.scales for step in steps]

    def parameters(self) -> list[ad.Parameter]:
        return [p for actnorm, coupling in self.steps() for p in actnorm.parameters() + coupling.parameters()]

    def components(self) -> dict[str, FlowModel]:
        """A pixel flow trains as one component."""
        return {"flow": self}

    def component_inputs(self, images: np.ndarray) -> dict[str, tuple[np.ndarray, None]]:
        return {"flow": (images, None)}

    def actnorm_layers(self) -> list[ActNorm]:
        return [actnorm for actnorm, _ in self.steps()]

    def initialize_actnorm(self, batch: np.ndarray, cond: np.ndarray | None = None) -> None:
        """Data-dependent init: run the batch through, initializing each
        activation-normalization layer on its own input."""
        t, cond_t = self._prepare(batch, cond)
        with ad.no_grad():
            self._forward(t, cond_t, initialize=True)

    def _prepare(self, x: np.ndarray, cond: np.ndarray | None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ad.ShapeError(f"flow input must be (N,C,H,W), got {x.shape}")
        if x.shape[1:] != self.input_shape:
            raise ad.ShapeError(f"flow input shape {x.shape[1:]} != model shape {self.input_shape}")
        cond = self._condition(cond)
        return ad.Tensor(x), None if cond is None else ad.Tensor(cond)

    def _condition(self, cond: np.ndarray | None) -> np.ndarray | None:
        """The (N,C,H,W) condition every coupling sees; None if unconditional."""
        if not self.cond_channels:
            return None
        if cond is None:
            raise ValueError("model is conditional but no condition was given")
        cond = np.asarray(cond, dtype=np.float64)
        if cond.ndim != 4:
            raise ad.ShapeError(f"condition must be (N,C,H,W), got {cond.shape}")
        return cond

    def _forward(self, t: ad.Tensor, cond_t: ad.Tensor | None, initialize: bool = False):
        """The normalizing traversal: returns (latents, the log-det of each
        actnorm and coupling in order).  With ``initialize``, every
        uninitialized actnorm is first initialized on its own input.

        A non-finite output raises ``FlowNumericsError`` with the index of
        the layer that made it, counting squeezes, actnorms, reversals,
        couplings and splits in the order they run.
        """
        latents: list[ad.Tensor] = []
        logdets: list[ad.Tensor] = []
        layer = 0

        def checked(out: ad.Tensor) -> ad.Tensor:
            nonlocal layer
            if not np.all(np.isfinite(out.data)):
                raise FlowNumericsError(layer)
            layer += 1
            return out

        last = len(self.scales) - 1
        for i, steps in enumerate(self.scales):
            if last > 0:
                t = checked(ad.squeeze2x2(t))
            for actnorm, coupling in steps:
                if initialize and not actnorm.initialized:
                    actnorm.initialize(t.data)
                t, ld = actnorm.forward(t)
                logdets.append(ld)
                t = checked(t)
                t = checked(ad.reverse_channels(t))
                t, ld = coupling.forward(t, cond_t)
                logdets.append(ld)
                t = checked(t)
            if i < last:
                C = t.data.shape[1]
                t, factored = ad.slice_channels(t, 0, C // 2), ad.slice_channels(t, C // 2, C)
                latents.append(factored)
                t = checked(t)
        latents.append(t)
        return latents, logdets

    def forward_latents(self, x: np.ndarray, cond: np.ndarray | None = None):
        """Normalizing pass: returns (latents, total logdet) as graph tensors."""
        latents, logdets = self._forward(*self._prepare(x, cond))
        logdet: ad.Tensor = ad.Tensor(np.zeros(()))
        for ld in logdets:
            logdet = ad.add(logdet, ld)
        return latents, logdet

    def log_prob_graph(self, x: np.ndarray, cond: np.ndarray | None = None) -> ad.Tensor:
        """Per-sample log p(x) of a (N,C,H,W) batch as a differentiable (N,) tensor."""
        latents, logdet = self.forward_latents(x, cond)
        total = logdet
        for z in latents:
            total = ad.add(total, _standard_normal_logp(z))
        return total

    def log_density(self, x: np.ndarray, cond: np.ndarray | None = None) -> LogDensity:
        """Exact change-of-variables likelihood of one (C,H,W) image."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.input_shape:
            raise ad.ShapeError(f"log_density scores one {self.input_shape} image, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("image contains non-finite values")
        with ad.no_grad():
            lp = self.log_prob_graph(x[None], None if cond is None else np.asarray(cond)[None])
        log_likelihood, dims = float(lp.data[0]), int(np.prod(self.input_shape))
        return LogDensity(log_likelihood, bits_per_dim(log_likelihood, dims), dims)

    def score_batch(self, images: np.ndarray) -> list[ScoreReport]:
        """One report per image of a (N,C,H,W) batch: its bits/dim, with no
        levels.  Images must be finite and lie in [0, 1]."""
        images = checked_images(images, self.input_shape)
        with ad.no_grad():
            log_prob = self.log_prob_graph(images).data
        bpd = bits_per_dim(log_prob, int(np.prod(self.input_shape)))
        return [ScoreReport(per_level={}, scoring_levels=(), score=float(b)) for b in bpd]

    def inverse_from_latents(
        self, latents: list[np.ndarray], cond: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generative pass over (N,C,H,W) latents; also returns its own
        (generative) logdet, one value per sample."""
        if len(latents) != len(self.latent_shapes):
            raise ValueError(f"expected {len(self.latent_shapes)} latents, got {len(latents)}")
        for z, shape in zip(latents, self.latent_shapes):
            if np.ndim(z) != 4 or np.shape(z)[1:] != shape:
                raise ad.ShapeError(f"latent shape {np.shape(z)} != expected (N,) + {shape}")
        cond = self._condition(cond)
        t = np.asarray(latents[-1], dtype=np.float64)
        last = len(self.scales) - 1
        logdet_gen: float | np.ndarray = 0.0
        with ad.no_grad():
            for i in reversed(range(len(self.scales))):
                if i < last:
                    t = np.concatenate([t, np.asarray(latents[i], dtype=np.float64)], axis=1)
                for actnorm, coupling in reversed(self.scales[i]):
                    t, ld = coupling.inverse(t, cond)
                    logdet_gen = logdet_gen + ld
                    t, ld = actnorm.inverse(np.flip(t, axis=1))
                    logdet_gen = logdet_gen + ld
                if last > 0:
                    t = ad.unsqueeze2x2_array(t)
        return t, logdet_gen

    def sample(
        self,
        rng: np.random.Generator,
        temperature: float = 1.0,
        cond: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw one (C,H,W) image at a temperature."""
        if temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {temperature}")
        latents = [temperature * rng.standard_normal((1,) + shape) for shape in self.latent_shapes]
        x, _ = self.inverse_from_latents(latents, None if cond is None else np.asarray(cond)[None])
        return x[0]


def build_glow(
    K: int,
    L: int,
    in_channels: int,
    image_size: int,
    cond_channels: int = 0,
    mask_strategy: str = "channel-half",
    hidden: int = 256,
    seed: int = 0,
) -> FlowModel:
    """Assemble L scales of K (actnorm, reversal, coupling) steps.

    With L > 1 every scale starts with a squeeze and all but the last end
    with a split; with L == 1 neither happens.  Conditioning needs L == 1.
    Coupling masks follow ``mask_strategy`` with a running step index so
    consecutive steps alternate.
    """
    if min(K, L, hidden) < 1 or cond_channels < 0:
        raise ValueError(
            f"K, L and hidden must be >= 1 and cond_channels >= 0, "
            f"got K={K}, L={L}, hidden={hidden}, cond_channels={cond_channels}"
        )
    if cond_channels and L > 1:
        raise ValueError(f"a conditional flow must be single-scale (L=1), got L={L}")
    rng = np.random.default_rng(seed)
    C, H, W = in_channels, image_size, image_size
    scales: list[list[Step]] = []
    latent_shapes: list[tuple[int, int, int]] = []
    step = 0
    for scale in range(L):
        if L > 1:
            if H % 2 or W % 2 or H < 2 or W < 2:
                raise ValueError(
                    f"spatial size {H}x{W} too small to squeeze at scale {scale + 1} of {L}"
                )
            C, H, W = 4 * C, H // 2, W // 2
        steps: list[Step] = []
        for _ in range(K):
            name = f"scale{scale}.step{step}"
            actnorm = ActNorm(C, name=f"{name}.actnorm")
            mask = make_mask(mask_strategy, step, (C, H, W))
            steps.append((actnorm, AffineCoupling(mask, cond_channels, hidden, rng, name=f"{name}.coupling")))
            step += 1
        scales.append(steps)
        if scale < L - 1:
            if C < 2:
                raise ValueError(f"cannot split {C} channels at scale {scale + 1}")
            half = C // 2
            latent_shapes.append((C - half, H, W))
            C = half
    latent_shapes.append((C, H, W))
    model = FlowModel((in_channels, image_size, image_size), scales, latent_shapes, cond_channels)
    model.architecture = {
        "K": K,
        "L": L,
        "in_channels": in_channels,
        "image_size": image_size,
        "cond_channels": cond_channels,
        "mask_strategy": mask_strategy,
        "hidden": hidden,
    }
    return model


def coupling_parameter_count(model) -> int:
    """Total parameter entries across all coupling networks of a model."""
    return sum(
        p.data.size
        for part in model.components().values()
        if isinstance(part, FlowModel)
        for _, coupling in part.steps()
        for p in coupling.parameters()
    )
