"""Reverse-mode automatic differentiation on numpy float64 arrays.

A small closure-graph engine providing exactly the operations the
coupling networks and density objectives need: 3x3 same-padding
convolution, a handful of elementwise functions, channel-wise affine
transforms, the structural rearrangements used by multi-scale flows,
and Adam.  Shapes are checked strictly: binary operations accept equal
shapes or a scalar on one side, nothing else, and every image operation
(convolution, channel and squeeze rearrangements) takes a (N,C,H,W)
batch; a single image is a batch with N=1.

The convolution works through the batch in blocks of samples, each
holding about ``_BLOCK_BYTES`` (1 MiB) of im2col columns, so that a
block's columns are still in cache when its GEMM reads them; a batch that
fits in one block is one piece.  A block is copied into a zero-padded
block-sized buffer, its columns are gathered from a strided view of that
buffer in one more copy into a reused block-sized buffer, and one GEMM per
sample writes the output.  The graph node keeps no columns: it keeps its
input, which it holds as a parent anyway, and the flat kernel.  The
backward pass works through the same blocks and gathers each block's
columns again from the input: per-sample dW products, then the block's
column gradient scattered into a flat (N, C*H*W) input gradient with nine
contiguous shifted adds, one per tap in (di, dj) order.  The column
entries that a tap would send outside the image are zeroed first, so every
element gets the same bits as a scatter into a zero-padded buffer.  dW and
the bias gradient are summed over the whole batch at the end, so no sum
depends on the block size.

``conv2d_relu`` is ``relu(conv2d(...))`` with one activation array: it
applies the relu in place on the convolution's fresh output, and its
backward takes the mask from that output.  ``channel_affine`` keeps only
its output; its backward computes ``x - offset`` again.

A backward pass reads its parents' ``data`` as the forward pass left it,
so no tensor's data may be written between the forward and the backward
pass; training writes parameters only in ``Adam.step``, after the
backward.  A backward consumes its graph: each node drops its parents and
its backward closure once its gradient has reached them, so the graph's
arrays are freed during the walk and a training loop holds one graph at
a time.  Gradients add up across graphs; a second backward through a
consumed node raises ``RuntimeError``.

Inside ``with batch_threads(n):`` the calling thread's convolutions split
the batch into ``n`` contiguous sample ranges: a pool of ``n - 1``
threads, alive only inside the block, takes all but the first, which the
calling thread runs.  numpy releases the GIL in the GEMMs and copies, and
the pool threads touch only arrays, never a ``Tensor``.  Results are
identical for any ``n``; at ``n = 1`` (the default) no pool is used.

Inside ``with no_grad():`` the calling thread builds no graph: each new
tensor keeps its value but no parents and no backward closure, so an
intermediate array is freed as soon as the next op has read it.  Values
are identical in both modes; forward-only callers (scoring, actnorm
initialization, monitoring, sampling) run in it.  The mode is per thread
and restored when the block exits.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Parameter",
    "no_grad",
    "batch_threads",
    "add",
    "sub",
    "mul",
    "neg",
    "exp",
    "log_abs",
    "tanh",
    "relu",
    "affine",
    "reduce_sum",
    "concat_channels",
    "slice_channels",
    "channel_affine",
    "reverse_channels",
    "squeeze2x2",
    "unsqueeze2x2",
    "conv2d",
    "conv2d_relu",
    "squeeze2x2_array",
    "unsqueeze2x2_array",
    "Adam",
]

# Inputs to exp() are clipped here so a finite forward pass can never
# overflow to inf; model code additionally bounds coupling scales long
# before this limit is reached.
_EXP_MAX = 700.0


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Build no graph on this thread while the block runs."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


# A convolution gathers about this many bytes of im2col columns per block.
_BLOCK_BYTES = 1 << 20


class _BatchThreads(threading.local):
    width = 1
    pool = None


_batch = _BatchThreads()


@contextmanager
def batch_threads(n: int):
    """Split each convolution this thread runs over ``n`` threads while the
    block runs: this one and ``n - 1`` pool threads, which exist only
    inside the block."""
    if n < 1:
        raise ValueError(f"batch_threads needs n >= 1, got {n}")
    previous = _batch.width, _batch.pool
    pool = ThreadPoolExecutor(n - 1, thread_name_prefix="conv2d") if n > 1 else None
    _batch.width, _batch.pool = n, pool
    try:
        yield
    finally:
        _batch.width, _batch.pool = previous
        if pool is not None:
            pool.shutdown()


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if not _grad_mode.enabled:
            _parents, _backward = (), None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Accumulate d(self)/d(param) into every reachable Parameter.

        ``self`` must be a scalar.  Gradients add up across graphs; a
        backward consumes its graph: each node gives up its parents and its
        backward closure as its gradient reaches them, so its arrays are
        freed as the walk goes and nothing of the graph outlives the call.
        A second backward through a consumed node raises RuntimeError
        before any gradient moves.  Parameters not connected to this node
        are left untouched.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            _propagate(topo.pop(), grads)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _consumed(g):
    """The backward closure of a node whose graph a backward has walked."""
    raise RuntimeError("this graph was consumed by an earlier backward(); build it again")


def _propagate(node: Tensor, grads: dict[int, np.ndarray]) -> None:
    """Cut ``node`` from its graph, then add its gradient into its parents'.
    The arrays only its closure held are freed on return."""
    parents, back = node._parents, node._backward
    if back is not None:
        node._parents, node._backward = (), _consumed
    g = grads.pop(id(node), None)
    if g is None:
        return
    if isinstance(node, Parameter):
        node.grad += g
    if back is not None:
        for parent, pg in zip(parents, back(g)):
            if pg is None:
                continue
            cur = grads.get(id(parent))
            grads[id(parent)] = pg if cur is None else cur + pg


class Parameter(Tensor):
    """A trainable leaf tensor with a persistent, accumulating gradient."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _check_binary(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}; only scalar broadcast is allowed")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    # The only legal broadcast is scalar-vs-tensor, so fold everything.
    return np.sum(g).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary(a.data, b.data)
    return Tensor(
        a.data + b.data,
        (a, b),
        lambda g: (_reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary(a.data, b.data)
    return Tensor(
        a.data - b.data,
        (a, b),
        lambda g: (_reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary(a.data, b.data)
    return Tensor(
        a.data * b.data,
        (a, b),
        lambda g: (_reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)),
    )


def neg(a) -> Tensor:
    a = _wrap(a)
    return Tensor(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = _wrap(a)
    clipped = np.minimum(a.data, _EXP_MAX)
    out = np.exp(clipped)
    inside = a.data <= _EXP_MAX
    return Tensor(out, (a,), lambda g: (g * np.where(inside, out, 0.0),))


def log_abs(a) -> Tensor:
    """log|x|, guarded away from zero so the forward value stays finite."""
    a = _wrap(a)
    safe = np.maximum(np.abs(a.data), 1e-300)
    out = np.log(safe)
    denom = np.where(a.data == 0.0, 1e-300, a.data)
    return Tensor(out, (a,), lambda g: (g / denom,))


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0.0
    return Tensor(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def affine(a, scale: float, shift: float = 0.0) -> Tensor:
    """Elementwise scale*x + shift with python-scalar coefficients."""
    a = _wrap(a)
    scale = float(scale)
    return Tensor(scale * a.data + float(shift), (a,), lambda g: (g * scale,))


def reduce_sum(a, axes: tuple[int, ...] | None = None) -> Tensor:
    """Sum over ``axes``, or over every element when they are not given."""
    a = _wrap(a)
    if axes is not None:
        axes = tuple(ax % a.data.ndim for ax in axes)
    out = np.sum(a.data, axis=axes)
    return Tensor(
        out, (a,), lambda g: (np.broadcast_to(g if axes is None else np.expand_dims(g, axes), a.data.shape),)
    )


def _check_batch(data: np.ndarray, op: str) -> None:
    if data.ndim != 4:
        raise ShapeError(f"{op} expects (N,C,H,W), got shape {data.shape}")


def concat_channels(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_channels requires at least one tensor")
    parts = [_wrap(p) for p in parts]
    for p in parts:
        _check_batch(p.data, "concat_channels")
        if p.data.shape[:1] + p.data.shape[2:] != parts[0].data.shape[:1] + parts[0].data.shape[2:]:
            raise ShapeError("concat_channels operands must agree outside the channel axis")
    out = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def back(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return Tensor(out, tuple(parts), back)


def slice_channels(a, start: int, stop: int) -> Tensor:
    a = _wrap(a)
    _check_batch(a.data, "slice_channels")
    channels = a.data.shape[1]
    if not (0 <= start < stop <= channels):
        raise ShapeError(f"channel slice [{start}:{stop}] out of range for {channels} channels")

    def back(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return Tensor(a.data[:, start:stop], (a,), back)


def channel_affine(x, scale, offset) -> Tensor:
    """Per-channel (x - offset) * scale for (N,C,H,W) input."""
    x, scale, offset = _wrap(x), _wrap(scale), _wrap(offset)
    _check_batch(x.data, "channel_affine")
    C = x.data.shape[1]
    if scale.data.shape != (C,) or offset.data.shape != (C,):
        raise ShapeError(
            f"channel_affine expects scale/offset of shape ({C},), got {scale.data.shape} and {offset.data.shape}"
        )
    s_view = scale.data.reshape(C, 1, 1)
    o_view = offset.data.reshape(C, 1, 1)
    out = (x.data - o_view) * s_view

    def back(g):
        # x - offset again rather than a kept copy: the node holds only its output.
        gx = g * s_view
        gscale = np.sum(g * (x.data - o_view), axis=(0, 2, 3))
        goffset = -np.sum(g, axis=(0, 2, 3)) * scale.data
        return (gx, gscale, goffset)

    return Tensor(out, (x, scale, offset), back)


def reverse_channels(a) -> Tensor:
    a = _wrap(a)
    _check_batch(a.data, "reverse_channels")
    out = np.flip(a.data, axis=1).copy()
    return Tensor(out, (a,), lambda g: (np.flip(g, axis=1),))


def squeeze2x2_array(d: np.ndarray) -> np.ndarray:
    """Space-to-depth: (N, C, 2h, 2w) -> (N, 4C, h, w), row-major blocks."""
    _check_batch(d, "squeeze")
    N, C, H, W = d.shape
    if H % 2 or W % 2:
        raise ShapeError(f"squeeze needs even spatial dims, got {H}x{W}")
    h, w = H // 2, W // 2
    return d.reshape(N, C, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4).reshape(N, 4 * C, h, w)


def unsqueeze2x2_array(d: np.ndarray) -> np.ndarray:
    """Depth-to-space inverse of :func:`squeeze2x2_array`."""
    _check_batch(d, "unsqueeze")
    N, C4, h, w = d.shape
    if C4 % 4:
        raise ShapeError(f"unsqueeze needs a channel count divisible by 4, got {C4}")
    C = C4 // 4
    return d.reshape(N, C, 2, 2, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(N, C, 2 * h, 2 * w)


def squeeze2x2(a) -> Tensor:
    a = _wrap(a)
    out = squeeze2x2_array(a.data)
    return Tensor(out, (a,), lambda g: (unsqueeze2x2_array(g),))


# No model calls this; it stays because the benchmark tracer patches it.
def unsqueeze2x2(a) -> Tensor:
    a = _wrap(a)
    out = unsqueeze2x2_array(a.data)
    return Tensor(out, (a,), lambda g: (squeeze2x2_array(g),))


def _split(job, N: int, *args) -> None:
    """Run ``job(lo, hi, *args)`` over contiguous sample ranges covering
    0:N, one per thread of ``batch_threads`` (at most N); this thread runs
    the first.  Every range has finished when this returns or raises, and
    a pool thread's exception is re-raised here."""
    width = min(_batch.width, N)
    if width == 1:
        return job(0, N, *args)
    bounds = [N * k // width for k in range(width + 1)]
    futures = [_batch.pool.submit(job, bounds[k], bounds[k + 1], *args) for k in range(1, width)]
    try:
        job(0, bounds[1], *args)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _im2col(x: np.ndarray, padded: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Gather the same-padded 3x3 patches of (b,C,H,W) into (b, 9C, H*W).

    Rows are ordered (di, dj, c).  ``x`` is copied into the interior of
    ``padded``, a zero (b',C,H+2,W+2) buffer with b' >= b whose border is
    never written; the (b,3,3,C,H,W) tap view of it is taken by strides and
    copied into ``cols``, or into a new array when ``cols`` is None.
    """
    b, C, H, W = x.shape
    padded[:b, :, 1:-1, 1:-1] = x
    sn, sc, sh, sw = padded.strides
    # taps[n, di, dj, c, i, j] is padded[n, c, i + di, j + dj]; never written.
    taps = np.ndarray((b, 3, 3, C, H, W), np.float64, padded, 0, (sn, sh, sw, sc, sh, sw))
    if cols is None:
        return taps.reshape(b, 9 * C, H * W)
    cols.reshape(taps.shape)[...] = taps
    return cols


def _forward_range(lo: int, hi: int, x: np.ndarray, wf: np.ndarray, bias: np.ndarray, out, step: int) -> None:
    """Convolve samples lo:hi of ``x`` into ``out`` (N, Cout, H*W), ``step``
    samples at a time, through one block-sized padded buffer and one
    block-sized column buffer, both reused by every block."""
    _, C, H, W = x.shape
    size = min(step, hi - lo)
    padded = np.zeros((size, C, H + 2, W + 2))
    scratch = np.empty((size, 9 * C, H * W))
    for s in range(lo, hi, step):
        e = min(s + step, hi)
        block = _im2col(x[s:e], padded, scratch[: e - s])
        np.matmul(wf, block, out=out[s:e])
        out[s:e] += bias


def _backward_range(lo: int, hi: int, gflat: np.ndarray, x: np.ndarray, wf: np.ndarray, per, gx, step) -> None:
    """The dW products of samples lo:hi into ``per`` (N, Cout, 9Cin) and
    their input gradient into the zero flat ``gx`` (N, Cin*H*W), ``step``
    samples at a time.  Each block's columns are gathered again from ``x``
    into one block-sized buffer, which then takes the block's column
    gradient."""
    _, Cin, H, W = x.shape
    size, n = Cin * H * W, min(step, hi - lo)
    padded = np.zeros((n, Cin, H + 2, W + 2))
    buffer = np.empty((n, 9 * Cin, H * W))
    for s in range(lo, hi, step):
        e = min(s + step, hi)
        cols = _im2col(x[s:e], padded, buffer[: e - s])
        np.matmul(gflat[s:e], cols.transpose(0, 2, 1), out=per[s:e])
        dcols = np.matmul(wf.T, gflat[s:e], out=cols).reshape(e - s, 3, 3, Cin, H, W)
        # Tap (di, dj) sends dcols[:, di, dj, c, i, j] to x[c, i+di-1, j+dj-1]:
        # a shift by t = (di-1)*W + (dj-1) of the flat (c, i, j) index.  Zero
        # first the entries whose target lies outside the image (they would
        # wrap into a neighbouring row or channel); they then add +0.0 to an
        # accumulator that starts at +0.0 and so can never be -0.0.  Every
        # element thus gets the same taps in the same (di, dj) order as a
        # scatter into a padded buffer, and the same bits.
        dcols[:, 0, :, :, 0, :] = 0.0
        dcols[:, 2, :, :, H - 1, :] = 0.0
        dcols[:, :, 0, :, :, 0] = 0.0
        dcols[:, :, 2, :, :, W - 1] = 0.0
        taps = dcols.reshape(e - s, 3, 3, size)
        target = gx[s:e]
        for di in range(3):
            for dj in range(3):
                t = (di - 1) * W + (dj - 1)
                a, b = max(t, 0), size + min(t, 0)  # targets that stay in the array
                if a < b:
                    target[:, a:b] += taps[:, di, dj, a - t : b - t]


def conv2d(x, weight, bias) -> Tensor:
    """3x3 cross-correlation with same zero padding and stride 1.

    ``x`` is (N,C,H,W); ``weight`` is (C_out, C_in, 3, 3); ``bias`` is (C_out,).
    The batch is worked through in blocks of samples sized by column bytes
    (``_forward_range``), split over the threads of ``batch_threads``; a
    batch that fits in one block on one thread is gathered and multiplied
    whole.  No columns outlive the call: the graph keeps the input and the
    flat kernel, and the backward pass gathers each block's columns again.
    """
    x, weight, bias = _wrap(x), _wrap(weight), _wrap(bias)
    if weight.data.ndim != 4 or weight.data.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d weight must be (C_out, C_in, 3, 3), got {weight.data.shape}")
    _check_batch(x.data, "conv2d")
    N, Cin, H, W = x.data.shape
    Cout = weight.data.shape[0]
    if weight.data.shape[1] != Cin:
        raise ShapeError(f"conv2d input has {Cin} channels but weight expects {weight.data.shape[1]}")
    if bias.data.shape != (Cout,):
        raise ShapeError(f"conv2d bias must be ({Cout},), got {bias.data.shape}")

    # Flat kernel layout (di, dj, c_in) matches the column layout.
    wf = weight.data.transpose(0, 2, 3, 1).reshape(Cout, 9 * Cin)
    bias_col = bias.data.reshape(Cout, 1)
    step = max(1, _BLOCK_BYTES // (9 * 8 * Cin * H * W))
    if N <= step and _batch.width == 1:
        # One block on this thread, as a single image always is: with no
        # per-block views or preallocated output, scoring pays nothing for
        # the blocks.
        out = np.matmul(wf, _im2col(x.data, np.zeros((N, Cin, H + 2, W + 2))))
        out += bias_col
    else:
        out = np.empty((N, Cout, H * W))
        _split(_forward_range, N, x.data, wf, bias_col, out, step)
    if not _grad_mode.enabled:
        return Tensor(out.reshape(N, Cout, H, W))

    def back(g):
        gflat = g.reshape(N, Cout, H * W)
        per = np.empty((N, Cout, 9 * Cin))
        gx = np.zeros((N, Cin * H * W))
        _split(_backward_range, N, gflat, x.data, wf, per, gx, step)
        # Both sums run over the whole batch: no sum depends on blocks or threads.
        dbias = gflat.sum(axis=(0, 2))
        dweight = per.sum(axis=0).reshape(Cout, 3, 3, Cin).transpose(0, 3, 1, 2)
        return (gx.reshape(N, Cin, H, W), dweight, dbias)

    return Tensor(out.reshape(N, Cout, H, W), (x, weight, bias), back)


def conv2d_relu(x, weight, bias) -> Tensor:
    """``relu(conv2d(x, weight, bias))`` with one activation array.

    The relu is applied in place on the convolution's fresh output, with
    ``relu``'s values (NaN and -0.0 become +0.0), and the node's parent is
    the convolution's node, which shares that array.  The backward takes
    its mask from the output: an entry is > 0 exactly where the
    convolution's was.
    """
    conv = conv2d(x, weight, bias)
    data = conv.data
    # fmax gives 0.0 for a NaN or negative entry, perhaps -0.0 for a -0.0;
    # adding +0.0 turns -0.0 into +0.0 and leaves every other value as is.
    np.fmax(data, 0.0, out=data)
    data += 0.0
    return Tensor(data, (conv,), lambda g: (g * (data > 0.0),))


# Adam's moment decay rates and denominator offset.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class Adam:
    """Adam with bias correction; gradients are cleared after each step."""

    def __init__(self, params: list[Parameter], learning_rate: float):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - _BETA1**self.step_count
        bc2 = 1.0 - _BETA2**self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
            p.grad[...] = 0.0
