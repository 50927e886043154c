"""Outside-in span tracer for the waveflow package.

The tracer replaces public functions of the waveflow modules with wrappers
that record one span per call: name, start, end and the span that was open
when the call began.  Nothing inside ``src/`` changes; the wrappers are put
in place for a traced pass and removed afterwards, so untraced passes run
the original functions.  Spans stay in memory until the benchmark writes
them out at the end.

A span's self time is its duration minus the part of that interval its
child spans cover.  A span started on a worker thread with no open span of
its own takes the main thread's innermost open span as its parent, so the
worker spans of ``waveflow score --threads N`` count as children of the
command that started the pool.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span record layout: [name, parent span or None, start, end].
_NAME, _PARENT, _START, _END = range(4)

# Elementwise and structural ops of the autodiff engine: each call adds one
# graph node.  Conv2d, Tensor.backward and Adam.step are traced separately.
AUTODIFF_OPS = (
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
)


class Tracer:
    """Records spans and computed counters; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stacks: dict[int, list[list]] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    def _parent(self, stack: list[list]):
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        if main and threading.get_ident() != self._main:
            try:
                return main[-1]
            except IndexError:  # the main thread closed its span meanwhile
                return None
        return None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        span = [name, self._parent(stack), time.perf_counter(), 0.0]
        self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def patch(self, owner, attr: str, name: str, wrapper_factory=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unpatch`."""
        original = getattr(owner, attr)
        if wrapper_factory is None:

            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)

        else:
            wrapper = wrapper_factory(original)
        setattr(owner, attr, functools.wraps(original)(wrapper))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[_PARENT] is not None:
                children[id(span[_PARENT])].append(span)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            start, end = span[_START], span[_END]
            covered = _covered(children.get(id(span), ()), start, end)
            row = out[span[_NAME]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return dict(out)

    def dump(self) -> dict:
        """Spans as plain lists: [name index, parent index or -1, start, end]."""
        names = sorted({s[_NAME] for s in self.spans})
        name_index = {n: i for i, n in enumerate(names)}
        span_index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0][_START] if self.spans else 0.0
        rows = [
            [
                name_index[s[_NAME]],
                -1 if s[_PARENT] is None else span_index[id(s[_PARENT])],
                round(s[_START] - t0, 7),
                round(s[_END] - t0, 7),
            ]
            for s in self.spans
        ]
        return {"names": names, "spans": rows, "counters": dict(self.counters)}


def _covered(kids, start: float, end: float) -> float:
    """Length of the union of the child intervals, clipped to [start, end]."""
    if not kids:
        return 0.0
    total = 0.0
    cur_lo = cur_hi = None
    for kid in sorted(kids, key=lambda s: s[_START]):
        lo, hi = max(kid[_START], start), min(kid[_END], end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _conv_wrapper(tracer: Tracer, ad):
    """conv2d forward span plus computed FLOPs and im2col bytes; the returned
    tensor's backward closure is wrapped so its time lands in its own span."""

    def factory(original):
        def conv2d(x, weight, bias):
            out = tracer.call("autodiff.conv2d.fwd", original, x, weight, bias)
            c_out, c_in = np.shape(weight.data if isinstance(weight, ad.Tensor) else weight)[:2]
            shape = out.data.shape
            n = shape[0] if len(shape) == 4 else 1
            pixels = shape[-2] * shape[-1]
            flop = 2 * n * c_out * 9 * c_in * pixels
            tracer.count("autodiff.conv2d.fwd_flop", flop)
            tracer.count("autodiff.conv2d.im2col_bytes", n * 9 * c_in * pixels * 8)
            back = out._backward

            def traced_back(g):
                tracer.count("autodiff.conv2d.bwd_flop", 2 * flop)  # dW and dX matmuls
                return tracer.call("autodiff.conv2d.bwd", back, g)

            out._backward = traced_back
            return out

        return conv2d

    return factory


def _cli_wrapper(tracer: Tracer):
    """Span ``cli.<command>`` around ``waveflow.cli.main(argv)``."""

    def factory(original):
        def main(argv=None):
            command = argv[0] if argv else "main"
            return tracer.call(f"cli.{command}", original, argv)

        return main

    return factory


@contextmanager
def traced(tracer: Tracer):
    """Wrap the public functions of every waveflow layer while the block runs.

    A function imported by name into another module is a separate binding,
    so each binding the package uses is wrapped (``build_pyramid`` is bound
    in ``haar``, ``train``, ``waveletflow`` and ``evaluate``).  The
    ``waveflow.train`` attribute is the re-exported function, so the module
    is reached through ``sys.modules``.
    """
    import waveflow.cli  # noqa: F401  (imports every layer the wrappers reach)

    mod = sys.modules
    train_mod = mod["waveflow.train"]
    cli, data, ckpt, evaluate = (mod[f"waveflow.{m}"] for m in ("cli", "data", "checkpoint", "evaluate"))
    bindings = [  # (span name, attribute, modules that bind it)
        ("haar.build_pyramid", "build_pyramid", [mod["waveflow.haar"], train_mod, mod["waveflow.waveletflow"], evaluate]),
        ("train.augment", "augment", [train_mod]),
        ("train.dequantize", "dequantize", [train_mod]),
        ("train.train", "train", [train_mod, cli]),
        ("data.generate_synthetic", "generate_synthetic", [data, cli]),
        ("data.load_image", "load_image", [data, cli]),
        ("checkpoint.save", "save_checkpoint", [ckpt, cli]),
        ("checkpoint.load", "load_checkpoint", [ckpt, cli]),
        ("evaluate.summarize", "summarize", [evaluate, cli]),
        ("evaluate.wavelet_magnitude_score", "wavelet_magnitude_score", [evaluate, cli]),
        ("config.parse", "parse_command_config", [mod["waveflow.config"], cli]),
    ]
    try:
        for name, attr, owners in bindings:
            for owner in owners:
                tracer.patch(owner, attr, name)
        ad_mod = mod["waveflow.autodiff"]
        for op in AUTODIFF_OPS:
            tracer.patch(ad_mod, op, "autodiff.ops")
        tracer.patch(ad_mod, "conv2d", "autodiff.conv2d.fwd", _conv_wrapper(tracer, ad_mod))
        tracer.patch(ad_mod.Tensor, "backward", "autodiff.backward")
        tracer.patch(ad_mod.Adam, "step", "autodiff.adam.step")
        tracer.patch(mod["waveflow.flows"].FlowModel, "log_prob_graph", "flows.log_prob_graph")
        tracer.patch(mod["waveflow.waveletflow"].WaveletFlowModel, "score", "waveletflow.score")
        tracer.patch(cli, "main", "cli", _cli_wrapper(tracer))
        yield tracer
    finally:
        tracer.unpatch()
