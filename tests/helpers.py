"""Oracles shared by several test modules: a random well-conditioned flow,
a central-difference log-determinant, a brute-force pairwise AUC, the
SHA-256 digest of float64 arrays that bit-exact pins compare, a bit-exact
comparison of two graphs' outputs and input gradients, the bytes a call's
result keeps allocated, a residue model that fails when it trains, and the
usable core count that is the default of ``[run] threads``."""
from __future__ import annotations

import functools
import hashlib
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


def pairwise_auc(id_scores, ood_scores) -> float:
    """Brute-force oracle: P(ood > id) + 0.5 P(tie) over all pairs."""
    wins = ties = 0
    for o in ood_scores:
        for i in id_scores:
            wins += o > i
            ties += o == i
    return (wins + 0.5 * ties) / (len(id_scores) * len(ood_scores))


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
