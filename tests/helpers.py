"""Oracles shared by several test modules: a random well-conditioned flow,
a central-difference log-determinant, a brute-force pairwise AUC, the
SHA-256 digest of float64 arrays that bit-exact pins compare, a residue
model that fails when it trains, and the usable core count that is the
default of ``[run] threads``."""
from __future__ import annotations

import hashlib
import multiprocessing
import os

import numpy as np

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
