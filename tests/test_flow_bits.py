"""Bit-exact pins of the two stored flows: the per-sample log-density of a
fixed batch, every parameter gradient of its mean NLL, and the generative
pass of fixed latents.  The digests are SHA-256 of the float64 bytes, so a
restructuring of the flow that reorders a single add shows up here.

The Glow checkpoint (K=1, L=2) goes through a squeeze, a channel reversal
and a split; the WaveletFlow level is a conditional single-scale flow of
two steps."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from waveflow import autodiff as ad
from waveflow.checkpoint import load_checkpoint

from helpers import digest

DATA = Path(__file__).resolve().parent / "data"

# At 3 samples, summing the latent terms or the log-dets in another order
# happens to round to the same bits; at 16 both reorders change the digest.
BATCH = 16


def glow_flow():
    return load_checkpoint(DATA / "glow_4px.json"), None


def level_flow():
    """Level 2 (2x2 details, two steps) with a fixed low-pass condition."""
    cond = np.random.default_rng(7).random((BATCH, 1, 2, 2))
    return load_checkpoint(DATA / "waveletflow_4px.json").level_flows[2], cond


FLOWS = {"glow_4px": glow_flow, "waveletflow_4px.level2": level_flow}

PINNED = {
    "glow_4px": {
        "log_prob": "7fd0a8d66be9bd8be224bb60c1a1c5a4816c2939a67315c9f1dd12abb7244518",
        "gradients": "6c84d033859f98b61ef6357c8f13662501b604e75d879cc80661babf45f0e4a1",
        "inverse": "dab34a8abd8d6e1508fbb5aa909ad324fd357d9ebbb4eb23ceb0ac2635cae167",
    },
    "waveletflow_4px.level2": {
        "log_prob": "cf59a7d5ff8afefa36d0ded1b5ebe8ad32cb94b89dd380232b524ab6884c7881",
        "gradients": "f061d6e838532fe75f25c75090bae03338eef5ac516cb4b4e1e84a2d50ca51be",
        "inverse": "5e52d0198700ce3f0100feffc1c4089ffad5a203b5dedf2a4e3aae33a1de1d37",
    },
}


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_log_prob_and_gradients_are_pinned(name):
    flow, cond = FLOWS[name]()
    x = np.random.default_rng(5).standard_normal((BATCH,) + flow.input_shape)
    lp = flow.log_prob_graph(x, cond)
    ad.affine(ad.reduce_sum(lp), -1.0 / len(x)).backward()
    assert digest(lp.data) == PINNED[name]["log_prob"]
    assert digest(*(p.grad for p in flow.parameters())) == PINNED[name]["gradients"]


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_inverse_is_pinned(name):
    flow, cond = FLOWS[name]()
    rng = np.random.default_rng(6)
    latents = [0.8 * rng.standard_normal((BATCH,) + shape) for shape in flow.latent_shapes]
    x, logdet = flow.inverse_from_latents(latents, cond)
    assert digest(x, logdet) == PINNED[name]["inverse"]
