"""Engine tests: forward values against hand oracles, gradients against
central finite differences."""
from __future__ import annotations

import sys
import threading
from contextlib import nullcontext

import numpy as np
import pytest

from helpers import assert_same_graph, finite_diff_grad, held_bytes, same_bits, with_signed_zeros
from waveflow import autodiff as ad


def conv2d_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nested-loop 3x3 cross-correlation with zero padding (oracle)."""
    cout, cin, _, _ = w.shape
    _, H, W = x.shape
    out = np.zeros((cout, H, W))
    for o in range(cout):
        for i in range(H):
            for j in range(W):
                acc = b[o]
                for c in range(cin):
                    for ki in range(3):
                        for kj in range(3):
                            ii, jj = i + ki - 1, j + kj - 1
                            if 0 <= ii < H and 0 <= jj < W:
                                acc += x[c, ii, jj] * w[o, c, ki, kj]
                out[o, i, j] = acc
    return out


def padded_conv2d_reference(x, w, b, g):
    """Pad-then-gather 3x3 convolution, forward and backward (bit-exact oracle).

    The columns are gathered from a zero-padded copy of ``x``, and the input
    gradient is scattered into a padded buffer and cropped.  Returns the
    output and the gradients of sum(out * g) for ``x``, ``w`` and ``b``.
    """
    N, C, H, W = x.shape
    cout = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((N, 9 * C, H * W))
    k = 0
    for di in range(3):
        for dj in range(3):
            cols[:, k * C : (k + 1) * C, :] = xp[:, :, di : di + H, dj : dj + W].reshape(N, C, H * W)
            k += 1
    wf = w.transpose(0, 2, 3, 1).reshape(cout, 9 * C)
    out = np.matmul(wf, cols).reshape(N, cout, H, W) + b.reshape(1, cout, 1, 1)
    gflat = g.reshape(N, cout, H * W)
    db = gflat.sum(axis=(0, 2))
    dw = np.matmul(gflat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(cout, 3, 3, C).transpose(0, 3, 1, 2)
    dcols = np.matmul(wf.T, gflat)
    gxp = np.zeros_like(xp)
    k = 0
    for di in range(3):
        for dj in range(3):
            gxp[:, :, di : di + H, dj : dj + W] += dcols[:, k * C : (k + 1) * C, :].reshape(N, C, H, W)
            k += 1
    return out, gxp[:, :, 1 : 1 + H, 1 : 1 + W], dw, db


def assert_conv_bit_equal(x, input_grad, rng, cout=3, kernel=None, out_grad=None, backward_threads=None):
    """conv2d of the tensor ``x`` equals ``padded_conv2d_reference`` bit for
    bit: the output, dW, db, and the input gradient that ``input_grad()``
    reads after the backward pass.  The backward closure's own outputs are
    compared too, because accumulating into a zero ``grad`` turns -0.0 into
    +0.0.  Draws the kernel, bias and output gradient from ``rng`` in that
    order; ``kernel`` and ``out_grad`` replace the drawn values.  With
    ``backward_threads`` set, both backward passes run at that
    ``batch_threads`` width instead of the forward's."""
    w = ad.Parameter("w", rng.standard_normal((cout, x.shape[1], 3, 3)))
    b = ad.Parameter("b", rng.standard_normal(cout))
    g = rng.standard_normal((x.shape[0], cout) + x.shape[2:])
    if kernel is not None:
        w.data[...] = kernel
    if out_grad is not None:
        g = out_grad
    out = ad.conv2d(x, w, b)
    loss = ad.reduce_sum(ad.mul(out, ad.Tensor(g)))
    back = out._backward  # the backward pass takes it off the node
    with nullcontext() if backward_threads is None else ad.batch_threads(backward_threads):
        loss.backward()
        raw = back(g)
    want = padded_conv2d_reference(x.data, w.data, b.data, g)
    for name, got, ref in zip(("out", "dx", "dW", "db"), (out.data, input_grad(), w.grad, b.grad), want):
        assert same_bits(got, ref), name
    for name, got, ref in zip(("raw dx", "raw dW", "raw db"), raw, want[1:]):
        assert same_bits(got, ref), name


def rel_err(a: np.ndarray, f: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(f))), 1e-8)
    return float(np.max(np.abs(a - f))) / denom


class TestConv2d:
    def test_matches_nested_loop_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            x = rng.standard_normal((3, 5, 4))
            w = rng.standard_normal((2, 3, 3, 3))
            b = rng.standard_normal(2)
            got = ad.conv2d(ad.Tensor(x[None]), ad.Tensor(w), ad.Tensor(b)).data
            np.testing.assert_allclose(got[0], conv2d_reference(x, w, b), atol=1e-12)

    def test_identity_kernel_passes_input_through(self):
        x = np.array([[[[5.0]]]])
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        b = np.zeros(1)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
        np.testing.assert_allclose(out, x)

    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((4, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        batched = ad.conv2d(ad.Tensor(xs), ad.Tensor(w), ad.Tensor(b)).data
        for n in range(4):
            single = ad.conv2d(ad.Tensor(xs[n : n + 1]), ad.Tensor(w), ad.Tensor(b)).data
            np.testing.assert_allclose(batched[n : n + 1], single, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("cin", [1, 4])
    @pytest.mark.parametrize("hw", [(1, 1), (2, 2), (4, 4), (16, 16), (3, 5), (1, 7), (7, 1)])
    def test_bit_equal_to_padded_reference(self, n, cin, hw):
        # 1x1 is level1 of a 32 px pyramid: every tap but the centre reads padding.
        rng = np.random.default_rng(n * 100 + cin * 10 + hw[0])
        x = ad.Parameter("x", rng.standard_normal((n, cin) + hw))
        assert_conv_bit_equal(x, lambda: x.grad, rng)

    @pytest.mark.parametrize("case", ["channel-slice", "transposed", "score-chunk", "train-batch", "relu-zeros"])
    def test_bit_equal_to_padded_reference_on_views_and_score_chunk(self, case):
        rng = np.random.default_rng(5)
        if case == "channel-slice":
            # Glow's split passes each half on as a slice_channels view.
            full = ad.Parameter("x", rng.standard_normal((3, 8, 4, 4)))
            x = ad.slice_channels(full, 4, 8)
            assert not x.data.flags.c_contiguous
            assert_conv_bit_equal(x, lambda: full.grad[:, 4:], rng)
            assert not full.grad[:, :4].any()
        elif case == "transposed":
            x = ad.Parameter("x", rng.standard_normal((2, 4, 5, 3)).transpose(0, 1, 3, 2))
            assert not x.data.flags.c_contiguous
            assert_conv_bit_equal(x, lambda: x.grad, rng)
        elif case == "score-chunk":
            # A chunk of waveflow score at a 16x16 level with hidden = 24.
            x = ad.Parameter("x", rng.standard_normal((8, 24, 16, 16)))
            assert_conv_bit_equal(x, lambda: x.grad, rng, cout=24)
        elif case == "train-batch":
            # A training batch at a 16x16 level with hidden = 24.
            x = ad.Parameter("x", rng.standard_normal((32, 24, 16, 16)))
            assert_conv_bit_equal(x, lambda: x.grad, rng, cout=24)
        else:
            # A relu output holds exact zeros.  The column gradient is -0.0
            # only where every product underflows with a negative sign (a
            # BLAS sum starts at +0.0): a kernel in (0, 0.5) against an output
            # gradient of -5e-324, with -0.0 and +0.0 border rows, gives
            # -0.0 columns, so an input gradient seeded from a tap instead of
            # +0.0 would come back as -0.0.
            x = ad.Parameter("x", np.maximum(rng.standard_normal((2, 4, 6, 6)), 0.0))
            assert (x.data == 0.0).any()
            g = np.full((2, 3, 6, 6), -5e-324)
            g[:, :, 0, :] = -0.0
            g[:, :, -1, :] = 0.0
            kernel = rng.uniform(0.01, 0.49, (3, 4, 3, 3))
            assert_conv_bit_equal(x, lambda: x.grad, rng, kernel=kernel, out_grad=g)

    # (C, H, W) whose block, at the module's 1 MiB of columns, holds one
    # sample, 14 samples (so 33 leaves a partial block), or any whole batch.
    BLOCK_SHAPES = {"one-sample": (8, 32, 32), "partial": (4, 16, 16), "whole-batch": (1, 4, 4)}

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 33])
    @pytest.mark.parametrize("block", sorted(BLOCK_SHAPES))
    def test_blocks_and_threads_keep_the_bits(self, block, n, threads):
        chw = self.BLOCK_SHAPES[block]
        assert (ad._BLOCK_BYTES // (9 * 8 * np.prod(chw)) == 1) == (block == "one-sample")
        rng = np.random.default_rng(n * 10 + threads)
        x = ad.Parameter("x", rng.standard_normal((n,) + chw))
        with ad.batch_threads(threads):
            assert_conv_bit_equal(x, lambda: x.grad, rng)
            w, b = rng.standard_normal((3, chw[0], 3, 3)), rng.standard_normal(3)
            with ad.no_grad():
                out = ad.conv2d(x.data, w, b)
        want = padded_conv2d_reference(x.data, w, b, np.zeros(out.shape))[0]
        assert same_bits(out.data, want) and out._backward is None

    @pytest.mark.parametrize("widths", [(1, 3), (3, 1)], ids=["1to3", "3to1"])
    @pytest.mark.parametrize("block", sorted(BLOCK_SHAPES))
    def test_backward_at_another_width_keeps_the_bits(self, block, widths):
        # The backward gathers its blocks' columns again, over its own ranges.
        forward_threads, backward_threads = widths
        rng = np.random.default_rng(forward_threads * 10 + backward_threads)
        x = ad.Parameter("x", rng.standard_normal((33,) + self.BLOCK_SHAPES[block]))
        with ad.batch_threads(forward_threads):
            assert_conv_bit_equal(x, lambda: x.grad, rng, backward_threads=backward_threads)

    @pytest.mark.parametrize("block", sorted(BLOCK_SHAPES))
    def test_backward_twice_keeps_the_bits(self, block):
        chw = self.BLOCK_SHAPES[block]
        rng = np.random.default_rng(17)
        x = ad.Parameter("x", rng.standard_normal((33,) + chw))
        w = ad.Parameter("w", rng.standard_normal((3, chw[0], 3, 3)))
        b = ad.Parameter("b", rng.standard_normal(3))
        g = rng.standard_normal((33, 3) + chw[1:])
        with ad.batch_threads(2):
            out = ad.conv2d(x, w, b)
            first, second = out._backward(g), out._backward(g)
            ad.reduce_sum(ad.mul(out, ad.Tensor(g))).backward()
            once = [p.grad.copy() for p in (x, w, b)]
            ad.reduce_sum(ad.mul(ad.conv2d(x, w, b), ad.Tensor(g))).backward()
        want = padded_conv2d_reference(x.data, w.data, b.data, g)
        for name, got, again, ref, grad in zip(("dx", "dW", "db"), first, second, want[1:], once):
            assert same_bits(got, ref) and same_bits(again, ref), name
            assert same_bits(grad, ref), name
        for name, p, grad in zip(("dx", "dW", "db"), (x, w, b), once):
            assert same_bits(p.grad, 2.0 * grad), name

    def test_threads_take_contiguous_ranges(self, monkeypatch):
        calls = []
        forward = ad._forward_range

        def recorded(lo, hi, *args):
            calls.append((lo, hi, threading.get_ident()))
            return forward(lo, hi, *args)

        monkeypatch.setattr(ad, "_forward_range", recorded)
        x, w, b = np.ones((7, 2, 4, 4)), np.ones((3, 2, 3, 3)), np.zeros(3)
        with ad.batch_threads(3):
            ad.conv2d(x, w, b)
            ad.conv2d(x[:2], w, b)  # fewer samples than threads: one range each
        ranges = sorted(calls)
        assert [(lo, hi) for lo, hi, _ in ranges] == [(0, 1), (0, 2), (1, 2), (2, 4), (4, 7)]
        owner = {(lo, hi): ident for lo, hi, ident in calls}
        assert owner[0, 2] == owner[0, 1] == threading.get_ident()  # the caller runs the first range
        assert owner[2, 4] != threading.get_ident() != owner[1, 2]

    @pytest.mark.parametrize("n, threads", [(4, 1), (16, 2)], ids=["one-piece", "blocks"])
    def test_graph_keeps_no_columns(self, n, threads):
        # The backward closure holds the flat kernel and no (N, 9C, HW)
        # columns or padded copy of the input: it gathers columns again from
        # the input, which the node holds as a parent.  A block holds 7
        # samples, so 4 are one piece and 16 at two threads are 3 blocks.
        cin, cout, size = 8, 8, 16
        assert (n <= ad._BLOCK_BYTES // (9 * 8 * cin * size * size)) == (threads == 1)
        rng = np.random.default_rng(11)
        x = ad.Parameter("x", rng.standard_normal((n, cin, size, size)))
        w = ad.Parameter("w", rng.standard_normal((cout, cin, 3, 3)))
        b = ad.Parameter("b", rng.standard_normal(cout))
        with ad.batch_threads(threads):
            ad.conv2d(x, w, b)  # starts the pool threads before measuring
            kept = held_bytes(lambda: ad.conv2d(x, w, b))
        out_nbytes = n * cout * size * size * 8
        cols_nbytes = n * 9 * cin * size * size * 8
        padded_nbytes = n * cin * (size + 2) ** 2 * 8
        slack = 16 * 1024  # the flat kernel (4.6 kB) and the node's Python objects
        assert slack < padded_nbytes and out_nbytes + slack < cols_nbytes
        assert kept <= out_nbytes + slack

    def test_single_image_rank_rejected(self):
        x = ad.Tensor(np.zeros((2, 4, 4)))
        w = ad.Tensor(np.zeros((1, 2, 3, 3)))
        b = ad.Tensor(np.zeros(1))
        with pytest.raises(ad.ShapeError, match="N,C,H,W"):
            ad.conv2d(x, w, b)

    def test_channel_mismatch_rejected(self):
        x = ad.Tensor(np.zeros((1, 2, 4, 4)))
        w = ad.Tensor(np.zeros((1, 3, 3, 3)))
        b = ad.Tensor(np.zeros(1))
        with pytest.raises(ad.ShapeError):
            ad.conv2d(x, w, b)

    def test_non_3x3_kernel_rejected(self):
        x = ad.Tensor(np.zeros((1, 1, 4, 4)))
        w = ad.Tensor(np.zeros((1, 1, 5, 5)))
        b = ad.Tensor(np.zeros(1))
        with pytest.raises(ad.ShapeError):
            ad.conv2d(x, w, b)


def centered_channel_affine(x, scale, offset) -> ad.Tensor:
    """``channel_affine`` as a node that keeps ``x - offset`` for its
    backward (the unfused oracle)."""
    C = x.data.shape[1]
    s_view, o_view = scale.data.reshape(C, 1, 1), offset.data.reshape(C, 1, 1)
    centered = x.data - o_view

    def back(g):
        return g * s_view, np.sum(g * centered, axis=(0, 2, 3)), -np.sum(g, axis=(0, 2, 3)) * scale.data

    return ad.Tensor(centered * s_view, (x, scale, offset), back)


class TestFusedNodes:
    """Each fused node against the generic op chain it replaces, on inputs
    and output gradients with +0.0 and -0.0 entries."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_conv2d_relu_keeps_the_bits(self, threads, monkeypatch):
        rng = np.random.default_rng(41)
        arrays = {
            "x": with_signed_zeros(rng.standard_normal((5, 3, 5, 5))),
            "weight": rng.standard_normal((4, 3, 3, 3)),
            "bias": rng.standard_normal(4),
        }
        # 500 outputs: numpy's fmax runs 8 lanes at a time on AVX-512 and
        # leaves a tail of 4, where fmax(-0.0, 0.0) is -0.0 and not +0.0.
        out_grad = with_signed_zeros(rng.standard_normal((5, 4, 5, 5)))
        conv = ad.conv2d

        def spiked(x, weight, bias):  # +0.0, -0.0 and NaN into the relu, at every offset mod 8
            out = conv(x, weight, bias)
            flat = out.data.reshape(-1)
            flat[0::5], flat[1::3], flat[2::11] = 0.0, -0.0, np.nan
            assert np.signbit(flat[496])  # the first entry of the tail
            return out

        # conv2d_relu reaches the convolution through the module attribute.
        monkeypatch.setattr(ad, "conv2d", spiked)
        assert_same_graph(
            lambda **a: (ad.conv2d_relu(**a),), lambda **a: (ad.relu(ad.conv2d(**a)),), arrays, (out_grad,), threads
        )
        x, w, b = (ad.Tensor(a) for a in arrays.values())
        fused, generic = ad.conv2d_relu(x, w, b), ad.relu(ad.conv2d(x, w, b))
        assert not np.signbit(fused.data).any() and not np.isnan(fused.data).any()
        assert same_bits(fused._backward(out_grad)[0], generic._backward(out_grad)[0])

    def test_conv2d_relu_holds_one_activation_array(self):
        # The relu works in place: the node and its convolution share the output.
        rng = np.random.default_rng(43)
        x = ad.Tensor(rng.standard_normal((4, 8, 16, 16)))
        w, b = ad.Tensor(rng.standard_normal((8, 8, 3, 3))), ad.Tensor(rng.standard_normal(8))
        ad.conv2d_relu(x, w, b)
        kept = held_bytes(lambda: ad.conv2d_relu(x, w, b))
        out_nbytes = 4 * 8 * 16 * 16 * 8
        slack = 16 * 1024  # the flat kernel (4.6 kB) and the nodes' Python objects
        assert kept <= out_nbytes + slack < 2 * out_nbytes
        with ad.no_grad():
            assert ad.conv2d_relu(x, w, b)._parents == ()

    def test_channel_affine_keeps_the_bits(self):
        rng = np.random.default_rng(47)
        arrays = {
            "x": with_signed_zeros(rng.standard_normal((6, 3, 5, 5))),
            "scale": rng.standard_normal(3),
            "offset": rng.standard_normal(3),
        }
        out_grad = with_signed_zeros(rng.standard_normal((6, 3, 5, 5)))
        assert_same_graph(
            lambda **a: (ad.channel_affine(**a),), lambda **a: (centered_channel_affine(**a),), arrays, (out_grad,)
        )


class TestForwardValues:
    def test_tanh_gradient_at_zero_is_one(self):
        p = ad.Parameter("p", np.zeros(3))
        ad.reduce_sum(ad.tanh(p)).backward()
        np.testing.assert_allclose(p.grad, np.ones(3))

    def test_exp_of_huge_input_stays_finite(self):
        out = ad.exp(ad.Tensor(np.array([1e6, -1e6, 0.0])))
        assert np.all(np.isfinite(out.data))

    def test_forward_ops_finite_on_finite_inputs(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((2, 4, 4)) * 100.0)
        for op in (ad.exp, ad.tanh, ad.relu, ad.neg, ad.log_abs):
            assert np.all(np.isfinite(op(x).data)), op.__name__

    def test_shape_mismatch_rejected(self):
        a = ad.Tensor(np.zeros(3))
        b = ad.Tensor(np.zeros(4))
        with pytest.raises(ad.ShapeError):
            ad.add(a, b)
        with pytest.raises(ad.ShapeError):
            ad.mul(a, b)

    def test_scalar_broadcast_allowed(self):
        a = ad.Tensor(np.arange(4.0))
        out = ad.add(a, 2.0)
        np.testing.assert_allclose(out.data, np.arange(4.0) + 2.0)
        out = ad.mul(3.0, a)
        np.testing.assert_allclose(out.data, 3.0 * np.arange(4.0))

    def test_squeeze_block_scan_order(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # [[a,b],[c,d]]
        out = ad.squeeze2x2_array(x)
        np.testing.assert_allclose(out.reshape(4), [1.0, 2.0, 3.0, 4.0])

    def test_squeeze_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3, 8, 6))
        np.testing.assert_allclose(ad.unsqueeze2x2_array(ad.squeeze2x2_array(x)), x)

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((1, 2, 3, 3))
        b = rng.standard_normal((1, 4, 3, 3))
        cat = ad.concat_channels([ad.Tensor(a), ad.Tensor(b)])
        np.testing.assert_allclose(ad.slice_channels(cat, 0, 2).data, a)
        np.testing.assert_allclose(ad.slice_channels(cat, 2, 6).data, b)

    def test_channel_affine_matches_manual(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4))
        scale = rng.standard_normal(3)
        offset = rng.standard_normal(3)
        out = ad.channel_affine(ad.Tensor(x), ad.Tensor(scale), ad.Tensor(offset)).data
        expected = (x - offset[None, :, None, None]) * scale[None, :, None, None]
        np.testing.assert_allclose(out, expected)


class TestBackward:
    def test_square_gradient(self):
        w = ad.Parameter("w", np.array(3.0))
        ad.mul(w, w).backward()
        np.testing.assert_allclose(w.grad, 6.0)

    def test_backward_accumulates_across_calls(self):
        w = ad.Parameter("w", np.array(3.0))
        ad.mul(w, w).backward()
        ad.mul(w, w).backward()
        np.testing.assert_allclose(w.grad, 12.0)

    def test_second_backward_of_a_graph_raises(self):
        w = ad.Parameter("w", np.array(3.0))
        loss = ad.mul(ad.exp(w), w)
        loss.backward()
        once = w.grad.copy()
        with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
            loss.backward()
        assert same_bits(w.grad, once)

    def test_backward_through_a_consumed_node_raises_before_any_gradient_moves(self):
        w = ad.Parameter("w", np.array(3.0))
        v = ad.Parameter("v", np.array(2.0))
        shared = ad.exp(w)
        ad.mul(shared, w).backward()
        once = w.grad.copy()
        with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
            ad.add(ad.mul(v, v), ad.mul(shared, v)).backward()
        assert same_bits(w.grad, once) and same_bits(v.grad, np.zeros(()))

    def test_backward_leaves_no_graph(self):
        w = ad.Parameter("w", np.array([1.5, -0.5]))
        inner = ad.exp(w)
        loss = ad.reduce_sum(ad.mul(inner, w))
        loss.backward()
        assert loss._parents == () and inner._parents == ()

    @pytest.mark.parametrize("leaf", ["tensor", "parameter"])
    def test_leaf_backward_repeats(self, leaf):
        t = ad.Tensor(np.array(2.0)) if leaf == "tensor" else ad.Parameter("p", np.array(2.0))
        t.backward()
        t.backward()
        assert t.grad is None if leaf == "tensor" else same_bits(t.grad, np.array(2.0))

    def test_non_scalar_backward_rejected(self):
        t = ad.Tensor(np.zeros(3))
        with pytest.raises(ad.ShapeError):
            t.backward()

    def test_disconnected_parameter_keeps_zero_gradient(self):
        used = ad.Parameter("used", np.array(2.0))
        unused = ad.Parameter("unused", np.ones(4))
        ad.mul(used, used).backward()
        np.testing.assert_allclose(unused.grad, np.zeros(4))

    def test_zero_grad_resets(self):
        w = ad.Parameter("w", np.array(3.0))
        ad.mul(w, w).backward()
        w.zero_grad()
        np.testing.assert_allclose(w.grad, 0.0)


class TestNoGrad:
    def _graph(self):
        w = ad.Parameter("w", np.array([1.5, -0.5]))
        return w, ad.reduce_sum(ad.mul(ad.exp(w), w))

    def test_tensors_built_inside_have_no_parents(self):
        with ad.no_grad():
            w, out = self._graph()
            conv = ad.conv2d(np.ones((1, 2, 4, 4)), np.ones((3, 2, 3, 3)), np.zeros(3))
        for t in (out, conv):
            assert t._parents == () and t._backward is None
        _, again = self._graph()
        assert again.data == out.data  # same value with the graph on
        assert again._parents and again._backward is not None

    def test_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        w, out = self._graph()
        out.backward()
        np.testing.assert_allclose(w.grad, np.exp(w.data) * (1.0 + w.data))

    def test_nested_blocks_restore_the_outer_mode(self):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert self._graph()[1]._parents == ()
        assert self._graph()[1]._parents

    def test_other_thread_keeps_its_graph(self):
        built = {}

        def worker():
            built["w"], built["out"] = self._graph()

        with ad.no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert built["out"]._parents
        built["out"].backward()
        w = built["w"]
        np.testing.assert_allclose(w.grad, np.exp(w.data) * (1.0 + w.data))


class TestBatchThreads:
    def test_pool_lives_only_inside_the_block(self):
        before = threading.active_count()
        with ad.batch_threads(3):
            assert ad._batch.width == 3
            ad.conv2d(np.ones((6, 2, 4, 4)), np.ones((3, 2, 3, 3)), np.zeros(3))
            assert threading.active_count() > before
        assert threading.active_count() == before
        assert ad._batch.width == 1 and ad._batch.pool is None

    def test_nested_blocks_restore_the_outer_width(self):
        with ad.batch_threads(2):
            outer = ad._batch.pool
            with ad.batch_threads(3):
                assert ad._batch.width == 3
            assert ad._batch.width == 2 and ad._batch.pool is outer
        assert ad._batch.width == 1

    def test_width_is_per_thread(self):
        seen = {}
        thread = threading.Thread(target=lambda: seen.update(width=ad._batch.width))
        with ad.batch_threads(2):
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen == {"width": 1}

    def test_more_threads_than_cores_write_disjoint_ranges(self):
        # The ranges share the output, column and gradient arrays; a short
        # switch interval interleaves the threads as often as it can.
        rng = np.random.default_rng(17)
        x = ad.Parameter("x", rng.standard_normal((33, 4, 16, 16)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ad.batch_threads(7):
                assert_conv_bit_equal(x, lambda: x.grad, rng, cout=5)
        finally:
            sys.setswitchinterval(interval)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            with ad.batch_threads(0):
                pass

    def test_pool_thread_exception_reaches_the_caller(self, monkeypatch):
        class RangeFailure(Exception):
            pass

        forward = ad._forward_range

        def failing(lo, hi, *args):
            if threading.current_thread() is not threading.main_thread():
                raise RangeFailure(f"range {lo}:{hi}")
            return forward(lo, hi, *args)

        monkeypatch.setattr(ad, "_forward_range", failing)
        before = threading.active_count()
        with pytest.raises(RangeFailure, match="range 3:6"):
            with ad.batch_threads(2):
                ad.conv2d(np.ones((6, 2, 4, 4)), np.ones((3, 2, 3, 3)), np.zeros(3))
        assert threading.active_count() == before
        assert ad._batch.width == 1


def _weighted_sum(t: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    return ad.reduce_sum(ad.mul(t, ad.Tensor(weights)))


# Each entry builds a scalar loss from one Parameter; gradients are then
# compared against central differences over >= 20 seeds.
_OP_CASES = {
    "add": lambda p, c: ad.add(p, ad.Tensor(c)),
    "sub": lambda p, c: ad.sub(ad.Tensor(c), p),
    "mul": lambda p, c: ad.mul(p, ad.Tensor(c)),
    "neg": lambda p, c: ad.neg(p),
    "exp": lambda p, c: ad.exp(p),
    "tanh": lambda p, c: ad.tanh(p),
    "relu": lambda p, c: ad.relu(p),
    "affine": lambda p, c: ad.affine(p, 1.7, -0.3),
    "log_abs": lambda p, c: ad.log_abs(p),
    "scalar_broadcast": lambda p, c: ad.mul(p, ad.Tensor(np.array(0.7))),
}


@pytest.mark.parametrize("name", sorted(_OP_CASES))
def test_elementwise_gradients_match_finite_differences(name):
    build = _OP_CASES[name]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((4, 4))
        if name == "relu":
            base = base + 0.1 * np.sign(base)  # keep away from the kink
        if name == "log_abs":
            base = base + 0.5 * np.sign(base)  # keep away from zero
        p = ad.Parameter("p", base)
        const = rng.standard_normal((4, 4))
        weights = rng.standard_normal((4, 4))

        def loss_fn():
            return _weighted_sum(build(p, const), weights).item()

        _weighted_sum(build(p, const), weights).backward()
        fd = finite_diff_grad(loss_fn, [p])[0]
        assert rel_err(p.grad, fd) < 1e-3, name


@pytest.mark.parametrize("batched", [False, True])
def test_conv2d_gradients_match_finite_differences(batched):
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        shape = (2, 2, 3, 3) if batched else (1, 2, 3, 3)  # one image is N=1
        x = ad.Parameter("x", rng.standard_normal(shape))
        w = ad.Parameter("w", rng.standard_normal((2, 2, 3, 3)) * 0.5)
        b = ad.Parameter("b", rng.standard_normal(2) * 0.5)
        weights = rng.standard_normal(shape[:-3] + (2,) + shape[-2:])

        def loss_fn():
            return _weighted_sum(ad.conv2d(x, w, b), weights).item()

        _weighted_sum(ad.conv2d(x, w, b), weights).backward()
        fds = finite_diff_grad(loss_fn, [x, w, b])
        for p, fd in zip((x, w, b), fds):
            assert rel_err(p.grad, fd) < 1e-3, p.name


def test_structural_gradients_match_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        p = ad.Parameter("p", rng.standard_normal((1, 2, 4, 4)))
        weights = rng.standard_normal((1, 8, 2, 2))
        weights2 = rng.standard_normal((1, 1, 4, 4))
        scale = ad.Parameter("scale", rng.standard_normal(2) + 2.0)
        offset = ad.Parameter("offset", rng.standard_normal(2))

        def loss_fn():
            t = ad.squeeze2x2(p)
            a = _weighted_sum(t, weights)
            u = ad.slice_channels(ad.reverse_channels(p), 1, 2)
            c = _weighted_sum(ad.concat_channels([u]), weights2)
            d = ad.reduce_sum(ad.channel_affine(p, scale, offset), axes=(0, 2, 3))
            return ad.add(ad.add(a, c), ad.reduce_sum(ad.mul(d, ad.Tensor(np.array([0.3, -0.2]))))).item()

        t = ad.squeeze2x2(p)
        a = _weighted_sum(t, weights)
        u = ad.slice_channels(ad.reverse_channels(p), 1, 2)
        c = _weighted_sum(ad.concat_channels([u]), weights2)
        d = ad.reduce_sum(ad.channel_affine(p, scale, offset), axes=(0, 2, 3))
        ad.add(ad.add(a, c), ad.reduce_sum(ad.mul(d, ad.Tensor(np.array([0.3, -0.2]))))).backward()
        fds = finite_diff_grad(loss_fn, [p, scale, offset])
        for prm, fd in zip((p, scale, offset), fds):
            assert rel_err(prm.grad, fd) < 1e-3, prm.name


def test_reduce_sum_axis_gradient():
    rng = np.random.default_rng(9)
    p = ad.Parameter("p", rng.standard_normal((3, 2, 2, 2)))
    w = rng.standard_normal(3)

    def loss_fn():
        return ad.reduce_sum(ad.mul(ad.reduce_sum(p, axes=(1, 2, 3)), ad.Tensor(w))).item()

    ad.reduce_sum(ad.mul(ad.reduce_sum(p, axes=(1, 2, 3)), ad.Tensor(w))).backward()
    fd = finite_diff_grad(loss_fn, [p])[0]
    assert rel_err(p.grad, fd) < 1e-3


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = ad.Parameter("p", np.array([1.0, -2.0]))
        opt = ad.Adam([p], learning_rate=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0])

    def test_first_step_magnitude_near_learning_rate(self):
        p = ad.Parameter("p", np.array([0.0, 0.0]))
        p.grad[...] = np.array([3.0, -0.5])
        opt = ad.Adam([p], learning_rate=1e-4)
        opt.step()
        np.testing.assert_allclose(p.data, [-1e-4, 1e-4], rtol=1e-6)
        assert opt.step_count == 1
        np.testing.assert_allclose(p.grad, 0.0)  # cleared after the step

    def test_converges_on_quadratic(self):
        w = ad.Parameter("w", np.array(0.0))
        opt = ad.Adam([w], learning_rate=0.1)
        for _ in range(200):
            diff = ad.sub(w, ad.Tensor(np.array(2.0)))
            ad.mul(diff, diff).backward()
            opt.step()
        assert abs(float(w.data) - 2.0) < 1e-2
