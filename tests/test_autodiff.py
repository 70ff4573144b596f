import threading
import tracemalloc

import numpy as np
import pytest

from helpers import (
    composed_branch,
    composed_upsample_fuse,
    gradient_check,
    graph_nodes,
    linear,
    param_tensors,
    pick,
    tdot,
    tsum,
)
from pddiag import autodiff as ad
from pddiag.aggregator import AggregatedFeature, FusionProjection, upsample_fuse
from pddiag.diagnoser import BranchParams, Label, ce_loss_node, classify, predict_brain_age, squared_error


def conv3d_bruteforce(x, w, b):
    """Direct triple-loop convolution oracle: kernel 3, stride 2, pad 1."""
    cin, d, h, wd = x.shape
    cout = w.shape[0]
    do, ho, wo = (d + 2 - 3) // 2 + 1, (h + 2 - 3) // 2 + 1, (wd + 2 - 3) // 2 + 1
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.zeros((cout, do, ho, wo))
    for co in range(cout):
        for od in range(do):
            for oh in range(ho):
                for ow in range(wo):
                    acc = b[co]
                    for ci in range(cin):
                        for kd in range(3):
                            for kh in range(3):
                                for kw in range(3):
                                    acc += w[co, ci, kd, kh, kw] * xp[ci, 2 * od + kd, 2 * oh + kh, 2 * ow + kw]
                    out[co, od, oh, ow] = acc
    return out


# (Cin, D, H, W) input shapes: a small two-channel case; (1, 5, 50, 48), whose
# forward-only output spans two blocks of ~256 KB of columns, the last one
# partial and padded below the input; an odd 9³ edge; a non-cubic 5×6×7.
CONV_CASES = [(2, 6, 4, 6), (1, 5, 50, 48), (2, 9, 9, 9), (2, 5, 6, 7)]
# which of x, w, b need a gradient; none of them selects the blocked forward
GRAD_FLAGS = {"no-grad": (False, False, False), "w-grad": (False, True, False), "x-grad": (True, False, False)}
# ((Cin, D, H, W), Cout) of every conv the model (C = 8) runs on the benchmark's 32³ and 64³ volumes:
# the encoder's 1 -> 4 and 4 -> 8, then a branch's 8 -> 8
BENCHMARK_CONVS = [
    ((1, 32, 32, 32), 4), ((4, 16, 16, 16), 8), ((8, 8, 8, 8), 8),
    ((1, 64, 64, 64), 4), ((4, 32, 32, 32), 8), ((8, 16, 16, 16), 8),
]  # fmt: skip
# the encoder's two convs on the MNI152 2 mm template grid, 91×109×91
TEMPLATE_GRID_CONVS = [((1, 91, 109, 91), 4), ((4, 46, 55, 46), 8)]


def conv_id(shape, cout=3) -> str:
    return "x".join(map(str, shape)) + ("" if cout == 3 else f"-to-{cout}")


def col2im_loop(gcols, x_shape):
    """The 27-tap strided scatter of column gradients onto the padded input,
    one tap at a time: the reference for conv3d_down's indexed scatter."""
    cin, d, h, wd = x_shape
    _, _, do, ho, wo = gcols.shape
    gxp = np.zeros((cin, d + 2, h + 2, wd + 2))
    j = 0
    for kd in range(3):
        for kh in range(3):
            for kw in range(3):
                gxp[:, kd : kd + 2 * do : 2, kh : kh + 2 * ho : 2, kw : kw + 2 * wo : 2] += gcols[:, j]
                j += 1
    return gxp[:, 1 : 1 + d, 1 : 1 + h, 1 : 1 + wd]


def conv_inputs(shape, flags, seed=0, cout=3):
    rng = np.random.default_rng(seed)
    arrays = (rng.standard_normal(shape), rng.standard_normal((cout, shape[0], 3, 3, 3)), rng.standard_normal(cout))
    return arrays, [ad.parameter(a) if g else ad.constant(a) for a, g in zip(arrays, flags)]


class TestConv:
    @pytest.mark.parametrize("flags", GRAD_FLAGS.values(), ids=GRAD_FLAGS.keys())
    @pytest.mark.parametrize("shape", CONV_CASES, ids=lambda s: "x".join(map(str, s)))
    def test_matches_bruteforce(self, shape, flags):
        (x, w, b), tensors = conv_inputs(shape, flags)
        out = ad.conv3d_down(*tensors)
        np.testing.assert_allclose(out.data, conv3d_bruteforce(x, w, b), rtol=1e-12, atol=1e-12)

    def test_multi_block_case_spans_blocks(self):
        cin, _, h, wd = CONV_CASES[1]
        plane_bytes = cin * 27 * ((h + 1) // 2) * ((wd + 1) // 2) * 8
        assert ad._BLOCK_BYTES // plane_bytes < 3  # 3 output planes, so at least two blocks

    BITWISE_CASES = [(s, 3) for s in CONV_CASES + [(4, 16, 16, 16)]] + BENCHMARK_CONVS

    @pytest.mark.parametrize("shape, cout", BITWISE_CASES, ids=[conv_id(*c) for c in BITWISE_CASES])
    def test_no_grad_forward_equals_grad_forward(self, shape, cout):
        # every output column is the same dot product over the same 27·Cin
        # taps whichever block it lands in, but BLAS may round a block's GEMM
        # differently from the whole output's (see the template-grid case
        # below); at these shapes, which hold every conv the benchmark runs,
        # the two paths agree bit for bit
        _, const = conv_inputs(shape, GRAD_FLAGS["no-grad"], cout=cout)
        _, grad = conv_inputs(shape, GRAD_FLAGS["w-grad"], cout=cout)
        np.testing.assert_array_equal(ad.conv3d_down(*const).data, ad.conv3d_down(*grad).data)

    @pytest.mark.parametrize("shape, cout", TEMPLATE_GRID_CONVS, ids=[conv_id(*c) for c in TEMPLATE_GRID_CONVS])
    def test_no_grad_forward_near_grad_forward_on_the_template_grid(self, shape, cout):
        # here a blocked GEMM sums some outputs' 27·Cin products in another
        # order than the whole one does, so those differ in their last bits
        _, const = conv_inputs(shape, GRAD_FLAGS["no-grad"], cout=cout)
        _, grad = conv_inputs(shape, GRAD_FLAGS["w-grad"], cout=cout)
        assert np.abs(ad.conv3d_down(*const).data - ad.conv3d_down(*grad).data).max() <= 1e-12

    @pytest.mark.parametrize(
        "shape", CONV_CASES + [(4, 16, 16, 16), (8, 8, 8, 8)], ids=lambda s: "x".join(map(str, s))
    )
    def test_input_gradient_equals_tap_loop(self, shape):
        (_, w, _), tensors = conv_inputs(shape, GRAD_FLAGS["x-grad"])
        out = ad.conv3d_down(*tensors)
        g = np.random.default_rng(1).standard_normal(out.data.shape)
        gx, _, _ = out._backward(g)
        cout, do, ho, wo = out.data.shape
        gcols = (w.reshape(cout, -1).T @ g.reshape(cout, -1)).reshape(shape[0], 27, do, ho, wo)
        np.testing.assert_array_equal(gx, col2im_loop(gcols, shape))

    def test_tap_index_is_cached_and_read_only(self):
        x = ad.parameter(np.ones((2, 6, 4, 6)))
        w, b = ad.constant(np.ones((3, 2, 3, 3, 3))), ad.constant(np.zeros(3))
        hits = ad._tap_index.cache_info().hits
        for _ in range(2):
            ad.backward(tsum(ad.conv3d_down(x, w, b)))
        assert ad._tap_index.cache_info().hits > hits  # the second backward reuses the first's index
        idx = ad._tap_index((2, 7, 6, 8), 2, 3)  # this input's slab: 2·3 + 1 planes, H and W padded
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0

    @pytest.mark.parametrize("shape", CONV_CASES[1:3], ids=lambda s: "x".join(map(str, s)))
    def test_consecutive_no_grad_convs_are_independent(self, shape):
        # both calls take the same kept slab and columns; the first call's
        # input must not leak into the second, nor its output be overwritten
        outs = [ad.conv3d_down(*conv_inputs(shape, GRAD_FLAGS["no-grad"], seed)[1]) for seed in (0, 1)]
        assert not np.shares_memory(outs[0].data, outs[1].data)
        for seed, out in enumerate(outs):
            grad_path = ad.conv3d_down(*conv_inputs(shape, GRAD_FLAGS["w-grad"], seed)[1])
            np.testing.assert_array_equal(out.data, grad_path.data)

    def test_no_grad_scratch_is_bounded(self):
        for edge in range(4, 16):
            ad.conv3d_down(*conv_inputs((1, 2, edge, edge), GRAD_FLAGS["no-grad"])[1])
        assert ad._kept_scratch.cache_info().currsize <= 8

    @pytest.mark.parametrize("shape", CONV_CASES, ids=lambda s: "x".join(map(str, s)))
    def test_conv_relu_equals_relu_of_conv(self, shape):
        (x, _, _), const = conv_inputs(shape, GRAD_FLAGS["no-grad"])
        _, grad = conv_inputs(shape, GRAD_FLAGS["w-grad"])
        out = ad.conv_relu(*const)
        assert out.data.tobytes() == relu_reference(ad.conv3d_down(*grad).data).tobytes()
        assert ad.conv_relu(*grad).data.tobytes() == out.data.tobytes()
        assert const[0].data.tobytes() == x.tobytes()

    @pytest.mark.parametrize("shape", CONV_CASES, ids=lambda s: "x".join(map(str, s)))
    def test_conv_relu_with_grad_equals_relu_of_conv(self, shape):
        (x, w, b), _ = conv_inputs(shape, GRAD_FLAGS["no-grad"])
        w[0], b[0] = 0.0, 0.0  # output channel 0 has exact-zero pre-activations
        coeff = np.random.default_rng(2).standard_normal(ad.conv3d_down(*map(ad.constant, (x, w, b))).data.shape)
        results = []
        for by_hand in (False, True):
            tensors = [ad.parameter(a) for a in (x, w, b)]
            if by_hand:  # the ReLU after the conv: np.where forward, g * mask backward
                pre = ad.conv3d_down(*tensors)
                data = relu_reference(pre.data)
                ad.backward(tdot(pre, coeff * (pre.data > 0.0)))
            else:
                out = ad.conv_relu(*tensors)
                data = out.data
                ad.backward(tdot(out, coeff))
            results.append([data.tobytes()] + [t.grad.tobytes() for t in tensors])
        assert (np.frombuffer(results[0][0])[: coeff[0].size] == 0.0).all()
        assert results[0] == results[1]

    def test_conv_relu_with_grad_is_one_node_over_conv_inputs(self):
        x, w, b = (ad.parameter(a) for a in conv_inputs(CONV_CASES[0], GRAD_FLAGS["no-grad"])[0])
        out = ad.conv_relu(x, w, b)
        assert len(out._parents) == 3 and all(p is q for p, q in zip(out._parents, (x, w, b)))

    @pytest.mark.parametrize("shape", CONV_CASES, ids=lambda s: "x".join(map(str, s)))
    def test_same_shape_grad_convs_in_one_graph(self, shape):
        # both convs take the same kept slab; each must keep its own columns,
        # so backward after both forwards gives each graph's own gradients
        def leaves(seed):
            return [ad.parameter(a) for a in conv_inputs(shape, GRAD_FLAGS["no-grad"], seed)[0]]

        def loss(tensors, seed):
            out = ad.conv_relu(*tensors)
            coeff = np.random.default_rng(seed + 10).standard_normal(out.data.shape)
            return tdot(out, coeff)

        joint = [leaves(0), leaves(1)]
        for root in [loss(tensors, seed) for seed, tensors in enumerate(joint)]:  # both forwards first
            ad.backward(root)
        for seed, tensors in enumerate(joint):
            alone = leaves(seed)
            ad.backward(loss(alone, seed))
            for t, a in zip(tensors, alone):
                assert t.grad.tobytes() == a.grad.tobytes()

    def test_scratch_is_bounded_when_grad_and_no_grad_interleave(self):
        for edge in range(4, 16):
            for flags in (GRAD_FLAGS["no-grad"], GRAD_FLAGS["w-grad"]):
                ad.conv3d_down(*conv_inputs((1, 2, edge, edge), flags)[1])
        assert ad._kept_scratch.cache_info().currsize <= 8
        # a grad-path entry holds no column buffer
        assert ad._kept_scratch(threading.get_ident(), 1, 2, 15, 15, False)[2] is None

    def test_threads_never_share_a_slab(self):
        def slab():
            return ad._kept_scratch(threading.get_ident(), 2, 3, 4, 6, False)[0]

        slabs = [slab()]
        worker = threading.Thread(target=lambda: slabs.append(slab()))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and len(slabs) == 2
        assert not np.shares_memory(*slabs)

    def test_output_shape_halves(self):
        x = ad.constant(np.zeros((1, 8, 8, 8)))
        w = ad.constant(np.zeros((4, 1, 3, 3, 3)))
        out = ad.conv3d_down(x, w, ad.constant(np.zeros(4)))
        assert out.data.shape == (4, 4, 4, 4)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        x = ad.parameter(rng.standard_normal((2, 4, 4, 4)))
        w = ad.parameter(rng.standard_normal((3, 2, 3, 3, 3)) * 0.5)
        b = ad.parameter(rng.standard_normal(3))
        coeff = rng.standard_normal((3, 2, 2, 2))

        def loss():
            return tdot(ad.conv3d_down(x, w, b), coeff)

        assert gradient_check(loss, [x, w, b], probe_count=80, seed=2) < 1e-6


class TestPrimitives:
    def test_cross_entropy_value_and_stability(self):
        z = ad.constant(np.array([1000.0, 1000.0]))
        out = ce_loss_node(z, Label.PD)
        assert out.item() == pytest.approx(np.log(2.0))

    def test_pick_and_linear(self):
        w = ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        x = ad.constant(np.array([5.0, 6.0]))
        b = ad.constant(np.array([0.5, -0.5]))
        out = linear(w, x, b)
        assert (out.data == [17.5, 38.5]).all()
        assert pick(out, 1).item() == 38.5

    def test_composite_gradients(self):
        rng = np.random.default_rng(3)
        w = ad.parameter(rng.standard_normal((3, 4)))
        b = ad.parameter(rng.standard_normal(3))
        x = ad.constant(rng.standard_normal(4))

        mix = ad.constant(rng.standard_normal((3, 3)))

        def loss():
            h = linear(w, x, b)
            return ce_loss_node(linear(mix, h, h), Label.OTHER)  # h reaches the loss by two paths

        assert gradient_check(loss, [w, b], probe_count=30, seed=4) < 1e-7


# the two model layers that build their own node: the fusion in
# aggregator.upsample_fuse and each branch's pooling and head in diagnoser
LAYER_CHANNELS = [2, 4]
LAYER_GRID = (5, 6, 7)


def layer_inputs(channels, outputs=2, seed=0):
    """A trainable (C, 5, 6, 7) input, an aggregate, a fusion projection and a branch with a unit-scale head."""
    rng = np.random.default_rng(seed)
    x = ad.parameter(rng.standard_normal((channels, *LAYER_GRID)))
    agg = AggregatedFeature(mean=float(rng.standard_normal()), std=float(rng.uniform(0.5, 2.0)))
    fusion = FusionProjection(
        weight=ad.parameter(rng.standard_normal((channels, 2))), bias=ad.parameter(rng.standard_normal(channels))
    )
    branch = BranchParams.init(channels, outputs, rng)
    branch.head_w.data[:] = rng.standard_normal((outputs, channels))
    branch.head_b.data[:] = rng.standard_normal(outputs)
    return x, agg, fusion, branch


class TestLayerNodes:
    def test_upsample_fuse_value(self):
        for channels in LAYER_CHANNELS:
            x, agg, fusion, _ = layer_inputs(channels)
            out = upsample_fuse(agg, x, fusion)
            w, b = fusion.weight.data, fusion.bias.data
            lift = w[:, 0] * agg.mean + w[:, 1] * agg.std + b
            np.testing.assert_allclose(out.data, x.data + lift[:, None, None, None], rtol=1e-12)
            # on a zero dense tensor each channel holds its one lifted value at every voxel
            lifted = upsample_fuse(agg, ad.constant(np.zeros(x.data.shape)), fusion).data
            assert (lifted == lifted[:, :1, :1, :1]).all()
            np.testing.assert_allclose(lifted[:, 0, 0, 0], lift, rtol=1e-12)

    def test_branch_head_value(self):
        for channels in LAYER_CHANNELS:
            x, _, _, branch = layer_inputs(channels)
            h = ad.conv_relu(x, branch.conv_w, branch.conv_b).data
            expected = branch.head_w.data @ h.mean(axis=(1, 2, 3)) + branch.head_b.data
            np.testing.assert_allclose(classify(x, branch).data, expected, rtol=1e-12)
            x, _, _, age = layer_inputs(channels, outputs=1)
            h = ad.conv_relu(x, age.conv_w, age.conv_b).data
            expected = age.head_w.data[0] @ h.mean(axis=(1, 2, 3)) + age.head_b.data[0]
            assert predict_brain_age(x, age).item() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("channels", LAYER_CHANNELS)
    def test_upsample_fuse_gradients(self, channels):
        x, agg, fusion, _ = layer_inputs(channels, seed=1)
        coeff = np.random.default_rng(2).standard_normal(x.data.shape)

        def loss():
            return tdot(upsample_fuse(agg, x, fusion), coeff)

        # the input and the projection apart, so the few projection entries get probes of their own
        for params in ([x], [fusion.weight, fusion.bias]):
            assert gradient_check(loss, params, probe_count=30, seed=3) < 1e-7

    @pytest.mark.parametrize("channels", LAYER_CHANNELS)
    def test_branch_head_gradients(self, channels):
        x, _, _, branch = layer_inputs(channels, seed=4)
        coeff = np.random.default_rng(5).standard_normal(2)

        def loss():
            return tdot(classify(x, branch), coeff)

        for params in ([x, branch.conv_w, branch.conv_b], [branch.head_w, branch.head_b]):
            assert gradient_check(loss, params, probe_count=30, seed=6) < 1e-6

    @pytest.mark.parametrize("channels", LAYER_CHANNELS)
    def test_gradients_bitwise_equal_composition(self, channels):
        """Each layer node's value and gradients are bit for bit those of the node-by-node composition."""
        x, agg, fusion, branch = layer_inputs(channels, seed=7)
        _, _, _, age = layer_inputs(channels, outputs=1, seed=8)
        cases = [
            (lambda: upsample_fuse(agg, x, fusion), lambda: composed_upsample_fuse(agg, x, fusion), [fusion]),
            (lambda: classify(x, branch), lambda: composed_branch(x, branch), [branch]),
            (lambda: predict_brain_age(x, age), lambda: pick(composed_branch(x, age), 0), [age]),
        ]
        coeff_rng = np.random.default_rng(9)
        for node, composed, parts in cases:
            params = [x] + param_tensors(*parts)
            coeff = coeff_rng.standard_normal(node().data.shape)
            runs = []
            for build in (node, composed):
                ad.zero_grads(params)
                out = build()
                ad.backward(tdot(out, coeff))
                runs.append([out.data.tobytes()] + [p.grad.tobytes() for p in params])
            assert runs[0] == runs[1]


def composed_cross_entropy(z, index, g):
    """Value and input gradient of sub(logsumexp(z), pick(z, index)) at upstream gradient g, node by node."""
    m = np.max(z)
    lse = np.log(np.sum(np.exp(z - m))) + m
    value = np.asarray(lse) - np.asarray(z[index])
    g = np.asarray(g)
    picked = np.zeros_like(z)
    picked[index] = -g
    # the engine reaches logsumexp before pick, so its gradient is held first
    return value, g * np.exp(z - lse) + picked


class TestCrossEntropy:
    """diagnoser.ce_loss_node against the three-node composition it replaced, bit for bit."""

    LABELS = (Label.PD, Label.OTHER)  # by logit index

    LOGITS = [
        *np.random.default_rng(8).normal(0.0, 3.0, size=(20, 2)),
        [1000.0, 1000.0],
        [1000.0, -1000.0],
        [-1000.0, 1000.0],
        [-1000.0, -1000.0],
        [0.0, -0.0],
    ]

    # a loss's upstream gradient is the positive backward seed (1 / batch size); with a
    # negative g an underflowed exp would give -0.0 where the composition added +0.0
    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("g", [1.0, 0.25, 1.0 / 3.0])
    def test_bitwise_equals_composition(self, index, g):
        for z in self.LOGITS:
            z = np.array(z, dtype=np.float64)
            want_value, want_grad = composed_cross_entropy(z, index, g)
            logits = ad.parameter(z)
            out = ce_loss_node(logits, self.LABELS[index])
            assert out.data.tobytes() == want_value.tobytes()
            ad.backward(out, seed=g)
            assert logits.grad.tobytes() == want_grad.tobytes()

    def test_is_one_node(self):
        logits = ad.parameter(np.array([0.5, -1.0]))
        out = ce_loss_node(logits, Label.OTHER)
        assert out._parents == (logits,)
        assert graph_nodes(out) == 2

    def test_gradient_check(self):
        rng = np.random.default_rng(9)
        z = ad.parameter(rng.standard_normal(2))
        for index in (0, 1):
            assert gradient_check(lambda: ce_loss_node(z, self.LABELS[index]), [z], probe_count=10, seed=index) < 1e-7


class TestSquaredError:
    """diagnoser.squared_error against mul(err, err) over err = sub(a, constant(target)), bit for bit."""

    CASES = [*np.random.default_rng(17).normal(60.0, 15.0, size=(20, 2)), (65.0, 65.0), (-0.0, 0.0), (1e3, -1e3)]

    @pytest.mark.parametrize("g", [1.0, 0.25, -0.5])
    def test_bitwise_equals_composition(self, g):
        for a, target in self.CASES:
            # mul passed g * err to each of its two operands, err both times, and the engine summed them
            err = np.float64(a) - target
            param = ad.parameter(a)
            out = squared_error(param, target)
            assert out.data.tobytes() == np.asarray(err * err).tobytes()
            ad.backward(out, seed=g)
            assert param.grad.tobytes() == np.asarray(g * err + g * err).tobytes()

    def test_is_one_node(self):
        a = ad.parameter(2.0)
        out = squared_error(a, 1.0)
        assert out._parents == (a,)
        assert graph_nodes(out) == 2

    def test_gradient_check(self):
        p = ad.parameter(np.random.default_rng(18).normal(60.0, 10.0, size=3))
        for index in (0, 2):
            assert gradient_check(lambda: squared_error(pick(p, index), 62.5), [p], probe_count=10, seed=index) < 1e-7


RELU_SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0]


def relu_reference(a):
    return np.where(a > 0, a, 0.0)


class TestNoGradRelu:
    """_relu_values, fresh and in place (as conv_relu runs it), against np.where bit for bit."""

    @staticmethod
    def values(n, seed=0):
        rng = np.random.default_rng(seed)
        specials = rng.choice(RELU_SPECIALS, size=n)
        return np.where(rng.random(n) < 0.5, specials, rng.standard_normal(n))

    @pytest.mark.parametrize("n", [*range(1, 71), 127, 128, 129])
    def test_bitwise_equals_where(self, n):
        a = self.values(n, seed=n)
        want = relu_reference(a).tobytes()
        assert ad._relu_values(a).tobytes() == want
        inplace = a.copy()
        ad._relu_values(inplace, out=inplace)
        assert inplace.tobytes() == want

    def test_every_special_value(self):
        a = np.array(RELU_SPECIALS)
        got = ad._relu_values(a)
        assert got.tobytes() == relu_reference(a).tobytes()
        assert not np.signbit(got).any() and not np.isnan(got).any()

    @pytest.mark.parametrize(
        "view",
        [lambda a: a[::2], lambda a: a[::-1], lambda a: a[3:-3:3], lambda a: a.reshape(10, 13).T, lambda a: a[7]],
        ids=["step2", "reversed", "offset-step3", "transposed", "0-d"],
    )
    def test_strided_and_0d_views(self, view):
        a = view(self.values(130, seed=7))
        assert ad._relu_values(a).tobytes() == relu_reference(a).tobytes()

    @pytest.mark.parametrize("value", RELU_SPECIALS)
    def test_0d_specials(self, value):
        a = np.array(value)
        assert ad._relu_values(a).tobytes() == relu_reference(a).tobytes()

    def test_input_left_untouched(self):
        x = self.values(129, seed=3)
        before = x.tobytes()
        ad._relu_values(x)
        assert x.tobytes() == before

    def test_keeps_no_mask_or_closure(self):
        a = np.random.default_rng(0).standard_normal(100_000)
        tracemalloc.start()
        try:
            out = ad._relu_values(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4096  # the result is the one array made


class TestEngine:
    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            ad.backward(ad.constant(np.zeros(3)))

    def test_grad_accumulates_across_backward_calls(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        for _ in range(2):
            ad.backward(tdot(p, np.array([2.0, 4.0])))
        assert (p.grad == [4.0, 8.0]).all()  # twice the weights

    def test_zero_grads(self):
        p = ad.parameter(np.array([1.0]))
        ad.backward(tsum(p))
        ad.zero_grads([p])
        assert p.grad is None

    def test_no_grad_results_keep_no_graph(self):
        x = ad.constant(np.ones((1, 4, 4, 4)))
        w, b = ad.constant(np.ones((2, 1, 3, 3, 3))), ad.constant(np.zeros(2))
        fusion = FusionProjection(weight=ad.constant(np.ones((1, 2))), bias=ad.constant(np.ones(1)))
        for out in (
            ad.conv3d_down(x, w, b),
            ad.conv_relu(x, w, b),
            upsample_fuse(AggregatedFeature(0.5, 0.25), x, fusion),
            squared_error(tsum(x), 1.0),
            tsum(x),
        ):
            assert not out.requires_grad
            assert out._parents == () and out._backward is None
        tracked = ad.conv3d_down(x, ad.parameter(w.data), b)
        assert tracked.requires_grad and len(tracked._parents) == 3 and tracked._backward is not None

    def test_constants_get_no_grad(self):
        c = ad.constant(np.array([[1.0, 2.0]]))
        p = ad.parameter(np.array([3.0, 4.0]))
        ad.backward(tsum(linear(c, p, ad.constant(np.zeros(1)))))
        assert c.grad is None
        assert p.grad is not None

    def test_shared_node_grad_sums(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        out = linear(ad.constant(np.eye(2)), p, p)  # p appears twice as parent
        ad.backward(tsum(out))
        assert (p.grad == [2.0, 2.0]).all()

    def test_seed_scales_gradient(self):
        p = ad.parameter(3.0)
        ad.backward(squared_error(p, 0.0), seed=0.5)
        assert p.grad == pytest.approx(3.0)

    def test_diamond_graph(self):
        p = ad.parameter(np.array([2.0]))
        zero = ad.constant(np.zeros(1))
        a = linear(ad.constant([[3.0]]), p, zero)
        b = linear(ad.constant([[2.0]]), p, zero)
        out = tsum(linear(ad.constant([[1.0]]), a, b))
        ad.backward(out)
        assert p.grad == pytest.approx(3.0 + 2.0)
