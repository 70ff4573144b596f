import math

import numpy as np
import pytest

from helpers import gradient_check, param_tensors, softplus_pair, tdot, zero_fusion
from pddiag import autodiff as ad
from pddiag.aggregator import AggregatedFeature, EncoderParams, FusionProjection, encode_dense, upsample_fuse
from pddiag.diagnoser import (
    BranchParams,
    Label,
    ShapeMismatch,
    age_loss,
    ce_loss_node,
    classify,
    decide,
    head,
    phi,
    predict_brain_age,
    total_loss,
)
from pddiag.priors import AgingPriorParams


@pytest.fixture
def fused():
    rng = np.random.default_rng(0)
    dense = encode_dense(rng.standard_normal((8, 8, 8)), EncoderParams.init(4, rng))
    return upsample_fuse(AggregatedFeature(0.5, 0.25), dense, FusionProjection.init(4, rng))


def zeroed_branch(channels, outputs, biases):
    rng = np.random.default_rng(99)
    params = BranchParams.init(channels, outputs, rng)
    params.conv_w.data[:] = 0.0
    params.conv_b.data[:] = 0.0
    params.head_w.data[:] = 0.0
    params.head_b.data[:] = np.asarray(biases, dtype=np.float64)
    return params


def logits(z_pd, z_ot):
    return np.array([z_pd, z_ot])


def head_on(fused, z, delta, prior, age=60.0):
    """head() with a classifier that emits exactly z and an age head that predicts age + delta."""
    return head(fused, age, zeroed_branch(4, 2, z), zeroed_branch(4, 1, [age + delta]), prior)


class TestBranches:
    def test_zero_weights_yield_biases(self, fused):
        params = zeroed_branch(4, 2, [1.25, -0.5])
        z = classify(fused, params)
        assert tuple(z.data) == (1.25, -0.5)

    def test_constant_age_head(self, fused):
        params = zeroed_branch(4, 1, [70.0])
        assert predict_brain_age(fused, params).item() == 70.0

    def test_deterministic_bitwise(self, fused):
        rng = np.random.default_rng(1)
        params = BranchParams.init(4, 2, rng)
        a = classify(fused, params)
        b = classify(fused, params)
        assert a.data.tobytes() == b.data.tobytes()

    def test_wrong_channel_count(self, fused):
        with pytest.raises(ShapeMismatch):
            classify(fused, BranchParams.init(6, 2, np.random.default_rng(2)))

    def test_wrong_output_count(self, fused):
        params = BranchParams.init(4, 1, np.random.default_rng(3))
        with pytest.raises(ShapeMismatch):
            classify(fused, params)
        with pytest.raises(ShapeMismatch):
            predict_brain_age(fused, BranchParams.init(4, 2, np.random.default_rng(3)))

    def test_classify_gradient_check(self, fused):
        rng = np.random.default_rng(4)
        params = BranchParams.init(4, 2, rng)
        coeff = rng.standard_normal(2)

        def loss():
            return tdot(classify(fused, params), coeff)

        assert gradient_check(loss, param_tensors(params), probe_count=60, seed=5) < 1e-4

    def test_age_gradient_check(self, fused):
        rng = np.random.default_rng(6)
        params = BranchParams.init(4, 1, rng)

        def loss():
            return predict_brain_age(fused, params)

        assert gradient_check(loss, param_tensors(params), probe_count=60, seed=7) < 1e-4

    def test_age_finite_for_bounded_inputs(self):
        rng = np.random.default_rng(8)
        params = BranchParams.init(4, 1, rng)
        enc = EncoderParams.init(4, rng)
        for _ in range(5):
            vol = rng.uniform(-10, 10, size=(8, 8, 8))
            fused = upsample_fuse(AggregatedFeature(0.0, 0.0), encode_dense(vol, enc), zero_fusion(4))
            assert math.isfinite(predict_brain_age(fused, params).item())


class TestAgeLoss:
    PRIOR = AgingPriorParams(zeta=9.5, tau=4.5, alpha=1.0)

    def hinge(self, delta, label):
        return age_loss(delta, label, self.PRIOR)

    def test_pd_hinge_boundary_zero(self):
        assert self.hinge(9.5, Label.PD) == 0.0

    def test_pd_below_margin(self):
        assert self.hinge(4.5, Label.PD) == 5.0

    def test_other_hinge_boundary_zero(self):
        assert self.hinge(4.5, Label.OTHER) == 0.0

    def test_zero_zones(self):
        for delta in [9.5, 12.0, 50.0, 1e6]:
            assert self.hinge(delta, Label.PD) == 0.0
        for delta in [-1e6, -3.0, 0.0, 4.5]:
            assert self.hinge(delta, Label.OTHER) == 0.0

    def test_linear_penalty_matches_formula(self):
        deltas = np.linspace(-30, 30, 20)
        for d in deltas:
            assert self.hinge(d, Label.PD) == pytest.approx(max(0.0, 9.5 - d), abs=1e-12)
            assert self.hinge(d, Label.OTHER) == pytest.approx(max(0.0, d - 4.5), abs=1e-12)

    def test_convex_piecewise_linear(self):
        # midpoint of any segment never exceeds the chord
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = sorted(rng.uniform(-40, 40, size=2))
            mid = self.hinge((a + b) / 2, Label.PD)
            chord = 0.5 * (self.hinge(a, Label.PD) + self.hinge(b, Label.PD))
            assert mid <= chord + 1e-12


class TestPhi:
    """The closed form delta - tau against the paper's softplus pair."""

    def closed_form(self, delta, tau):
        return phi(delta, tau)

    def test_zero_at_tau(self):
        assert self.closed_form(4.5, 4.5) == 0.0

    def test_softplus_identity(self):
        assert self.closed_form(5.5, 4.5) == pytest.approx(softplus_pair(1.0), abs=1e-12)
        assert self.closed_form(1.5, 4.5) == pytest.approx(softplus_pair(-3.0), abs=1e-12)

    def test_identity_over_grid(self):
        for tau in (0.0, 4.5, 10.0):
            deltas = np.arange(-50.0, 50.0 + 0.05, 0.1)
            for d in deltas:
                assert abs(self.closed_form(d, tau) - softplus_pair(d - tau)) < 1e-9

    def test_overflow_safe_far_from_tau(self):
        assert self.closed_form(1004.5, 4.5) == pytest.approx(softplus_pair(1000.0), abs=1e-9)
        assert self.closed_form(-995.5, 4.5) == pytest.approx(softplus_pair(-1000.0), abs=1e-9)


class TestCorrectLogits:
    """head()'s corrected logits: z + [alpha, -alpha] * (delta - tau)."""

    def test_alpha_zero_identity(self, fused):
        out = head_on(fused, [1.5, -2.0], 99.0, AgingPriorParams(alpha=0.0))
        assert tuple(out.corrected) == (1.5, -2.0)

    def test_delta_at_tau_identity(self, fused):
        out = head_on(fused, [0.0, 0.0], 4.5, AgingPriorParams())
        assert tuple(out.corrected) == (0.0, 0.0)

    def test_symmetric_shift(self, fused):
        out = head_on(fused, [1.0, 2.0], 6.5, AgingPriorParams(alpha=1.0))
        assert out.corrected[0] == pytest.approx(3.0, abs=1e-12)
        assert out.corrected[1] == pytest.approx(0.0, abs=1e-12)

    def test_shift_is_alpha_times_gap(self, fused):
        rng = np.random.default_rng(15)
        for _ in range(10):
            z = rng.normal(0, 3, size=2)
            prior = AgingPriorParams(zeta=20.0, tau=float(rng.uniform(0, 10)), alpha=float(rng.uniform(0, 2)))
            out = head_on(fused, z, float(rng.uniform(-20, 20)), prior)
            shift = prior.alpha * (out.delta - prior.tau)
            assert out.corrected[0] == pytest.approx(z[0] + shift, abs=1e-12)
            assert out.corrected[1] == pytest.approx(z[1] - shift, abs=1e-12)

    def test_monotone_calibration(self, fused):
        prior = AgingPriorParams(alpha=1.0)
        last = -1.0
        for delta in np.linspace(-20, 20, 81):
            _, p = decide(head_on(fused, [0.3, -0.2], float(delta), prior).corrected)
            assert p > last
            last = p


class TestClsLoss:
    """ce_loss_node on constant logits."""

    @staticmethod
    def ce(z_pd, z_ot, label):
        return ce_loss_node(ad.constant(logits(z_pd, z_ot)), label).item()

    def test_uniform_logits(self):
        assert self.ce(0.0, 0.0, Label.PD) == pytest.approx(math.log(2.0), abs=1e-15)
        assert self.ce(0.0, 0.0, Label.OTHER) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_saturated_correct_no_overflow(self):
        loss = self.ce(30.0, -30.0, Label.PD)
        assert 0.0 <= loss < 1e-20

    def test_closed_form_value(self):
        loss = self.ce(math.log(3.0), 0.0, Label.PD)
        assert loss == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)

    def test_nonnegative_and_shift_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b, c = rng.normal(0, 5, size=3)
            base = self.ce(a, b, Label.PD)
            assert base >= 0.0
            assert self.ce(a + c, b + c, Label.PD) == pytest.approx(base, abs=1e-9)


class TestDecide:
    def test_tie_goes_to_other(self):
        label, p = decide(logits(0.0, 0.0))
        assert p == 0.5
        assert label is Label.OTHER

    def test_sigmoid_value(self):
        _, p = decide(logits(1.0, 0.0))
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = rng.normal(0, 10, size=3)
            l1, p1 = decide(logits(a, b))
            l2, p2 = decide(logits(a + c, b + c))
            assert l1 is l2
            assert p1 == pytest.approx(p2, abs=1e-12)

    def test_extreme_logits_stable(self):
        label, p = decide(logits(1000.0, -1000.0))
        assert label is Label.PD and p == 1.0
        label, p = decide(logits(-1000.0, 1000.0))
        assert label is Label.OTHER and p == 0.0


class TestTotalLoss:
    PRIOR = AgingPriorParams()

    def test_components_sum(self, fused):
        rng = np.random.default_rng(12)
        b1 = BranchParams.init(4, 2, rng)
        b2 = BranchParams.init(4, 1, rng, head_bias=65.0)
        out = total_loss(fused, 63.0, Label.PD, b1, b2, self.PRIOR)
        assert out.node.item() == pytest.approx(out.age + out.cls, abs=1e-12)
        assert out.delta == pytest.approx(predict_brain_age(fused, b2).item() - 63.0, abs=1e-12)

    def test_zero_components_zero_total(self, fused):
        # age head pushed far above zeta and classifier saturated correct
        b1 = zeroed_branch(4, 2, [40.0, -40.0])
        b2 = zeroed_branch(4, 1, [200.0])
        out = total_loss(fused, 63.0, Label.PD, b1, b2, self.PRIOR)
        assert out.age == 0.0
        assert out.cls < 1e-20
        assert out.node.item() == pytest.approx(0.0, abs=1e-20)

    def test_end_to_end_gradient_check(self, fused):
        rng = np.random.default_rng(13)
        b1 = BranchParams.init(4, 2, rng)
        b2 = BranchParams.init(4, 1, rng, head_bias=65.0)
        tensors = param_tensors(b1, b2)

        def loss():
            return total_loss(fused, 58.0, Label.OTHER, b1, b2, self.PRIOR).node

        assert gradient_check(loss, tensors, probe_count=80, seed=14) < 1e-4

    def test_correction_feeds_classification(self, fused):
        # same logits, bigger delta -> smaller PD loss through the phi path
        b1 = zeroed_branch(4, 2, [0.0, 0.0])
        low = total_loss(fused, 63.0, Label.PD, b1, zeroed_branch(4, 1, [63.0]), self.PRIOR)
        high = total_loss(fused, 63.0, Label.PD, b1, zeroed_branch(4, 1, [80.0]), self.PRIOR)
        assert high.cls < low.cls


def composed_total_loss(z, pred, age, label, prior, g):
    """Value and (z, predicted-age) gradients of the node-by-node stage-3 graph at upstream gradient g.

    The graph was add(relu(hinge), cross_entropy(add(z, mul([alpha, -alpha], sub(delta, tau))))) over
    delta = sub(pred, age), with hinge sub(zeta, delta) for PD and sub(delta, tau) otherwise.
    """
    g = np.asarray(g)
    delta = np.asarray(pred) - np.asarray(age)
    alphas = np.array([prior.alpha, -prior.alpha])
    c = z + alphas * (delta - np.asarray(prior.tau))
    hinge = np.asarray(prior.zeta) - delta if label is Label.PD else delta - np.asarray(prior.tau)
    mask = hinge > 0.0
    index = 0 if label is Label.PD else 1
    m = np.max(c)
    lse = np.log(np.sum(np.exp(c - m))) + m
    value = np.asarray(np.where(mask, hinge, 0.0)) + (lse - c[index])
    gc = g * np.exp(c - lse)
    gc[index] -= g
    g_phi = np.sum(gc * alphas, axis=(0,)).reshape(())  # mul's gradient summed onto the scalar phi
    g_hinge = -(g * mask) if label is Label.PD else g * mask
    # delta's two gradients, in whichever order the engine met them: IEEE addition commutes
    return value, gc, g_phi + g_hinge


class TestTotalLossNode:
    """total_loss's one node against the graph it replaced, bit for bit."""

    PRIORS = [AgingPriorParams(zeta=9.5, tau=4.5, alpha=a) for a in (0.0, 1.0, 2.5)]
    # hinges active, inactive, and exactly at delta = zeta and delta = tau, for both labels
    DELTAS = [-30.0, 0.0, 4.5, 7.25, 9.5, 25.0, *np.random.default_rng(20).uniform(-20.0, 30.0, size=4)]
    LOGITS = [*np.random.default_rng(21).normal(0.0, 3.0, size=(4, 2)), [1000.0, -1000.0], [-1000.0, 1000.0]]

    @pytest.mark.parametrize("label", [Label.PD, Label.OTHER], ids=lambda l: l.value)
    @pytest.mark.parametrize("g", [1.0, 0.25, -0.5])
    def test_bitwise_equals_composition(self, fused, label, g):
        for prior in self.PRIORS:
            for z in self.LOGITS:
                for delta in self.DELTAS:
                    b1, b2 = zeroed_branch(4, 2, z), zeroed_branch(4, 1, [60.0 + delta])
                    loss = total_loss(fused, 60.0, label, b1, b2, prior)
                    z_t, pred_t = loss.node._parents
                    value, gz, gpred = composed_total_loss(z_t.data, pred_t.data, 60.0, label, prior, g)
                    assert loss.node.data.tobytes() == value.tobytes()
                    got_z, got_pred = loss.node._backward(np.asarray(g))
                    assert got_z.tobytes() == gz.tobytes()
                    assert np.asarray(got_pred).tobytes() == np.asarray(gpred).tobytes()

    def test_hinge_slopes(self, fused):
        # with alpha = 0 the predicted age's gradient is the hinge's slope alone
        prior = AgingPriorParams(zeta=9.5, tau=4.5, alpha=0.0)
        b1 = zeroed_branch(4, 2, [0.0, 0.0])
        cases = [(Label.PD, 9.5, 0.0), (Label.PD, 5.0, -1.0), (Label.OTHER, 4.5, 0.0), (Label.OTHER, 5.0, 1.0)]
        for label, delta, slope in cases:
            loss = total_loss(fused, 60.0, label, b1, zeroed_branch(4, 1, [60.0 + delta]), prior)
            assert loss.node._backward(np.asarray(0.5))[1] == 0.5 * slope

    def test_is_one_node_over_z_and_predicted_age(self, fused):
        rng = np.random.default_rng(22)
        b1, b2 = BranchParams.init(4, 2, rng), BranchParams.init(4, 1, rng, head_bias=65.0)
        loss = total_loss(fused, 63.0, Label.OTHER, b1, b2, AgingPriorParams())
        out = head(fused, 63.0, b1, b2, AgingPriorParams())
        z, pred = loss.node._parents
        assert z.data.tobytes() == out.z.data.tobytes() and pred.data.tobytes() == out.predicted_age.data.tobytes()
        assert loss.corrected.tobytes() == out.corrected.tobytes() and loss.delta == out.delta
        assert isinstance(loss.delta, float)
