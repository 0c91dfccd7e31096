import copy
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes
from hypothesis.extra.numpy import arrays as np_arrays

import capmac
from capmac import cli, dataset, device, netlab, weights
from capmac.arrays import build_conv_array, build_fc_array, conv_forward, fc_forward
from capmac.device import (MAX_CAPACITANCE_PF, MAX_CAPACITANCE_RATIO, MAX_NOISE_FRAC,
                           MIN_C_IL_PF, SensorParams, series_capacitance)
from capmac.netlab import (MODELS, Checkpoint, TrainConfig,
                           array_inputs, autoencoder_batch_loss,
                           autoencoder_forward, cnn_batch_loss, cnn_logits,
                           cross_entropy, default_config, encoder_caps,
                           fc_batch_loss, fc_output_volts, gather_windows,
                           history_columns, load_checkpoint, save_checkpoint,
                           sigmoid, softmax, train, write_history_csv)

PARAMS = SensorParams()
FC_SPEC, AE_SPEC, CNN_SPEC = (MODELS[arch].spec for arch in
                              ("fc_classifier", "autoencoder", "cnn_classifier"))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25))

    def test_argmax_preserved(self):
        p = softmax(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.argmax(p) == 0

    @given(np_arrays(float, 4, elements=st.floats(min_value=-30, max_value=30)))
    def test_matches_naive_oracle(self, u):
        p = softmax(u)
        naive = np.exp(u) / np.sum(np.exp(u))
        np.testing.assert_allclose(p, naive, rtol=1e-12)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0) and np.all(p < 1.0 + 1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.nan, 0.0]))


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    @given(st.floats(min_value=-500, max_value=500))
    def test_symmetry(self, z):
        assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-12)

    def test_saturates_without_overflow(self):
        assert sigmoid(1e4) == 1.0
        assert sigmoid(-1e4) == 0.0

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for z in np.linspace(-4, 4, 17):
            analytic = sigmoid(z) * (1 - sigmoid(z))
            fd = (sigmoid(z + h) - sigmoid(z - h)) / (2 * h)
            assert fd == pytest.approx(analytic, rel=1e-6)


def _masked_sigmoid(z):
    """The masked-scatter logistic the mask-free sigmoid must equal."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _two_division_sigmoid(z):
    """The two-division logistic the one-division sigmoid must equal,
    returning a float for a 0-d input."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(np.asarray(a, float).view(np.uint64),
                                  np.asarray(b, float).view(np.uint64))


class TestFastPathEquivalence:
    """The epoch's scoring paths equal the forms they replaced, bit for bit."""

    @given(np_arrays(float, st.integers(1, 40), elements=st.floats(allow_nan=False)))
    def test_sigmoid_equals_masked_form(self, z):
        _assert_bitwise_equal(sigmoid(z), _masked_sigmoid(z))

    @given(st.one_of(st.floats(), np_arrays(float, array_shapes(min_dims=0, max_dims=3),
                                            elements=st.floats())))
    def test_sigmoid_equals_two_division_form(self, z):
        got, want = sigmoid(z), _two_division_sigmoid(z)
        assert type(got) is type(want)
        _assert_bitwise_equal(np.asarray(got), np.asarray(want))

    def test_sigmoid_at_zeros_subnormals_and_extremes(self):
        tiny = np.finfo(float).smallest_subnormal
        z = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e300, -1e300,
                      np.inf, -np.inf, 709.0, -709.0, 746.0, -746.0])
        _assert_bitwise_equal(sigmoid(z), _masked_sigmoid(z))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 2000), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_mean_by_glyph_equals_masked_means(self, per_glyph, outputs, seed):
        idx = np.repeat(np.arange(dataset.NUM_GLYPHS), per_glyph)
        values = np.random.default_rng(seed).normal(0.0, 10.0, (len(idx), outputs))
        masked = np.stack([values[idx == g].mean(axis=0)
                           for g in range(dataset.NUM_GLYPHS)])
        _assert_bitwise_equal(netlab._mean_by_glyph(values), masked)
        _assert_bitwise_equal(netlab._mean_by_glyph(values),
                              np.mean(values.reshape(4, per_glyph, outputs), axis=1))

    @given(np_arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                     elements=st.floats(-1e3, 1e3)), st.booleans())
    def test_programmed_weights_equal_weight_bank_form(self, v, binarize):
        bank = weights.WeightBank(v)
        # Binarized: the signs, with sign(0) = +1, and beta 1.
        want = (weights.WeightBank(np.where(v >= 0, 1.0, -1.0)) if binarize
                else weights.normalize_weights(bank))
        prog, beta = netlab.programmed_weights(v, binarize)
        _assert_bitwise_equal(prog, want.v)
        assert beta == want.beta

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 9), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_programmed_weights_of_a_stack_equal_each_slice(self, k, m, n, binarize, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-3.0, 3.0, (k, m, n)) * (rng.random((k, 1, 1)) < 0.8)  # some zero
        prog, beta = netlab.programmed_weights(v, binarize)
        assert prog.shape == v.shape
        for i in range(k):
            want_prog, want_beta = netlab.programmed_weights(v[i], binarize)
            assert type(want_beta) is float
            _assert_bitwise_equal(prog[i], want_prog)
            assert np.broadcast_to(beta, (k, 1, 1))[i, 0, 0] == want_beta

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(st.just(()), st.tuples(st.integers(1, 300))), st.integers(1, 9),
           st.integers(0, 2 ** 32 - 1))
    def test_cross_entropy_equals_np_mean_form(self, batch, classes, seed):
        rng = np.random.default_rng(seed)
        p = softmax(rng.normal(0.0, 30.0, (*batch, classes)))
        y = np.eye(classes)[rng.integers(0, classes, batch)]
        per_sample = (-(y * np.log(np.maximum(p, netlab.LOG_FLOOR)))).sum(axis=-1)
        got = cross_entropy(p, y)
        assert type(got) is float
        _assert_bitwise_equal(np.array(got), np.array(float(np.mean(per_sample))))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
    def test_autoencoder_loss_equals_np_mean_form(self, size, seed):
        rng = np.random.default_rng(seed)
        m = {name: rng.uniform(-1.0, 1.0, shape)
             for name, shape in MODELS["autoencoder"].matrices.items()}
        c_i, labels = _random_instance(rng, size=size)
        x = array_inputs(AE_SPEC, c_i, PARAMS)
        loss, _ = autoencoder_batch_loss(m, x, c_i, labels, PARAMS, False)
        ci_rec = autoencoder_forward(m, x, PARAMS)[3]
        assert loss == float(np.mean((ci_rec - c_i.reshape(size, -1)) ** 2))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(netlab.ARCHITECTURES), st.integers(1, 300),
           st.integers(0, 2 ** 32 - 1))
    def test_accuracy_equals_np_mean_form(self, arch, per_glyph, seed):
        model = MODELS[arch]
        m = {name: np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
             for name, shape in model.matrices.items()}
        eval_idx, x = netlab.eval_letters(arch, PARAMS, np.random.default_rng(seed), per_glyph)
        accuracy, _, _ = netlab.evaluate(arch, {name: a[None] for name, a in m.items()},
                                         eval_idx, x, PARAMS, False)
        idx = np.repeat(np.arange(dataset.NUM_GLYPHS), per_glyph)
        c_i = dataset.noisy_letters(idx, PARAMS, np.random.default_rng(seed),
                                    model.spec.rows)
        pred, _, _ = model.score(m, array_inputs(model.spec, c_i, PARAMS), PARAMS, False)
        assert accuracy.shape == (1,)
        assert accuracy[0] == float(np.mean(pred == idx))

    @pytest.mark.parametrize("arch", sorted(MODELS))
    def test_history_holds_python_floats(self, arch):
        # A numpy scalar would be written as np.float64(...) in history.csv.
        hist = train(arch, default_config(arch, epochs=2, seed=0))
        assert all(type(a) is float for a in hist.accuracy + hist.loss)

    @pytest.mark.parametrize("arch,binarize", [("fc_classifier", False),
                                               ("fc_classifier", True),
                                               ("autoencoder", False),
                                               ("cnn_classifier", False)])
    def test_score_equals_public_forward(self, arch, binarize):
        model = netlab.MODELS[arch]
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = {name: rng.uniform(-1.0, 1.0, shape) for name, shape in model.matrices.items()}
            c_i, _ = _random_instance(rng, model.spec.rows, size=40)
            pred, shown, checked = model.score(
                m, netlab.array_inputs(model.spec, c_i, PARAMS), PARAMS, binarize)
            flat = c_i.reshape(len(c_i), -1)
            if arch == "fc_classifier":
                out = fc_output_volts(m["weights"], flat, PARAMS, binarize=binarize)
                expect = out.argmax(axis=1), out, (out,)
            elif arch == "autoencoder":
                cs = series_capacitance(flat, PARAMS.c0)
                phi, _, c_rec, _ = autoencoder_forward(m, cs, PARAMS)
                expect = netlab.classify_series_bits(c_rec, PARAMS)[0], phi, (phi, c_rec)
            else:
                win = gather_windows(series_capacitance(c_i, PARAMS.c0))
                out, _ = cnn_logits(m, win, PARAMS)
                expect = out.argmax(axis=1), out, (out,)
            np.testing.assert_array_equal(pred, expect[0])
            _assert_bitwise_equal(shown, expect[1])
            assert len(checked) == len(expect[2])
            for got, want in zip(checked, expect[2]):
                _assert_bitwise_equal(got, want)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy([0.0, 1.0, 0.0, 0.0], [0, 1, 0, 0]) == 0.0

    def test_uniform_is_ln4(self):
        assert cross_entropy([0.25] * 4, [0, 0, 1, 0]) == pytest.approx(np.log(4), rel=1e-12)

    @given(np_arrays(float, 4, elements=st.floats(min_value=0.01, max_value=1.0)))
    def test_matches_naive_oracle(self, raw):
        p = raw / raw.sum()
        y = np.eye(4)[2]
        naive = -float(np.sum(y * np.log(p)))
        assert cross_entropy(p, y) == pytest.approx(naive, rel=1e-12)

    def test_clamped_at_floor(self):
        assert np.isfinite(cross_entropy([1.0, 0.0, 0.0, 0.0], [0, 1, 0, 0]))

    @given(np_arrays(float, (5, 4), elements=st.floats(min_value=0.01, max_value=1.0)),
           np_arrays(int, 5, elements=st.integers(0, 3)))
    def test_batch_is_mean_of_rows(self, raw, glyphs):
        p = raw / raw.sum(axis=1, keepdims=True)
        y = np.eye(4)[glyphs]
        rows = [cross_entropy(pi, yi) for pi, yi in zip(p, y)]
        assert cross_entropy(p, y) == pytest.approx(np.mean(rows), rel=1e-12)


def _fd_gradient(loss_fn, theta, h=1e-5):
    theta = theta.copy()
    grad = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = theta[i]
        theta[i] = orig + h
        hi = loss_fn(theta)
        theta[i] = orig - h
        lo = loss_fn(theta)
        theta[i] = orig
        grad[i] = (hi - lo) / (2 * h)
        it.iternext()
    return grad


def _rel_norm_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


def _random_instance(rng, resolution=3, size=6):
    idx = rng.integers(0, dataset.NUM_GLYPHS, size)
    c_i = dataset.noisy_letters(idx, PARAMS, rng, resolution)
    return c_i, np.eye(dataset.NUM_GLYPHS)[idx]


class TestGradients:
    def test_fc_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            c_i, labels = _random_instance(rng)
            x = array_inputs(FC_SPEC, c_i, PARAMS)
            v0 = rng.uniform(-1.5, 1.5, (4, 9))

            def loss(v):
                return fc_batch_loss({"weights": v}, x, c_i, labels, PARAMS, False)

            _, (grad,) = loss(v0)
            fd = _fd_gradient(lambda v: loss(v)[0], v0)
            assert _rel_norm_err(grad / len(c_i), fd) < 1e-5

    def test_autoencoder_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            c_i, labels = _random_instance(rng)
            x = array_inputs(AE_SPEC, c_i, PARAMS)
            v0 = rng.uniform(-1, 1, (4, 9))
            w0 = rng.uniform(-1, 1, (9, 4))

            def loss(v, w):
                return autoencoder_batch_loss({"encoder": v, "decoder": w}, x, c_i,
                                              labels, PARAMS, False)

            _, (g_enc, g_dec) = loss(v0, w0)
            fd_enc = _fd_gradient(lambda v: loss(v, w0)[0], v0)
            fd_dec = _fd_gradient(lambda w: loss(v0, w)[0], w0)
            assert _rel_norm_err(g_enc / len(c_i), fd_enc) < 1e-5
            assert _rel_norm_err(g_dec / len(c_i), fd_dec) < 1e-5

    def test_cnn_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            c_i, labels = _random_instance(rng, resolution=5)
            x = array_inputs(CNN_SPEC, c_i, PARAMS)
            k0 = rng.uniform(-1, 1, 9)
            f0 = rng.uniform(-1, 1, (4, 9))

            def loss(k, f):
                return cnn_batch_loss({"kernel": k, "head": f}, x, c_i, labels,
                                      PARAMS, False)

            _, (g_k, g_f) = loss(k0, f0)
            fd_k = _fd_gradient(lambda k: loss(k, f0)[0], k0)
            fd_f = _fd_gradient(lambda f: loss(k0, f)[0], f0)
            assert _rel_norm_err(g_k / len(c_i), fd_k) < 1e-5
            assert _rel_norm_err(g_f / len(c_i), fd_f) < 1e-5


class TestAnalogDigitalSplit:
    def test_split_path_equals_direct_normalized_dot(self):
        # (A - B)/C through the array equals sum(C_nl * V) computed directly
        rng = np.random.default_rng(3)
        c_h, c_l, span = encoder_caps(PARAMS)
        for _ in range(50):
            v = rng.uniform(-3, 3, (4, 9))
            c_i, _ = _random_instance(rng)
            cs = series_capacitance(c_i.reshape(len(c_i), -1), PARAMS.c0)
            phi, *_ = autoencoder_forward({"encoder": v, "decoder": np.zeros((9, 4))},
                                          cs, PARAMS)
            direct = ((cs - c_l) / span) @ v.T
            np.testing.assert_allclose(phi, sigmoid(direct), rtol=1e-9, atol=1e-12)

    def test_fc_batch_forward_equals_fc_forward(self):
        rng = np.random.default_rng(4)
        topo = build_fc_array(3, 3, 4)
        for _ in range(10):
            v = rng.uniform(-1, 1, (4, 9))
            img = rng.uniform(10, 500, (3, 3))
            volts = fc_output_volts(v, img.reshape(1, -1), PARAMS)[0]
            prog = v / np.max(np.abs(v))
            expect = fc_forward(topo, img, prog, PARAMS)
            np.testing.assert_array_equal(volts, expect)

    def test_cnn_features_equal_conv_forward_route(self):
        rng = np.random.default_rng(5)
        from capmac.arrays import schedule_conv
        topo = build_conv_array(5, 5, 3)
        sched = schedule_conv(5, 5, 3)
        c_h, c_l, span = encoder_caps(PARAMS)
        for _ in range(10):
            k = rng.uniform(-2, 2, 9)
            img = rng.uniform(10, 500, (5, 5))
            logits, h = cnn_logits({"kernel": k, "head": np.eye(4, 9)},
                                   array_inputs(CNN_SPEC, img[None], PARAMS), PARAMS)
            beta = np.max(np.abs(k))
            conv = conv_forward(topo, sched, img, k / beta, PARAMS)
            a = conv.reshape(-1) * (9 * PARAMS.c0) * beta
            u = (a - c_l * k.sum()) / span
            np.testing.assert_allclose(h[0], sigmoid(u), rtol=1e-9, atol=1e-12)


class TestInversionIdentities:
    def test_normalize_denormalize_round_trip(self):
        rng = np.random.default_rng(6)
        c_h, c_l, span = encoder_caps(PARAMS)
        c = rng.uniform(c_l, c_h, 1000)
        cnl = (c - c_l) / span
        back = cnl * span + c_l
        np.testing.assert_allclose(back, c, rtol=1e-9)

    def test_series_reconstruct_round_trip(self):
        rng = np.random.default_rng(7)
        c_i = rng.uniform(1.0, 1000.0, 1000)
        s = series_capacitance(c_i, PARAMS.c0)
        back = s * PARAMS.c0 / (PARAMS.c0 - s)
        np.testing.assert_allclose(back, c_i, rtol=1e-9)

    def test_series_bits_threshold_includes_midpoint(self):
        c_h, c_l, _ = encoder_caps(PARAMS)
        mid = (c_h + c_l) / 2
        grids = dataset.GRIDS[3].reshape(dataset.NUM_GLYPHS, -1)
        c_rec = np.where(grids == 1, mid, np.nextafter(mid, 0.0))
        pred, bits = netlab.classify_series_bits(c_rec, PARAMS)
        assert bits.tolist() == grids.tolist()
        assert pred.tolist() == list(range(dataset.NUM_GLYPHS))

    def test_reconstruction_stays_below_c0(self):
        rng = np.random.default_rng(8)
        c_i, _ = _random_instance(rng, size=40)
        v = rng.uniform(-1, 1, (4, 9))
        w = rng.uniform(-1, 1, (9, 4))
        _, _, c_rec, ci_rec = autoencoder_forward(
            {"encoder": v, "decoder": w}, array_inputs(AE_SPEC, c_i, PARAMS), PARAMS)
        assert np.all(c_rec < PARAMS.c0)
        assert np.all(np.isfinite(ci_rec))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(math.log(MAX_CAPACITANCE_PF / MAX_CAPACITANCE_RATIO),
                     math.log(MAX_CAPACITANCE_PF)),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(math.log(MAX_CAPACITANCE_PF / MAX_CAPACITANCE_RATIO), 0.0, 1.0)
    @example(math.log(MAX_CAPACITANCE_PF), 0.0, 1.0)
    def test_saturated_reconstruction_below_c0_at_parameter_bounds(self, log_c0, low, high):
        # c_rec = sigmoid * (C_H - C_L) + C_L is C_H at most, to rounding, and
        # C_H = c0 r/(r + 1) with r = c_ih/c0 <= 1e9. So a decoder that drives the
        # sigmoid to exactly 0 and 1 leaves c_rec some 1e-9 c0 below c0, at the
        # bounds too: autoencoder_batch_loss needs no check of its own.
        c0 = math.exp(log_c0)
        most = min(MAX_CAPACITANCE_PF, MAX_CAPACITANCE_RATIO * c0)
        c_il = MIN_C_IL_PF * (most / MIN_C_IL_PF) ** (low / 2)
        c_ih = most if high == 1.0 else c_il * (most / c_il) ** high
        assume(c_ih > c_il)
        params = SensorParams(c0=c0, c_ih=c_ih, c_il=c_il)
        x = array_inputs(AE_SPEC, np.full((2, 3, 3), c_ih), params)
        decoder = np.where(np.arange(9) % 2, 1e4, -1e4)[:, None] * np.ones((9, 4))
        _, cnl_rec, c_rec, ci_rec = autoencoder_forward(
            {"encoder": np.zeros((4, 9)), "decoder": decoder}, x, params)
        assert {0.0, 1.0} == set(cnl_rec.ravel().tolist())
        assert np.all(c_rec < c0)
        assert np.all(np.isfinite(ci_rec))


def _nan_from(model, fault, epoch):
    """`model` with NaN gradients from the step of `epoch` on (fault "loss"),
    or NaN checked outputs from the evaluation of `epoch` on (fault "score").
    train scores the epochs of a chunk in one stacked call, so a score fault
    counts epochs by the leading axis of the outputs, not by calls."""
    seen = {"n": 0}

    def faulty(*args):
        out = getattr(model, fault)(*args)
        first = seen["n"] + 1  # the epoch of the first step or slice here
        seen["n"] += 1 if fault == "loss" else len(out[0])
        if fault == "loss":
            return out if first < epoch else (out[0], tuple(np.full_like(g, np.nan)
                                                            for g in out[1]))
        checked = tuple(c.copy() for c in out[2])
        for c in checked:
            c[max(epoch - first, 0):] = np.nan
        return *out[:2], checked

    return dataclasses.replace(model, **{fault: faulty})


def _assert_same_checkpoint(got, want):
    fields = ("architecture", "seed", "epoch", "beta", "binarize", "params")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert list(got.matrices) == list(want.matrices)
    for name, mat in want.matrices.items():
        _assert_bitwise_equal(got.matrices[name], mat)


def _per_epoch_train(arch, config, params):
    """The epoch-by-epoch loop that train's chunks replace: (history, the last
    good matrices, the epoch it diverged at or None). Each epoch draws its
    batch, steps, then draws and scores its evaluation."""
    model = MODELS[arch]
    rng = np.random.default_rng(config.seed)
    erng = np.random.default_rng(config.seed + netlab.EVAL_SEED_OFFSET)
    mats = {name: rng.uniform(-1.0, 1.0, shape) for name, shape in model.matrices.items()}
    lr = config.learning_rate / config.batch_size
    eval_idx = np.repeat(np.arange(dataset.NUM_GLYPHS), config.eval_per_glyph)
    history = netlab.TrainHistory()
    for epoch in range(1, config.epochs + 1):
        idx = rng.integers(0, dataset.NUM_GLYPHS, config.batch_size)
        c_i = dataset.noisy_letters(idx, params, rng, model.spec.rows)
        loss, grads = model.loss(mats, array_inputs(model.spec, c_i, params), c_i,
                                 dataset.LABELS[idx], params, config.binarize)
        stepped = {name: m - lr * g for (name, m), g in zip(mats.items(), grads)}
        if not all(np.isfinite(a).all() for a in (loss, *grads, *stepped.values())):
            return history, mats, epoch
        e_ci = dataset.noisy_letters(eval_idx, params, erng, model.spec.rows)
        pred, outputs, checked = model.score(stepped, array_inputs(model.spec, e_ci, params),
                                             params, config.binarize)
        if not all(np.isfinite(c).all() for c in checked):
            return history, mats, epoch
        history.loss.append(loss)
        history.accuracy.append(float(np.count_nonzero(pred == eval_idx) / len(eval_idx)))
        history.mean_outputs.append(
            np.mean(outputs.reshape(dataset.NUM_GLYPHS, -1, outputs.shape[-1]), axis=1))
        mats = stepped
    return history, mats, None


def _chunk_sizes(monkeypatch, arch, config, params=PARAMS):
    """The number of epochs in each of train's chunks, read off its calls to
    eval_letters."""
    counts, draw = [], netlab.eval_letters

    def spy(*args):
        counts.append(args[-1])
        return draw(*args)

    with monkeypatch.context() as patch:
        patch.setattr(netlab, "eval_letters", spy)
        train(arch, config, params)
    return counts


class TestChunkedTraining:
    """train draws and scores its epochs in chunks, and equals the loop that
    does both epoch by epoch, bit for bit."""

    @pytest.mark.parametrize("arch,per_glyph,want", [
        ("fc_classifier", 25, 36), ("autoencoder", 25, 36), ("cnn_classifier", 25, 4),
        ("fc_classifier", 455, 2), ("fc_classifier", 456, 1), ("autoencoder", 25_000, 1)])
    def test_chunk_size_is_the_float_budget(self, monkeypatch, arch, per_glyph, want):
        # 2**15 floats of array_inputs: 9 per FC letter, 81 per CNN letter.
        cfg = default_config(arch, epochs=2 * want + 1, eval_per_glyph=per_glyph)
        assert _chunk_sizes(monkeypatch, arch, cfg) == [want, want, 1]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([("fc_classifier", False), ("fc_classifier", True),
                            ("autoencoder", False), ("cnn_classifier", False)]),
           st.sampled_from(["per_class", "global"]), st.sampled_from([0.0, 0.2]),
           st.integers(1, 40), st.integers(1, 600), st.integers(1, 600),
           st.integers(0, 2 ** 32 - 1))
    @example(("fc_classifier", False), "per_class", 0.2, 40, 20, 25, 0)      # K 36
    @example(("autoencoder", False), "global", 0.2, 37, 20, 25, 1)           # K 36
    @example(("cnn_classifier", False), "per_class", 0.2, 10, 20, 25, 2)     # K 4
    @example(("fc_classifier", True), "global", 0.0, 7, 500, 456, 3)         # K 1
    @example(("cnn_classifier", False), "global", 0.0, 7, 1, 12, 4)          # K 33
    def test_chunked_train_equals_per_epoch_loop(self, arch_binarize, mode, noise_frac,
                                                 epochs, batch_size, per_glyph, seed):
        arch, binarize = arch_binarize
        params = SensorParams(noise_frac=noise_frac, noise_mode=mode)
        cfg = default_config(arch, epochs=epochs, batch_size=batch_size,
                             eval_per_glyph=per_glyph, seed=seed, binarize=binarize)
        want, mats, diverged_at = _per_epoch_train(arch, cfg, params)
        assert diverged_at is None
        got = train(arch, cfg, params)
        assert got.diverged_at == diverged_at
        assert got.loss == want.loss
        assert got.accuracy == want.accuracy
        assert len(got.mean_outputs) == len(want.mean_outputs) == epochs
        for g, w in zip(got.mean_outputs, want.mean_outputs):
            _assert_bitwise_equal(g, w)
        assert got.checkpoint.epoch == epochs
        for name, mat in mats.items():
            _assert_bitwise_equal(got.checkpoint.matrices[name], mat)

    @pytest.mark.parametrize("fault", ["loss", "score"])
    @pytest.mark.parametrize("arch,per_glyph", [("fc_classifier", 210), ("autoencoder", 210),
                                                ("cnn_classifier", 25)])
    def test_divergence_at_chunk_start_middle_and_end(self, monkeypatch, arch, per_glyph,
                                                      fault):
        # Chunks of 4 epochs; NaN from epoch d on, at the first, a middle and
        # the last epoch of the second chunk: the run diverges at d with the
        # history and checkpoint of a (d - 1)-epoch run, bit for bit.
        cfg = default_config(arch, epochs=12, eval_per_glyph=per_glyph, seed=1)
        assert _chunk_sizes(monkeypatch, arch, cfg) == [4, 4, 4]
        model = MODELS[arch]
        for d in (5, 6, 8):
            want = train(arch, dataclasses.replace(cfg, epochs=d - 1))
            with monkeypatch.context() as patch:
                patch.setitem(MODELS, arch, _nan_from(model, fault, d))
                got = train(arch, cfg)
            assert got.diverged_at == d
            assert (got.loss, got.accuracy) == (want.loss, want.accuracy)
            _assert_same_checkpoint(got.checkpoint, want.checkpoint)

    @pytest.mark.parametrize("arch", sorted(MODELS))
    def test_step_error_propagates_once_earlier_epochs_are_scored(self, monkeypatch, arch):
        # Epoch 3's step raises inside its chunk: with epochs 1-2 scored
        # finite the error propagates; with epoch 2's outputs NaN the run
        # diverges at 2, as the epoch-by-epoch loop did before stepping on.
        model = MODELS[arch]

        def raising(*args):
            if raising.calls == 2:
                raise RuntimeError("step 3")
            raising.calls += 1
            return model.loss(*args)

        cfg = default_config(arch, epochs=5, seed=0)
        raising.calls = 0
        with monkeypatch.context() as patch:
            patch.setitem(MODELS, arch, dataclasses.replace(model, loss=raising))
            with pytest.raises(RuntimeError, match="^step 3$"):
                train(arch, cfg)
        raising.calls = 0
        monkeypatch.setitem(MODELS, arch,
                            dataclasses.replace(_nan_from(model, "score", 2), loss=raising))
        got = train(arch, cfg)
        assert got.diverged_at == 2
        assert got.checkpoint.epoch == 1


class TestTrainers:
    def test_fc_trains_clean_task_quickly(self):
        """Every seed learns the clean task well inside the paper's budget.

        How fast one run converges depends on its seed: the initial weights
        and the batches are both drawn from it. Over seeds 0-99 on clean data
        only 34 reach accuracy 1.0 at epoch 10, the median first reaches it at
        epoch 11 and the slowest at epoch 27 (seed 0 at epoch 18, loss 1.16 at
        epoch 10). So the property is checked over the first ten seeds, all
        of them, with a 30-epoch bound, against the 350 paper epochs.
        """
        for seed in range(10):
            cfg = default_config("fc_classifier", epochs=30, seed=seed)
            hist = train("fc_classifier", cfg, SensorParams(noise_frac=0.0))
            assert 1.0 in hist.accuracy, f"seed {seed} never reached 1.0"
            assert hist.loss[-1] < np.log(4), f"seed {seed} loss {hist.loss[-1]}"
            assert hist.epochs_run == 30

    def test_fc_training_deterministic(self):
        cfg = default_config("fc_classifier", epochs=12, seed=9)
        a = train("fc_classifier", cfg)
        b = train("fc_classifier", cfg)
        assert a.loss == b.loss
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.checkpoint.matrices["weights"],
                                      b.checkpoint.matrices["weights"])

    def test_autoencoder_training_deterministic(self):
        cfg = default_config("autoencoder", epochs=6, seed=9)
        a = train("autoencoder", cfg)
        b = train("autoencoder", cfg)
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.checkpoint.matrices["encoder"],
                                      b.checkpoint.matrices["encoder"])

    def test_cnn_training_deterministic(self):
        cfg = default_config("cnn_classifier", epochs=6, seed=9)
        a = train("cnn_classifier", cfg)
        b = train("cnn_classifier", cfg)
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.checkpoint.matrices["kernel"],
                                      b.checkpoint.matrices["kernel"])

    def test_autoencoder_loss_drops_sharply(self):
        cfg = default_config("autoencoder", seed=0)
        hist = train("autoencoder", cfg)
        assert hist.loss[14] < 0.5 * hist.loss[0]   # sharp early decrease
        assert hist.loss[-1] < 0.2 * hist.loss[0]

    def test_autoencoder_reconstructs_clean_letters(self):
        cfg = default_config("autoencoder", seed=0)
        hist = train("autoencoder", cfg)
        ck = hist.checkpoint
        clean = dataset.encode_capacitive(dataset.GRIDS[3], PARAMS)
        _, _, c_rec, _ = autoencoder_forward(ck.matrices,
                                             array_inputs(AE_SPEC, clean, PARAMS), PARAMS)
        pred, _ = netlab.classify_series_bits(c_rec, PARAMS)
        np.testing.assert_array_equal(pred, [0, 1, 2, 3])

    def test_binarized_forward_uses_signs(self):
        cfg = default_config("fc_classifier", epochs=3, seed=1, binarize=True)
        hist = train("fc_classifier", cfg)
        v = hist.checkpoint.matrices["weights"]
        volts = fc_output_volts(v, np.full((1, 9), 100.0), PARAMS, binarize=True)
        # bounded by max series cap over c0 with +-1 weights
        assert np.all(np.abs(volts) <= series_capacitance(100.0, PARAMS.c0) / PARAMS.c0 + 1e-12)

    def test_history_shapes(self):
        cfg = default_config("cnn_classifier", epochs=4, seed=0)
        hist = train("cnn_classifier", cfg)
        assert hist.epochs_run == 4
        assert len(hist.accuracy) == 4
        assert all(m.shape == (4, 4) for m in hist.mean_outputs)

    def test_divergence_raises_with_last_good_state(self, monkeypatch):
        calls = {"n": 0}
        model = netlab.MODELS["fc_classifier"]

        def exploding(m, *args):
            calls["n"] += 1
            if calls["n"] >= 3:
                return float("nan"), (np.zeros_like(m["weights"]),)
            return model.loss(m, *args)

        monkeypatch.setitem(netlab.MODELS, "fc_classifier",
                            dataclasses.replace(model, loss=exploding))
        cfg = default_config("fc_classifier", epochs=10, seed=0)
        got = train("fc_classifier", cfg)
        assert got.diverged_at == 3
        assert got.epochs_run == 2
        assert got.checkpoint.epoch == 2

    @pytest.mark.parametrize("arch", sorted(MODELS))
    @pytest.mark.parametrize("fault", ["loss", "score"])
    def test_divergence_keeps_the_last_good_matrices(self, monkeypatch, arch, fault):
        # NaN gradients at step 3, or NaN eval outputs at epoch 3: the
        # checkpoint is a 2-epoch run's at the same seed, bit for bit, not the
        # diverged or the stepped matrices.
        cfg = default_config(arch, epochs=10, seed=0)
        want = train(arch, dataclasses.replace(cfg, epochs=2)).checkpoint
        monkeypatch.setitem(MODELS, arch, _nan_from(MODELS[arch], fault, 3))
        got = train(arch, cfg)
        assert got.diverged_at == 3
        _assert_same_checkpoint(got.checkpoint, want)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")  # 0 * inf
    @pytest.mark.parametrize("bad,learning_rate", [(math.nan, 10.0), (math.inf, 10.0),
                                                   (-math.inf, 10.0), (math.inf, 5e-324)])
    def test_binarized_run_diverges_at_a_non_finite_gradient(self, monkeypatch, bad,
                                                             learning_rate):
        # Sign weights hide a non-finite latent matrix from the eval outputs,
        # so the step's test of m - lr * g alone finds it, also where lr
        # underflows to 0 (0 * inf is NaN).
        cfg = default_config("fc_classifier", epochs=10, seed=0, binarize=True,
                             learning_rate=learning_rate)
        want = train("fc_classifier", dataclasses.replace(cfg, epochs=2)).checkpoint
        model, steps = MODELS["fc_classifier"], []

        def loss(*args):
            value, grads = model.loss(*args)
            steps.append(value)
            return value, tuple(np.full_like(g, bad) if len(steps) >= 3 else g for g in grads)

        monkeypatch.setitem(MODELS, "fc_classifier", dataclasses.replace(model, loss=loss))
        got = train("fc_classifier", cfg)
        assert got.diverged_at == 3
        _assert_same_checkpoint(got.checkpoint, want)

    @pytest.mark.parametrize("diverge", [False, True])
    def test_one_checkpoint_per_run(self, monkeypatch, diverge):
        # A run builds its checkpoint once, at its end; a run that diverges
        # at epoch 1 has no good epoch and builds none.
        built = []

        class Counted(Checkpoint):
            def __post_init__(self):
                built.append(self.epoch)
                super().__post_init__()

        model = MODELS["fc_classifier"]

        def inf_grad(*args):
            loss, (grad,) = model.loss(*args)
            return loss, (np.full_like(grad, np.inf),)

        monkeypatch.setattr(netlab, "Checkpoint", Counted)
        if diverge:
            monkeypatch.setitem(MODELS, "fc_classifier",
                                dataclasses.replace(model, loss=inf_grad))
        cfg = default_config("fc_classifier", epochs=5, seed=0)
        got = train("fc_classifier", cfg)
        if diverge:
            assert (got.diverged_at, got.checkpoint) == (1, None)
        else:
            assert (got.diverged_at, got.checkpoint.epoch) == (None, 5)
        assert built == ([] if diverge else [5])

    @pytest.mark.parametrize("arch", sorted(MODELS))
    def test_trains_at_the_recorded_params(self, arch):
        # Noise-free, the first loss is the loss of the clean letters that the
        # training stream picks, at the initial matrices it draws.
        params = SensorParams(noise_frac=0.0)
        model = MODELS[arch]
        cfg = default_config(arch, epochs=2, seed=4)
        hist = train(arch, cfg, params)
        rng = np.random.default_rng(cfg.seed)
        m = {name: rng.uniform(-1.0, 1.0, shape) for name, shape in model.matrices.items()}
        idx = rng.integers(0, dataset.NUM_GLYPHS, cfg.batch_size)
        c_i = dataset.encode_capacitive(dataset.GRIDS[model.spec.rows][idx], params)
        loss, _ = model.loss(m, array_inputs(model.spec, c_i, params), c_i,
                             dataset.LABELS[idx], params, False)
        assert hist.loss[0] == loss
        assert hist.checkpoint.params == params

    @pytest.mark.parametrize("arch,binarize", [("fc_classifier", False),
                                               ("fc_classifier", True),
                                               ("autoencoder", False),
                                               ("cnn_classifier", False)])
    def test_noise_free_eval_scores_the_clean_letters(self, arch, binarize):
        # Noise-free, every eval letter of glyph g is the clean letter g, so
        # its mean outputs are the clean letter's, and the accuracy is the
        # fraction of clean glyphs read correctly.
        params = SensorParams(noise_frac=0.0)
        model = MODELS[arch]
        hist = train(arch, default_config(arch, epochs=3, seed=2, binarize=binarize),
                     params)
        clean = dataset.encode_capacitive(dataset.GRIDS[model.spec.rows], params)
        pred, outputs, _ = model.score(hist.checkpoint.matrices,
                                       array_inputs(model.spec, clean, params),
                                       params, binarize)
        np.testing.assert_allclose(hist.mean_outputs[-1], outputs, rtol=0, atol=1e-12)
        assert hist.accuracy[-1] == np.mean(pred == np.arange(dataset.NUM_GLYPHS))

    @pytest.mark.parametrize("arch", sorted(netlab.MODELS))
    def test_checkpoint_follows_model_table(self, arch):
        model = netlab.MODELS[arch]
        cfg = default_config(arch, epochs=2, seed=3)
        assert (cfg.learning_rate, cfg.epochs) == (model.learning_rate, 2)
        assert default_config(arch).epochs == model.epochs
        ck = train(arch, cfg).checkpoint
        assert list(ck.matrices) == list(model.matrices)
        assert {k: m.shape for k, m in ck.matrices.items()} == model.matrices
        assert ck.beta == np.max(np.abs(ck.matrices[next(iter(model.matrices))]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        TrainConfig(learning_rate=netlab.MAX_LEARNING_RATE)
        with pytest.raises(ValueError, match="^learning_rate must be in"):
            TrainConfig(learning_rate=1e308)

    def test_seed_and_eval_size_validated(self):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError, match="eval_per_glyph"):
            TrainConfig(eval_per_glyph=0)

    @given(st.sampled_from(["batch_size", "learning_rate", "epochs", "seed",
                            "eval_per_glyph"]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_config_rejected_naming_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TrainConfig(**{name: value})

    def test_non_finite_gradient_diverges(self, monkeypatch):
        model = netlab.MODELS["fc_classifier"]

        def inf_grad(*args):
            loss, (grad,) = model.loss(*args)
            return loss, (np.full_like(grad, np.inf),)

        monkeypatch.setitem(netlab.MODELS, "fc_classifier",
                            dataclasses.replace(model, loss=inf_grad))
        got = train("fc_classifier", default_config("fc_classifier", epochs=5, seed=0))
        assert got.diverged_at == 1
        assert got.checkpoint is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_cnn_outputs_diverge(self, monkeypatch):
        # At alpha = 1e308 the weights stay finite (about 1e307), but the
        # digital rescale N*c0*beta of the next forward pass overflows. The
        # config refuses such a rate, so lift the bound to reach the check.
        monkeypatch.setattr(netlab, "MAX_LEARNING_RATE", 1e308)
        cfg = default_config("cnn_classifier", learning_rate=1e308, seed=0)
        got = train("cnn_classifier", cfg)
        assert got.diverged_at == 1
        assert got.epochs_run == 0


_HEADER_KEYS = ["architecture", "seed", "epoch", "beta", "binarize", "sensor.c0",
                "sensor.c_ih", "sensor.c_il", "sensor.noise_frac", "sensor.noise_mode"]


def _zero_checkpoint(arch):
    return Checkpoint(architecture=arch, seed=0, epoch=1, beta=1.0, binarize=False,
                      params=PARAMS, matrices={name: np.zeros(shape) for name, shape
                                               in MODELS[arch].matrices.items()})


class TestCheckpointIo:
    @pytest.mark.parametrize("arch", sorted(MODELS))
    def test_each_missing_header_field_is_named(self, tmp_path, arch):
        # Without any one header line the file must not load, not even at a
        # default SensorParams value.
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint(arch), path)
        lines = path.read_text().splitlines()
        header = lines[1:1 + len(_HEADER_KEYS)]
        assert [line.partition(":")[0] for line in header] == _HEADER_KEYS
        assert lines[1 + len(_HEADER_KEYS)].startswith("matrix ")
        for i, key in enumerate(_HEADER_KEYS, 1):
            path.write_text("\n".join(lines[:i] + lines[i + 1:]) + "\n")
            with pytest.raises(ValueError, match=f"missing checkpoint field '{key}'"):
                load_checkpoint(path)

    @pytest.mark.parametrize("key", [k for k in _HEADER_KEYS
                                     if k not in ("architecture", "sensor.noise_mode")])
    def test_malformed_header_value_names_field(self, tmp_path, key):
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint("fc_classifier"), path)
        lines = [f"{key}: many" if line.partition(":")[0] == key else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{key}: cannot parse 'many'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line,message", [
        ("seed: x", "seed: cannot parse 'x'"),
        ("sensor.c0: -1.0", f"c0 must be in (0, {MAX_CAPACITANCE_PF}] pF"),
        ("sensor.noise_mode: foo", "unknown noise_mode: 'foo'"),
    ])
    def test_refused_value_named_after_path(self, tmp_path, line, message):
        # Regression: these gave the reason without the file's path.
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint("fc_classifier"), path)
        key = line.partition(":")[0]
        lines = [line if old.partition(":")[0] == key else old
                 for old in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    def test_unknown_architecture_rejected(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint("fc_classifier"), path)
        text = path.read_text().replace("architecture: fc_classifier", "architecture: mlp")
        path.write_text(text)
        with pytest.raises(ValueError, match="unknown architecture 'mlp'"):
            load_checkpoint(path)

    def test_round_trip(self, tmp_path):
        cfg = default_config("autoencoder", epochs=3, seed=4)
        hist = train("autoencoder", cfg)
        path = tmp_path / "ck.txt"
        save_checkpoint(hist.checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.architecture == "autoencoder"
        assert loaded.seed == 4
        assert loaded.epoch == 3
        assert loaded.params == hist.checkpoint.params
        np.testing.assert_array_equal(loaded.matrices["encoder"],
                                      hist.checkpoint.matrices["encoder"])
        np.testing.assert_array_equal(loaded.matrices["decoder"],
                                      hist.checkpoint.matrices["decoder"])

    def test_headerless_file_named_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint("fc_classifier"), path)
        path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a capmac "
                                             f"checkpoint$"):
            load_checkpoint(path)

    def test_truncated_matrix_block_is_malformed(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint("fc_classifier"), path)
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match="malformed matrix block 'matrix weights 4 9'"):
            load_checkpoint(path)

    def test_repeated_header_line_refused(self, tmp_path):
        # Regression: an extra "seed: 99" before the real line loaded with seed 0.
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint("fc_classifier"), path)
        lines = path.read_text().splitlines()
        at = lines.index("seed: 0")
        path.write_text("\n".join(lines[:at] + ["seed: 99"] + lines[at:]) + "\n")
        with pytest.raises(ValueError, match=f"line {at + 2}: seed is given twice$"):
            load_checkpoint(path)

    def test_repeated_matrix_refused(self, tmp_path):
        # Regression: a second "matrix weights 4 9" block replaced the first.
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint("fc_classifier"), path)
        lines = path.read_text().splitlines()
        at = lines.index("matrix weights 4 9")
        path.write_text("\n".join(lines + lines[at:at + 5]) + "\n")
        with pytest.raises(ValueError, match=f"line {len(lines) + 1}: matrix weights is "
                                             f"given twice$"):
            load_checkpoint(path)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["repeat", "unknown key", "no separator"]), st.data())
    def test_any_repeated_header_key_refused(self, tmp_path_factory, kind, data):
        # One bad line goes in at any position after the first: a header line
        # is refused naming its line and key, any line after the header
        # belongs to no matrix block.
        path = tmp_path_factory.getbasetemp() / "repeated.txt"
        save_checkpoint(_zero_checkpoint("autoencoder"), path)
        lines = path.read_text().splitlines()
        key = data.draw(st.sampled_from(_HEADER_KEYS))
        value = data.draw(st.sampled_from(["0", "1", "true", "global", "fc_classifier"]))
        at = data.draw(st.integers(1, len(lines)))
        if kind == "repeat":
            bad, line = f"{key}: {value}", max(at, _HEADER_KEYS.index(key) + 2) + 1
        elif kind == "unknown key":
            key = data.draw(st.sampled_from(["foo", "threads", "train.seed", "matrix"]))
            bad, line = f"{key}: {value}", at + 1
        else:
            bad = data.draw(st.sampled_from([key, f"{key} = {value}", "garbage", ""]))
            line = at + 1
        message = {"repeat": f"line {line}: {key} is given twice",
                   "unknown key": f"line {line}: {key}: unknown configuration key",
                   "no separator": f"line {line} expects KEY:VALUE, got {bad!r}"}[kind]
        if at > len(_HEADER_KEYS) + 1:  # past the first matrix line
            message = "malformed matrix block "
        lines.insert(at, bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad,at,message", [
        ("foo: bar", 3, "line 4: foo: unknown configuration key"),
        ("garbage", 3, "line 4 expects KEY:VALUE, got 'garbage'"),
        ("", 3, "line 4 expects KEY:VALUE, got ''"),
        ("zzz: 1", None, "malformed matrix block 'zzz: 1'"),
    ], ids=["unknown key", "no colon", "blank", "after the last matrix"])
    def test_stray_line_refused_naming_path_and_line(self, tmp_path, bad, at, message):
        # Regression: each of these loaded.
        path = tmp_path / "ck.txt"
        save_checkpoint(_zero_checkpoint("fc_classifier"), path)
        lines = path.read_text().splitlines()
        lines.insert(len(lines) if at is None else at, bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_matrix_architecture_mismatch(self, tmp_path):
        cfg = default_config("fc_classifier", epochs=2, seed=0)
        hist = train("fc_classifier", cfg)
        ck = hist.checkpoint
        ck.matrices["extra"] = np.zeros((1, 1))
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        with pytest.raises(ValueError, match="match"):
            load_checkpoint(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def checkpoints(draw):
    arch = draw(st.sampled_from(sorted(MODELS)))
    c_il = draw(st.floats(min_value=1e-3, max_value=1e3))
    params = SensorParams(c0=draw(st.floats(min_value=1e-3, max_value=1e4)), c_il=c_il,
                          c_ih=c_il * draw(st.floats(min_value=1.01, max_value=100.0)),
                          noise_frac=draw(st.floats(min_value=0.0, max_value=10.0)),
                          noise_mode=draw(st.sampled_from(["per_class", "global"])))
    matrices = {name: draw(np_arrays(float, shape, elements=_FINITE))
                for name, shape in MODELS[arch].matrices.items()}
    # The beta train writes: the divisor of the first matrix.
    beta = netlab.programmed_weights(next(iter(matrices.values())))[1]
    return Checkpoint(architecture=arch, seed=draw(st.integers(0, 2 ** 63)),
                      epoch=draw(st.integers(1, netlab.MAX_EPOCHS)), beta=beta,
                      binarize=draw(st.booleans()), params=params, matrices=matrices)


_CHECKPOINT_LINES = st.one_of(
    st.sampled_from([
        "capmac-checkpoint v1", "architecture: fc_classifier",
        "architecture: autoencoder", "architecture: cnn_classifier",
        "architecture: mlp", "seed: 0", "seed: x", "epoch: 3", "beta: 1.0",
        "binarize: true", "sensor.c0: 72.0", "sensor.c0: nan", "sensor.c_ih: 500.0",
        "sensor.c_il: 16.77", "sensor.noise_frac: 0.2", "sensor.noise_mode: per_class",
        "matrix weights 4 9", "matrix encoder 4 9", "matrix decoder 9 4",
        "matrix decoder 9 3", "matrix kernel 1 9", "matrix head 4 9",
        "matrix head -1 9", "matrix kernel 1", " ".join(["0.5"] * 9),
        " ".join(["-0.25"] * 4), " ".join(["0.5"] * 8 + ["inf"]), "0.5 nan 0.5 0.5",
        "0.5 0.5 0.5", "nan", "",
    ]),
    st.text(max_size=20),
)


_TRAIN_CONFIGS = st.builds(
    TrainConfig, batch_size=st.integers(1, dataset.MAX_DRAW),
    learning_rate=st.floats(min_value=0, max_value=netlab.MAX_LEARNING_RATE,
                            exclude_min=True),
    epochs=st.integers(1, netlab.MAX_EPOCHS), seed=st.integers(0, 2 ** 63),
    binarize=st.booleans(),
    eval_per_glyph=st.integers(1, dataset.MAX_DRAW // dataset.NUM_GLYPHS))


class TestCheckpointProperties:
    @settings(max_examples=100, deadline=None)
    @given(_TRAIN_CONFIGS, checkpoints())
    def test_written_settings_read_back_as_field_texts(self, tmp_path_factory, train_cfg,
                                                        ckpt):
        # The config lines and the checkpoint header that capmac writes go
        # through the one reader and give back each section's field_texts.
        config = cli.ExperimentConfig(ckpt.architecture, train_cfg, ckpt.params,
                                      Path("run"))
        lines = cli.canonical_config_lines(config)
        read = netlab.read_settings([("config", line) for line in lines], "=",
                                    cli._CONFIG_KEYS)
        assert read == {"architecture": ckpt.architecture, "emit": "",
                        **netlab.field_texts(train_cfg, "train."),
                        **netlab.field_texts(ckpt.params, "sensor.")}
        path = tmp_path_factory.getbasetemp() / "header.txt"
        save_checkpoint(ckpt, path)
        header = path.read_text().splitlines()[1:1 + len(_HEADER_KEYS)]
        read = netlab.read_settings([("header", line) for line in header], ":", _HEADER_KEYS)
        assert read == {**netlab.field_texts(ckpt, ""),
                        **netlab.field_texts(ckpt.params, "sensor.")}

    @settings(max_examples=100, deadline=None)
    @given(checkpoints())
    def test_save_load_round_trip(self, tmp_path_factory, ckpt):
        path = tmp_path_factory.getbasetemp() / "round_trip.txt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert (loaded.architecture, loaded.seed, loaded.epoch, loaded.beta,
                loaded.binarize, loaded.params) == (
            ckpt.architecture, ckpt.seed, ckpt.epoch, ckpt.beta, ckpt.binarize,
            ckpt.params)
        assert set(loaded.matrices) == set(ckpt.matrices)
        for name, mat in ckpt.matrices.items():
            np.testing.assert_array_equal(loaded.matrices[name], mat)

    @settings(max_examples=300, deadline=None)
    @given(checkpoints(), st.lists(st.tuples(st.sampled_from(["drop", "replace", "insert"]),
                                             st.integers(0, 60), _CHECKPOINT_LINES),
                                   max_size=4))
    def test_parser_fuzz_loads_valid_or_raises_value_error(self, tmp_path_factory,
                                                           ckpt, edits):
        # Edits of a valid file reach every branch of the parser.
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        save_checkpoint(ckpt, path)
        lines = path.read_text().splitlines()
        for op, i, line in edits:
            i %= len(lines) + 1
            if op == "insert":
                lines.insert(i, line)
            elif i < len(lines):
                lines[i:i + 1] = [] if op == "drop" else [line]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            ckpt = load_checkpoint(path)
        except ValueError:
            return
        expected = MODELS[ckpt.architecture].matrices
        assert {k: m.shape for k, m in ckpt.matrices.items()} == expected
        assert all(np.all(np.isfinite(m)) for m in ckpt.matrices.values())

    def test_rejects_misshapen_matrix(self, tmp_path):
        ck = _zero_checkpoint("autoencoder")
        ck.matrices["decoder"] = np.zeros((9, 3))
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        with pytest.raises(ValueError, match="decoder"):
            load_checkpoint(path)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, tmp_path, beta):
        path = tmp_path / "ck.txt"
        ck = _zero_checkpoint("fc_classifier")
        ck.beta = beta
        save_checkpoint(ck, path)
        with pytest.raises(ValueError, match="beta must be finite"):
            load_checkpoint(path)

    @settings(max_examples=50, deadline=None)
    @given(checkpoints(), _FINITE)
    def test_rejects_beta_other_than_train_writes(self, tmp_path_factory, ckpt, beta):
        # train writes the divisor of the first matrix; any other beta would
        # be recorded but never read.
        path = tmp_path_factory.getbasetemp() / "beta.txt"
        written = copy.copy(ckpt)
        written.beta = beta
        save_checkpoint(written, path)
        if beta == ckpt.beta:
            assert load_checkpoint(path).beta == beta
        else:
            with pytest.raises(ValueError, match=re.escape(f"beta must be {ckpt.beta!r},")):
                load_checkpoint(path)

    def test_rejects_non_finite_matrix(self, tmp_path):
        ck = _zero_checkpoint("fc_classifier")
        ck.matrices["weights"] = np.full((4, 9), np.inf)
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(path)


class TestHistoryCsv:
    def test_format(self, tmp_path):
        cfg = default_config("fc_classifier", epochs=3, seed=0)
        hist = train("fc_classifier", cfg)
        path = tmp_path / "history.csv"
        write_history_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(history_columns())
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert len(first) == 3 + 16
        float(first[1])  # parseable loss

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = default_config("fc_classifier", epochs=5, seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(train("fc_classifier", cfg), p1)
        write_history_csv(train("fc_classifier", cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


@st.composite
def bounded_params(draw):
    """Any SensorParams within its bounds: c_il from MIN_C_IL_PF, c_ih/c0 up
    to MAX_CAPACITANCE_RATIO, noise_frac up to MAX_NOISE_FRAC, either mode."""
    c_il = draw(st.floats(min_value=MIN_C_IL_PF, max_value=MAX_CAPACITANCE_PF,
                          exclude_max=True))
    c_ih = draw(st.floats(min_value=c_il, max_value=MAX_CAPACITANCE_PF, exclude_min=True))
    c0 = draw(st.floats(min_value=c_ih / MAX_CAPACITANCE_RATIO, max_value=MAX_CAPACITANCE_PF))
    noise_frac = draw(st.floats(min_value=0.0, max_value=MAX_NOISE_FRAC))
    try:
        return SensorParams(c0, c_ih, c_il, noise_frac,
                            draw(st.sampled_from(["per_class", "global"])))
    except ValueError:  # c_ih / MAX_CAPACITANCE_RATIO rounded below the bound
        assume(False)


class TestValuesMacReads:
    """device.mac checks shapes only: what train, evaluate and capmac eval
    hand it is kept in range where it is made, and check_mac_values is left
    to the entry points that take outside values."""

    @settings(max_examples=200, deadline=None)
    @given(bounded_params(), st.sampled_from([FC_SPEC, CNN_SPEC]),
           st.integers(0, 2 ** 32 - 1))
    @example(SensorParams(2e-149, 2e-140, MIN_C_IL_PF, 0.0), CNN_SPEC, 0)
    @example(SensorParams(2e-149, 2e-140, MIN_C_IL_PF, MAX_NOISE_FRAC), FC_SPEC, 0)
    @example(SensorParams(1e-3, MAX_CAPACITANCE_PF, MIN_C_IL_PF, MAX_NOISE_FRAC, "global"),
             FC_SPEC, 1)
    def test_array_inputs_of_noisy_letters_positive_and_finite(self, params, spec, seed):
        idx = np.repeat(np.arange(dataset.NUM_GLYPHS), 5)
        c_i = dataset.noisy_letters(idx, params, np.random.default_rng(seed), spec.rows)
        x = array_inputs(spec, c_i, params)
        assert np.isfinite(x).all() and (x > 0).all()

    @settings(max_examples=200, deadline=None)
    @given(array_shapes(min_dims=2, max_dims=4, max_side=5).flatmap(
        lambda shape: np_arrays(float, shape, elements=_FINITE)), st.booleans())
    def test_programmed_weights_in_unit_range(self, v, binarize):
        prog = netlab.programmed_weights(v, binarize)[0]
        assert prog.shape == v.shape and (abs(prog) <= 1.0).all()

    def test_training_and_capmac_eval_never_check_values(self, monkeypatch):
        calls, check = [], device.check_mac_values

        def counting(*args):
            calls.append(args)
            return check(*args)

        for name in ("arrays", "cli", "dataset", "device", "metrics", "netlab", "weights"):
            module = getattr(capmac, name)
            if hasattr(module, "check_mac_values"):
                monkeypatch.setattr(module, "check_mac_values", counting)
        for arch, binarize in [(arch, False) for arch in MODELS] + [("fc_classifier", True)]:
            config = default_config(arch, epochs=5, eval_per_glyph=3, binarize=binarize)
            cli.evaluate(train(arch, config).checkpoint, per_glyph=3)
        assert calls == []
        fc_forward(FC_SPEC, np.full((3, 3), 100.0), np.zeros((4, 9)), PARAMS)
        assert len(calls) == 1  # the counter sees the entry points' calls


def _hamming_nearest(bits):
    """The glyph nearest each bitmap row by Hamming distance, ties to the lowest:
    classify_series_bits' rule before it read a table."""
    pats = dataset.GRIDS[3].reshape(dataset.NUM_GLYPHS, -1)
    return (bits[..., None, :] != pats).sum(-1).argmin(-1)


_ALL_BITMAPS = (np.arange(512)[:, None] >> np.arange(8, -1, -1)) & 1


class TestNearestGlyphTable:
    """classify_series_bits reads each bitmap's glyph from a 512-entry table
    built with the Hamming rule: the same glyphs, ties included."""

    def test_every_bitmap_as_by_hamming_distance(self):
        c_h, c_l, _ = encoder_caps(PARAMS)
        pred, bits = netlab.classify_series_bits(np.where(_ALL_BITMAPS, c_h, c_l), PARAMS)
        assert (bits == _ALL_BITMAPS).all()
        assert pred.dtype == np.intp and (pred == _hamming_nearest(_ALL_BITMAPS)).all()
        ham = (_ALL_BITMAPS[:, None, :] != dataset.GRIDS[3].reshape(1, 4, 9)).sum(-1)
        ties = (ham == ham.min(-1, keepdims=True)).sum(-1) > 1
        assert ties.sum() == 154

    def test_table_read_only_and_built_once(self):
        table, place = netlab._nearest_glyph()
        assert not table.flags.writeable and not place.flags.writeable
        assert netlab._nearest_glyph()[0] is table

    @settings(max_examples=200, deadline=None)
    @given(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).flatmap(
        lambda lead: np_arrays(float, lead + (9,), elements=st.floats(0.0, 100.0))))
    @example(np.zeros((0, 9)))
    def test_any_stack_as_by_hamming_distance(self, c_rec):
        pred, bits = netlab.classify_series_bits(c_rec, PARAMS)
        want = _hamming_nearest(bits)
        assert pred.shape == want.shape == c_rec.shape[:-1]
        assert np.asarray(pred).dtype == np.asarray(want).dtype
        assert (pred == want).all()

    def test_one_pixel_rows_as_before(self):
        c_h, c_l, _ = encoder_caps(PARAMS)
        c_rec = np.array([[c_l], [c_h], [(c_h + c_l) / 2], [1.0]])
        pred, bits = netlab.classify_series_bits(c_rec, PARAMS)
        assert bits.tolist() == [[0], [1], [1], [0]]
        assert pred.tolist() == _hamming_nearest(bits).tolist()

    @pytest.mark.parametrize("pixels", [4, 16])
    def test_other_pixel_counts_refused(self, pixels):
        with pytest.raises(ValueError):
            netlab.classify_series_bits(np.full((3, pixels), 50.0), PARAMS)
