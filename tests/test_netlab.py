import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes
from hypothesis.extra.numpy import arrays as np_arrays

from capmac import dataset, netlab, weights
from capmac.arrays import build_conv_array, build_fc_array, conv_forward, fc_forward
from capmac.device import SensorParams, series_capacitance
from capmac.netlab import (MODELS, Checkpoint, TrainConfig,
                           TrainingDiverged, array_inputs, autoencoder_batch_loss,
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
        want = weights.binarize_weights(bank) if binarize else weights.normalize_weights(bank)
        prog, beta = netlab.programmed_weights(v, binarize)
        _assert_bitwise_equal(prog, want.v)
        assert beta == want.beta

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
        accuracy, _, _ = netlab.evaluate(arch, m, PARAMS, False,
                                         np.random.default_rng(seed), per_glyph)
        idx = np.repeat(np.arange(dataset.NUM_GLYPHS), per_glyph)
        c_i = dataset.noisy_letters(idx, PARAMS, np.random.default_rng(seed),
                                    model.spec.rows)
        pred, _, _ = model.score(m, array_inputs(model.spec, c_i, PARAMS), PARAMS, False)
        # A numpy scalar here would be written as np.float64(...) in history.csv.
        assert type(accuracy) is float
        assert accuracy == float(np.mean(pred == idx))

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
        with pytest.raises(TrainingDiverged) as exc:
            train("fc_classifier", cfg)
        assert exc.value.epoch == 3
        assert exc.value.history.epochs_run == 2
        assert exc.value.history.checkpoint.epoch == 2

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
        with pytest.raises(TrainingDiverged, match="non-finite") as exc:
            train("fc_classifier", default_config("fc_classifier", epochs=5, seed=0))
        assert exc.value.epoch == 1
        assert exc.value.history.checkpoint is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_cnn_outputs_diverge(self, monkeypatch):
        # At alpha = 1e308 the weights stay finite (about 1e307), but the
        # digital rescale N*c0*beta of the next forward pass overflows. The
        # config refuses such a rate, so lift the bound to reach the check.
        monkeypatch.setattr(netlab, "MAX_LEARNING_RATE", 1e308)
        cfg = default_config("cnn_classifier", learning_rate=1e308, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train("cnn_classifier", cfg)
        assert exc.value.epoch == 1
        assert exc.value.history.epochs_run == 0


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
                      epoch=draw(st.integers(0, 10 ** 6)), beta=beta,
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


class TestCheckpointProperties:
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
        ck = Checkpoint(architecture="autoencoder", seed=0, epoch=1, beta=1.0,
                        binarize=False, params=PARAMS,
                        matrices={"encoder": np.zeros((4, 9)), "decoder": np.zeros((9, 3))})
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        with pytest.raises(ValueError, match="decoder"):
            load_checkpoint(path)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, tmp_path, beta):
        path = tmp_path / "ck.txt"
        save_checkpoint(dataclasses.replace(_zero_checkpoint("fc_classifier"), beta=beta),
                        path)
        with pytest.raises(ValueError, match="beta must be finite"):
            load_checkpoint(path)

    @settings(max_examples=50, deadline=None)
    @given(checkpoints(), _FINITE)
    def test_rejects_beta_other_than_train_writes(self, tmp_path_factory, ckpt, beta):
        # train writes the divisor of the first matrix; any other beta would
        # be recorded but never read.
        path = tmp_path_factory.getbasetemp() / "beta.txt"
        save_checkpoint(dataclasses.replace(ckpt, beta=beta), path)
        if beta == ckpt.beta:
            assert load_checkpoint(path).beta == beta
        else:
            with pytest.raises(ValueError, match=re.escape(f"beta must be {ckpt.beta!r},")):
                load_checkpoint(path)

    def test_rejects_non_finite_matrix(self, tmp_path):
        ck = Checkpoint(architecture="fc_classifier", seed=0, epoch=1, beta=1.0,
                        binarize=False, params=PARAMS,
                        matrices={"weights": np.full((4, 9), np.inf)})
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
