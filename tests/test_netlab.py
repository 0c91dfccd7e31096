import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays as np_arrays

from capmac import dataset, netlab
from capmac.arrays import build_conv_array, build_fc_array, conv_forward, fc_forward
from capmac.device import SensorParams, series_capacitance
from capmac.netlab import (CHECKPOINT_MATRICES, Checkpoint, TrainConfig, TrainingDiverged,
                           autoencoder_batch_loss, autoencoder_forward,
                           cnn_batch_loss, cnn_logits, cross_entropy,
                           default_config, encoder_caps, fc_batch_loss,
                           fc_output_volts, gather_windows, history_columns,
                           load_checkpoint, save_checkpoint, sigmoid, softmax,
                           train_autoencoder, train_cnn_classifier,
                           train_fc_classifier, write_history_csv)

PARAMS = SensorParams()


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
    batch = dataset.sample_batch(size, PARAMS, rng, resolution=resolution)
    c_i, labels, _ = dataset.batch_arrays(batch)
    return c_i, labels


class TestGradients:
    def test_fc_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            c_i, labels = _random_instance(rng)
            flat = c_i.reshape(len(c_i), -1)
            v0 = rng.uniform(-1.5, 1.5, (4, 9))
            _, grad, _ = fc_batch_loss(v0, flat, labels, PARAMS)
            fd = _fd_gradient(lambda v: fc_batch_loss(v, flat, labels, PARAMS)[0], v0)
            assert _rel_norm_err(grad / len(c_i), fd) < 1e-5

    def test_autoencoder_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            c_i, _ = _random_instance(rng)
            flat = c_i.reshape(len(c_i), -1)
            v0 = rng.uniform(-1, 1, (4, 9))
            w0 = rng.uniform(-1, 1, (9, 4))
            _, g_enc, g_dec, _, _, _ = autoencoder_batch_loss(v0, w0, flat, PARAMS)
            fd_enc = _fd_gradient(
                lambda v: autoencoder_batch_loss(v, w0, flat, PARAMS)[0], v0)
            fd_dec = _fd_gradient(
                lambda w: autoencoder_batch_loss(v0, w, flat, PARAMS)[0], w0)
            assert _rel_norm_err(g_enc / len(c_i), fd_enc) < 1e-5
            assert _rel_norm_err(g_dec / len(c_i), fd_dec) < 1e-5

    def test_cnn_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            c_i, labels = _random_instance(rng, resolution=5)
            k0 = rng.uniform(-1, 1, 9)
            f0 = rng.uniform(-1, 1, (4, 9))
            _, g_k, g_f, _, _ = cnn_batch_loss(k0, f0, c_i, labels, PARAMS)
            fd_k = _fd_gradient(
                lambda k: cnn_batch_loss(k, f0, c_i, labels, PARAMS)[0], k0)
            fd_f = _fd_gradient(
                lambda f: cnn_batch_loss(k0, f, c_i, labels, PARAMS)[0], f0)
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
            phi, _, _ = autoencoder_forward(v, np.zeros((9, 4)),
                                            c_i.reshape(len(c_i), -1), PARAMS)
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
            np.testing.assert_allclose(volts, expect, rtol=1e-12)

    def test_cnn_features_equal_conv_forward_route(self):
        rng = np.random.default_rng(5)
        from capmac.arrays import schedule_conv
        topo = build_conv_array(5, 5, 3)
        sched = schedule_conv(5, 5, 3)
        c_h, c_l, span = encoder_caps(PARAMS)
        for _ in range(10):
            k = rng.uniform(-2, 2, 9)
            img = rng.uniform(10, 500, (5, 5))
            logits, h = cnn_logits(k, np.eye(4, 9), img[None], PARAMS)
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

    def test_reconstruction_stays_below_c0(self):
        rng = np.random.default_rng(8)
        c_i, _ = _random_instance(rng, size=40)
        flat = c_i.reshape(40, -1)
        v = rng.uniform(-1, 1, (4, 9))
        w = rng.uniform(-1, 1, (9, 4))
        _, c_rec, ci_rec = autoencoder_forward(v, w, flat, PARAMS)
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
            cfg = default_config("fc_classifier", epochs=30, noise_frac=0.0, seed=seed)
            hist = train_fc_classifier(cfg)
            assert 1.0 in hist.accuracy, f"seed {seed} never reached 1.0"
            assert hist.loss[-1] < np.log(4), f"seed {seed} loss {hist.loss[-1]}"
            assert hist.epochs_run == 30

    def test_fc_training_deterministic(self):
        cfg = default_config("fc_classifier", epochs=12, seed=9)
        a = train_fc_classifier(cfg)
        b = train_fc_classifier(cfg)
        assert a.loss == b.loss
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.checkpoint.matrix("weights"),
                                      b.checkpoint.matrix("weights"))

    def test_autoencoder_training_deterministic(self):
        cfg = default_config("autoencoder", epochs=6, seed=9)
        a = train_autoencoder(cfg)
        b = train_autoencoder(cfg)
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.checkpoint.matrix("encoder"),
                                      b.checkpoint.matrix("encoder"))

    def test_cnn_training_deterministic(self):
        cfg = default_config("cnn_classifier", epochs=6, seed=9)
        a = train_cnn_classifier(cfg)
        b = train_cnn_classifier(cfg)
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.checkpoint.matrix("kernel"),
                                      b.checkpoint.matrix("kernel"))

    def test_autoencoder_loss_drops_sharply(self):
        cfg = default_config("autoencoder", seed=0)
        hist = train_autoencoder(cfg)
        assert hist.loss[14] < 0.5 * hist.loss[0]   # sharp early decrease
        assert hist.loss[-1] < 0.2 * hist.loss[0]

    def test_autoencoder_reconstructs_clean_letters(self):
        cfg = default_config("autoencoder", seed=0)
        hist = train_autoencoder(cfg)
        ck = hist.checkpoint
        pats = dataset.letter_patterns(3)
        clean = np.stack([dataset.encode_capacitive(p, PARAMS).c_i.reshape(-1)
                          for p in pats])
        _, c_rec, _ = autoencoder_forward(ck.matrix("encoder"), ck.matrix("decoder"),
                                          clean, PARAMS)
        pred, _ = netlab.classify_series_bits(c_rec, PARAMS)
        np.testing.assert_array_equal(pred, [0, 1, 2, 3])

    def test_binarized_forward_uses_signs(self):
        cfg = default_config("fc_classifier", epochs=3, seed=1, binarize=True)
        hist = train_fc_classifier(cfg)
        v = hist.checkpoint.matrix("weights")
        volts = fc_output_volts(v, np.full((1, 9), 100.0), PARAMS, binarize=True)
        # bounded by max series cap over c0 with +-1 weights
        assert np.all(np.abs(volts) <= series_capacitance(100.0, PARAMS.c0) / PARAMS.c0 + 1e-12)

    def test_history_shapes(self):
        cfg = default_config("cnn_classifier", epochs=4, seed=0)
        hist = train_cnn_classifier(cfg)
        assert hist.epochs_run == 4
        assert len(hist.accuracy) == 4
        assert all(m.shape == (4, 4) for m in hist.mean_outputs)

    def test_divergence_raises_with_last_good_state(self, monkeypatch):
        calls = {"n": 0}
        real = netlab.fc_batch_loss

        def exploding(v, flat, labels, params, binarize=False):
            calls["n"] += 1
            if calls["n"] >= 3:
                return float("nan"), np.zeros_like(v), None
            return real(v, flat, labels, params, binarize=binarize)

        monkeypatch.setattr(netlab, "fc_batch_loss", exploding)
        cfg = default_config("fc_classifier", epochs=10, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train_fc_classifier(cfg)
        assert exc.value.epoch == 3
        assert exc.value.history.epochs_run == 2
        assert exc.value.history.checkpoint.epoch == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_seed_and_eval_size_validated(self):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError, match="eval_per_glyph"):
            TrainConfig(eval_per_glyph=0)

    @given(st.sampled_from(["batch_size", "learning_rate", "epochs", "noise_frac",
                            "seed", "eval_per_glyph"]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_config_rejected_naming_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TrainConfig(**{name: value})

    def test_non_finite_gradient_diverges(self, monkeypatch):
        real = netlab.fc_batch_loss

        def inf_grad(v, flat, labels, params, binarize=False):
            loss, grad, p = real(v, flat, labels, params, binarize=binarize)
            return loss, np.full_like(grad, np.inf), p

        monkeypatch.setattr(netlab, "fc_batch_loss", inf_grad)
        with pytest.raises(TrainingDiverged, match="non-finite") as exc:
            train_fc_classifier(default_config("fc_classifier", epochs=5, seed=0))
        assert exc.value.epoch == 1
        assert exc.value.history.checkpoint is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_cnn_outputs_diverge(self):
        # At alpha = 1e308 the weights stay finite (about 1e307), but the
        # digital rescale N*c0*beta of the next forward pass overflows.
        cfg = default_config("cnn_classifier", learning_rate=1e308, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train_cnn_classifier(cfg)
        assert exc.value.epoch == 1
        assert exc.value.history.epochs_run == 0


class TestCheckpointIo:
    def test_round_trip(self, tmp_path):
        cfg = default_config("autoencoder", epochs=3, seed=4)
        hist = train_autoencoder(cfg)
        path = tmp_path / "ck.txt"
        save_checkpoint(hist.checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.architecture == "autoencoder"
        assert loaded.seed == 4
        assert loaded.epoch == 3
        assert loaded.params == hist.checkpoint.params
        np.testing.assert_array_equal(loaded.matrix("encoder"),
                                      hist.checkpoint.matrix("encoder"))
        np.testing.assert_array_equal(loaded.matrix("decoder"),
                                      hist.checkpoint.matrix("decoder"))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_matrix_architecture_mismatch(self, tmp_path):
        cfg = default_config("fc_classifier", epochs=2, seed=0)
        hist = train_fc_classifier(cfg)
        ck = hist.checkpoint
        ck.matrices["extra"] = np.zeros((1, 1))
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        with pytest.raises(ValueError, match="match"):
            load_checkpoint(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def checkpoints(draw):
    arch = draw(st.sampled_from(sorted(CHECKPOINT_MATRICES)))
    c_il = draw(st.floats(min_value=1e-3, max_value=1e3))
    params = SensorParams(c0=draw(st.floats(min_value=1e-3, max_value=1e4)), c_il=c_il,
                          c_ih=c_il * draw(st.floats(min_value=1.01, max_value=100.0)),
                          noise_frac=draw(st.floats(min_value=0.0, max_value=10.0)),
                          noise_mode=draw(st.sampled_from(["per_class", "global"])))
    matrices = {name: draw(np_arrays(float, shape, elements=_FINITE))
                for name, shape in CHECKPOINT_MATRICES[arch].items()}
    return Checkpoint(architecture=arch, seed=draw(st.integers(0, 2 ** 63)),
                      epoch=draw(st.integers(0, 10 ** 6)), beta=draw(_FINITE),
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
            np.testing.assert_array_equal(loaded.matrix(name), mat)

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
        expected = CHECKPOINT_MATRICES[ckpt.architecture]
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
        hist = train_fc_classifier(cfg)
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
        write_history_csv(train_fc_classifier(cfg), p1)
        write_history_csv(train_fc_classifier(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
