import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capmac import cli, dataset, netlab
from capmac.cli import (ConfigError, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK,
                        build_config, config_hash, evaluate, main,
                        parse_config_text, render_ascii, run, write_pgm)
from capmac.device import SensorParams, series_capacitance
from capmac.netlab import TrainingDiverged, default_config, load_checkpoint


def fc_raw(tmp_path, **extra):
    raw = {
        "architecture": "fc_classifier",
        "output_dir": str(tmp_path / "run"),
        "emit": "history,checkpoint",
        "train.epochs": "4",
        "train.seed": "0",
    }
    raw.update({k: str(v) for k, v in extra.items()})
    return raw


class TestConfigParsing:
    def test_key_value_lines(self):
        raw = parse_config_text("""
        # comment
        architecture = autoencoder
        train.epochs = 7   # trailing comment
        sensor.c0 = 72
        """)
        assert raw == {"architecture": "autoencoder", "train.epochs": "7",
                       "sensor.c0": "72"}

    def test_rejects_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words")

    def test_unknown_key_names_field(self):
        with pytest.raises(ConfigError, match="train.momentum"):
            build_config({"train.momentum": "0.9"})

    def test_bad_architecture(self):
        with pytest.raises(ConfigError, match="architecture"):
            build_config({"architecture": "transformer"})

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            build_config({"train.epochs": "many"})
        with pytest.raises(ConfigError, match="train"):
            build_config({"train.epochs": "0"})

    def test_reconstruction_emit_needs_autoencoder(self):
        with pytest.raises(ConfigError, match="reconstruction"):
            build_config({"architecture": "fc_classifier", "emit": "reconstruction"})

    def test_waveform_emit_rejected_for_cnn(self):
        with pytest.raises(ConfigError, match="waveform"):
            build_config({"architecture": "cnn_classifier", "emit": "waveform"})

    def test_defaults_per_architecture(self):
        cfg = build_config({"architecture": "autoencoder"})
        assert cfg.train.learning_rate == pytest.approx(4e-4)
        assert cfg.train.epochs == 40
        cfg = build_config({"architecture": "cnn_classifier"})
        assert cfg.train.learning_rate == pytest.approx(1.0)

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = build_config(fc_raw(tmp_path))
        b = build_config(fc_raw(tmp_path))
        c = build_config(fc_raw(tmp_path, **{"train.seed": "1"}))
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


_CONFIG_KEYS = sorted(set(cli._TRAIN_KEYS) | set(cli._SENSOR_KEYS) | set(cli._TOP_KEYS)
                     | {"threads", "train.momentum"})
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "3", "0.5", "1e308", "1e400", "nan", "inf", "-inf",
                     "true", "no", "fc_classifier", "autoencoder", "cnn_classifier",
                     "per_class", "global", "history,waveform", "reconstruction",
                     "9" * 400, ""]),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES, max_size=8))
def test_config_fuzz_builds_or_raises_config_error(raw):
    text = "\n".join(f"{key} = {value}" for key, value in raw.items())
    try:
        cfg = build_config(parse_config_text(text))
    except ConfigError:
        return
    assert cfg.architecture in netlab.ARCHITECTURES
    assert all(np.isfinite([cfg.train.learning_rate, cfg.train.noise_frac, cfg.sensor.c0,
                            cfg.sensor.c_ih, cfg.sensor.c_il, cfg.sensor.noise_frac]))


class TestRun:
    def test_emits_requested_artifacts_and_manifest(self, tmp_path):
        cfg = build_config(fc_raw(tmp_path))
        manifest = run(cfg)
        outdir = tmp_path / "run"
        assert (outdir / "history.csv").exists()
        assert (outdir / "checkpoint.txt").exists()
        assert (outdir / "manifest.txt").exists()
        names = [n for n, _ in manifest.artifacts]
        assert names == ["history.csv", "checkpoint.txt"]
        text = (outdir / "manifest.txt").read_text()
        assert "config_hash" in text
        assert "artifact: history.csv sha256" in text

    def test_empty_emit_writes_manifest_only(self, tmp_path):
        raw = fc_raw(tmp_path)
        raw["emit"] = ""
        manifest = run(build_config(raw))
        outdir = tmp_path / "run"
        assert manifest.artifacts == []
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.txt"]

    def test_history_row_count_matches_epochs(self, tmp_path):
        raw = fc_raw(tmp_path, **{"train.epochs": "6"})
        run(build_config(raw))
        lines = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_rerun_is_byte_identical(self, tmp_path):
        raw1 = fc_raw(tmp_path)
        raw1["output_dir"] = str(tmp_path / "a")
        raw2 = fc_raw(tmp_path)
        raw2["output_dir"] = str(tmp_path / "b")
        m1 = run(build_config(raw1))
        m2 = run(build_config(raw2))
        for name in ("history.csv", "checkpoint.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        assert dict(m1.artifacts) == dict(m2.artifacts)
        assert m1.config_hash == m2.config_hash

    def test_waveform_and_schedule_artifacts(self, tmp_path):
        raw = fc_raw(tmp_path, emit="waveform,schedule,checkpoint")
        run(build_config(raw))
        outdir = tmp_path / "run"
        assert (outdir / "waveform.csv").exists()
        sched = json.loads((outdir / "schedule.json").read_text())
        assert sched["type"] == "fc_banks"
        assert sched["banks"] == 4

    def test_cnn_schedule_artifact(self, tmp_path):
        raw = {
            "architecture": "cnn_classifier",
            "output_dir": str(tmp_path / "cnn"),
            "emit": "schedule",
            "train.epochs": "2",
        }
        run(build_config(raw))
        sched = json.loads((tmp_path / "cnn" / "schedule.json").read_text())
        assert sched["step_count"] == 3
        assert sched["adc_count"] == 5

    def test_autoencoder_reconstruction_artifacts(self, tmp_path):
        raw = {
            "architecture": "autoencoder",
            "output_dir": str(tmp_path / "ae"),
            "emit": "reconstruction,checkpoint",
            "train.epochs": "40",
            "train.seed": "0",
        }
        run(build_config(raw))
        outdir = tmp_path / "ae"
        for glyph in ("h", "l", "y", "invz"):
            assert (outdir / f"reconstruction_{glyph}.txt").exists()
            pgm = (outdir / f"reconstruction_{glyph}.pgm").read_text().splitlines()
            assert pgm[0] == "P2"
            assert pgm[1] == "3 3"
        # a trained autoencoder reconstructs the clean inverted Z exactly
        invz = (outdir / "reconstruction_invz.txt").read_text().splitlines()
        assert invz == ["###", ".#.", "###"]

    def test_divergence_exit_path(self, tmp_path, monkeypatch):
        def diverge(config, params):
            hist = netlab.TrainHistory(architecture="fc_classifier")
            raise TrainingDiverged(1, hist)

        monkeypatch.setitem(netlab.TRAINERS, "fc_classifier", diverge)
        cfg = build_config(fc_raw(tmp_path))
        with pytest.raises(TrainingDiverged):
            run(cfg)
        text = (tmp_path / "run" / "manifest.txt").read_text()
        assert "diverged_at_epoch: 1" in text


class TestMainExitCodes:
    def test_train_ok(self, tmp_path, capsys):
        code = main(["train", "--arch", "fc_classifier", "--epochs", "3",
                     "--seed", "0", "--output-dir", str(tmp_path / "r"),
                     "--emit", "history"])
        assert code == EXIT_OK
        assert "run complete" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        code = main(["train", "--arch", "fc_classifier",
                     "--output-dir", str(tmp_path / "r"),
                     "--set", "train.epochs=zero"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_divergence_is_3(self, tmp_path, monkeypatch, capsys):
        def diverge(config, params):
            raise TrainingDiverged(2, netlab.TrainHistory(architecture="fc_classifier"))

        monkeypatch.setitem(netlab.TRAINERS, "fc_classifier", diverge)
        code = main(["train", "--arch", "fc_classifier",
                     "--output-dir", str(tmp_path / "r")])
        assert code == EXIT_DIVERGED

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("architecture = fc_classifier\n"
                           "train.epochs = 3\n"
                           f"output_dir = {tmp_path / 'from_file'}\n"
                           "emit = checkpoint\n")
        code = main(["train", "--config", str(cfgfile),
                     "--output-dir", str(tmp_path / "cli_wins")])
        assert code == EXIT_OK
        assert (tmp_path / "cli_wins" / "checkpoint.txt").exists()
        assert not (tmp_path / "from_file").exists()

    def test_eval_trained_fc(self, tmp_path, capsys):
        main(["train", "--arch", "fc_classifier", "--epochs", "30", "--seed", "0",
              "--output-dir", str(tmp_path / "r"), "--emit", "checkpoint"])
        code = main(["eval", str(tmp_path / "r" / "checkpoint.txt"), "--seed", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "accuracy: 1.0000" in out

    def test_eval_missing_checkpoint_is_2(self, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "nope.txt")])
        assert code == EXIT_CONFIG

    def test_trace_subcommand(self, tmp_path, capsys):
        main(["train", "--arch", "fc_classifier", "--epochs", "5", "--seed", "0",
              "--output-dir", str(tmp_path / "r"), "--emit", "checkpoint"])
        code = main(["trace", "--checkpoint", str(tmp_path / "r" / "checkpoint.txt"),
                     "--glyph", "invz", "--out", str(tmp_path / "t")])
        assert code == EXIT_OK
        assert (tmp_path / "t" / "trace.csv").exists()
        assert (tmp_path / "t" / "waveform.csv").exists()

    def test_schedule_subcommand(self, capsys):
        code = main(["schedule", "--rows", "5", "--cols", "5"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["step_count"] == 3

    def test_schedule_usage_error(self, capsys):
        code = main(["schedule", "--rows", "2", "--cols", "5"])
        assert code == EXIT_CONFIG

    def test_fixtures_subcommand(self, tmp_path):
        code = main(["fixtures", "--out", str(tmp_path / "fx")])
        assert code == EXIT_OK
        files = sorted(p.name for p in (tmp_path / "fx").iterdir())
        assert "glyph_h_3.txt" in files
        assert "glyph_invz_5_capacitance.csv" in files
        assert len(files) == 16


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Short-trained FC and autoencoder checkpoint paths."""
    out = tmp_path_factory.mktemp("ckpts")
    paths = {}
    for arch in ("fc_classifier", "autoencoder"):
        code = main(["train", "--arch", arch, "--epochs", "3", "--emit", "checkpoint",
                     "--output-dir", str(out / arch)])
        assert code == EXIT_OK
        paths[arch] = str(out / arch / "checkpoint.txt")
    return paths


class TestInputErrors:
    def test_threads_key_is_unknown(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("architecture = fc_classifier\nthreads = 1\n")
        code = main(["train", "--config", str(cfgfile),
                     "--output-dir", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert "threads: unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,field", [
        ("sensor.c0=nan", "c0"),
        ("sensor.c_ih=inf", "c_ih"),
        ("train.learning_rate=inf", "learning_rate"),
        ("train.noise_frac=-inf", "noise_frac"),
    ])
    def test_non_finite_settings_exit_2(self, tmp_path, capsys, setting, field):
        code = main(["train", "--arch", "cnn_classifier", "--epochs", "2",
                     "--output-dir", str(tmp_path / "r"), "--set", setting])
        assert code == EXIT_CONFIG
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, capsys):
        out = tmp_path / "r"
        with np.errstate(all="ignore"):
            code = main(["train", "--arch", "cnn_classifier", "--output-dir", str(out),
                         "--set", "train.learning_rate=1e308",
                         "--emit", "history,checkpoint"])
        assert code == EXIT_DIVERGED
        assert "training diverged at epoch 1" in capsys.readouterr().err
        assert "diverged_at_epoch: 1" in (out / "manifest.txt").read_text().splitlines()

    def test_eval_sensor_override(self, checkpoints, capsys):
        assert main(["eval", checkpoints["fc_classifier"]]) == EXIT_OK
        default = capsys.readouterr().out
        code = main(["eval", checkpoints["fc_classifier"],
                     "--set", "sensor.noise_frac=0.0"])
        assert code == EXIT_OK
        assert capsys.readouterr().out != default

    @pytest.mark.parametrize("setting,field", [
        ("train.seed=1", "train.seed"),
        ("sensor.c0=nan", "c0"),
        ("sensor.c0=big", "sensor.c0"),
    ])
    def test_eval_bad_override_exits_2(self, checkpoints, capsys, setting, field):
        code = main(["eval", checkpoints["fc_classifier"], "--set", setting])
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("arch,flag,value", [
        ("fc_classifier", "--per-glyph", "0"),
        ("autoencoder", "--per-glyph", "0"),
        ("autoencoder", "--letters", "0"),
        ("fc_classifier", "--seed", "-1"),
    ])
    def test_eval_bad_counts_exit_2(self, checkpoints, capsys, arch, flag, value):
        code = main(["eval", checkpoints[arch], flag, value])
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err

    def test_eval_misshapen_checkpoint_exits_2(self, checkpoints, tmp_path, capsys):
        ck = load_checkpoint(checkpoints["autoencoder"])
        ck.matrices["decoder"] = ck.matrices["decoder"][:, :3]
        path = tmp_path / "ck.txt"
        netlab.save_checkpoint(ck, path)
        code = main(["eval", str(path)])
        assert code == EXIT_CONFIG
        assert "decoder" in capsys.readouterr().err


class TestEvaluate:
    def test_untrained_random_checkpoint_near_chance(self):
        rng = np.random.default_rng(0)
        ck = netlab.Checkpoint(
            architecture="fc_classifier", seed=0, epoch=0, beta=1.0,
            binarize=False, params=SensorParams(),
            matrices={"weights": rng.uniform(-1, 1, (4, 9))})
        accs = [evaluate(ck, seed=s)["accuracy"] for s in range(5)]
        assert 0.0 <= float(np.mean(accs)) <= 0.7

    def test_autoencoder_report_includes_letters(self, tmp_path):
        hist = netlab.train_autoencoder(default_config("autoencoder", seed=0))
        report = evaluate(hist.checkpoint, seed=1, letters=8)
        assert len(report["letters"]) == 8
        assert report["letters_correct"] >= 7
        for entry in report["letters"]:
            assert entry["mse"] >= 0
            assert entry["bitmap"].shape == (3, 3)


class TestRenderAscii:
    def test_clean_h_capacitance_matrix(self):
        h = dataset.letter_patterns(3)[0]
        sample = dataset.encode_capacitive(h, SensorParams())
        assert render_ascii(sample.c_i) == "#.#\n###\n#.#"

    def test_all_low_matrix_is_blank(self):
        mat = np.full((3, 3), 16.77)
        assert render_ascii(mat) == "...\n...\n..."

    def test_binary_matrix_threshold(self):
        assert render_ascii(np.eye(2)) == "#.\n.#"

    def test_induced_values_below_series_midpoint_are_blank(self):
        # The trained autoencoder's inverted-Z reconstruction: 57.2 and
        # 55.1 pF exceed the series midpoint (38.3 pF) but are induced
        # capacitances whose series value lies below it.
        mat = np.array([[498.2, 398.9, 479.7],
                        [57.2, 474.1, 55.1],
                        [474.1, 460.5, 469.6]])
        assert render_ascii(mat).splitlines()[1] == ".#."

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e3),
           st.floats(min_value=0.1, max_value=1e3),
           st.floats(min_value=1.01, max_value=100.0),
           st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=9, max_size=9))
    def test_matches_series_midpoint_classification(self, c0, c_il, ratio, values):
        params = SensorParams(c0=c0, c_il=c_il, c_ih=c_il * ratio)
        mat = np.array(values).reshape(3, 3)
        assume(not np.all(mat == 1.0))  # an all-ones matrix reads as binary
        c_h, c_l, _ = netlab.encoder_caps(params)
        mid = (c_h + c_l) / 2
        cs = series_capacitance(mat, params.c0)
        near = np.abs(cs - mid) <= 1e-9 * mid
        rendered = np.array([[ch == "#" for ch in row]
                             for row in render_ascii(mat, params).splitlines()])
        np.testing.assert_array_equal(rendered[~near], (cs >= mid)[~near])

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            render_ascii(np.zeros((17, 3)))


def test_write_pgm_scaling(tmp_path):
    mat = np.array([[16.77, 500.0]])
    path = tmp_path / "x.pgm"
    write_pgm(mat, path, lo=16.77, hi=500.0)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["P2", "2 1", "255"]
    assert lines[3] == "0 255"
