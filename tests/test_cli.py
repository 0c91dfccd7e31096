import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capmac import arrays, cli, dataset, metrics, netlab
from capmac.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, build_config, config_hash,
                        evaluate, main, parse_config_text, render_ascii, run, write_pgm)
from capmac.device import (MAX_CAPACITANCE_PF, MAX_CAPACITANCE_RATIO, SensorParams,
                           series_capacitance)
from capmac.netlab import (TrainingDiverged, default_config, load_checkpoint,
                           save_checkpoint, write_history_csv)

LOG_CAPACITANCE = st.floats(min_value=math.log(5e-324), max_value=math.log(MAX_CAPACITANCE_PF))


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
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("just words")

    def test_unknown_key_names_field(self):
        with pytest.raises(ValueError, match="train.momentum"):
            parse_config_text("train.momentum = 0.9")

    def test_bad_architecture(self):
        with pytest.raises(ValueError, match="architecture"):
            build_config({"architecture": "transformer"})

    def test_bad_value_names_field(self):
        with pytest.raises(ValueError, match="train.epochs"):
            build_config({"train.epochs": "many"})
        with pytest.raises(ValueError, match="train"):
            build_config({"train.epochs": "0"})

    def test_reconstruction_emit_needs_autoencoder(self):
        with pytest.raises(ValueError, match="reconstruction"):
            build_config({"architecture": "fc_classifier", "emit": "reconstruction"})

    def test_waveform_emit_rejected_for_cnn(self):
        with pytest.raises(ValueError, match="waveform"):
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


class TestRepeatedSettings:
    """A config line or --set item that repeats a key, names an unknown key or
    has no '=' is refused, naming its place and the key; --set and the train
    flags still override the config file."""

    def test_repeated_key_refused(self):
        # Regression: "train.seed = 1" then "train.seed = 2" gave seed 2.
        with pytest.raises(ValueError, match=r"^line 2: train\.seed is given twice$"):
            parse_config_text("train.seed = 1\ntrain.seed = 2")

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["config", "train", "eval"]),
           st.sampled_from(["repeat", "unknown key", "no separator"]), st.data())
    def test_any_repeated_setting_refused(self, checkpoints, tmp_path_factory, source,
                                          kind, data):
        # One bad line goes in at any position of a valid config file or of
        # the --set items of `capmac train` or `capmac eval` (sensor.* only).
        lines = cli.canonical_config_lines(build_config({}))
        if source == "eval":
            lines = [line for line in lines if line.startswith("sensor.")]
        keys = [line.partition(" = ")[0] for line in lines]
        key = data.draw(st.sampled_from(keys))
        value = data.draw(st.sampled_from(["0", "1", "true", "global", "0.5"]))
        at = data.draw(st.integers(0, len(lines)))
        if kind == "repeat":
            bad, line = f"{key} = {value}", max(at, keys.index(key) + 1) + 1
        elif kind == "unknown key":
            unknown = ["threads", "train.momentum", "sensor.gain"]
            if source == "eval":
                unknown += ["train.seed", "architecture"]
            key = data.draw(st.sampled_from(unknown))
            bad, line = f"{key} = {value}", at + 1
        else:  # a blank config line is skipped, a blank --set item is not
            bad = data.draw(st.sampled_from([key, f"{key}: {value}", "garbage"]
                                            + [""] * (source != "config")))
            line = at + 1
        where = f"line {line}" if source == "config" else "--set"
        message = {"repeat": f"{where}: {key} is given twice",
                   "unknown key": f"{where}: {key}: unknown configuration key",
                   "no separator": f"{where} expects KEY=VALUE, got {bad!r}"}[kind]
        lines.insert(at, bad)
        if source == "config":
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_config_text("\n".join(lines))
            return
        outdir = tmp_path_factory.getbasetemp() / "refused"
        argv = (["train", "--output-dir", str(outdir)] if source == "train"
                else ["eval", checkpoints["fc_classifier"]])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, *(arg for item in lines for arg in ("--set", item))])
        assert code == EXIT_CONFIG
        kind_of_error = "config" if source == "train" else "usage"
        assert err.getvalue() == f"{kind_of_error} error: {message}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("command,first,second", [
        ("train", "train.seed=1", "train.seed=2"), ("eval", "sensor.c0=70", "sensor.c0=71")])
    def test_repeated_set_item_exits_2(self, checkpoints, tmp_path, capsys, command, first,
                                       second):
        # Regression: the last of repeated --set items won.
        argv = (["train", "--output-dir", str(tmp_path / "r")] if command == "train"
                else ["eval", checkpoints["fc_classifier"]])
        assert main([*argv, "--set", first, "--set", second]) == EXIT_CONFIG
        key = first.partition("=")[0]
        assert f"--set: {key} is given twice" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_flags_still_override_the_config_file(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("train.seed = 1\ntrain.epochs = 9\n")
        code = main(["train", "--config", str(cfgfile), "--set", "train.epochs=2",
                     "--seed", "5", "--emit", "checkpoint",
                     "--output-dir", str(tmp_path / "r")])
        assert code == EXIT_OK
        ckpt = load_checkpoint(tmp_path / "r" / "checkpoint.txt")
        assert (ckpt.seed, ckpt.epoch) == (5, 2)


_CONFIG_KEYS = sorted(set(cli._TRAIN_KEYS) | set(cli._SENSOR_KEYS) | set(cli._TOP_KEYS)
                     | {"threads", "train.momentum", "train.noise_frac"})
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
    except ValueError:
        return
    assert cfg.architecture in netlab.ARCHITECTURES
    assert all(np.isfinite([cfg.train.learning_rate, cfg.sensor.c0, cfg.sensor.c_ih,
                            cfg.sensor.c_il, cfg.sensor.noise_frac]))
    assert cfg.train.batch_size <= dataset.MAX_DRAW
    assert cfg.train.eval_per_glyph * dataset.NUM_GLYPHS <= dataset.MAX_DRAW
    assert not cfg.train.binarize or netlab.MODELS[cfg.architecture].binarizes


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(cli.EMIT_CHOICES), max_size=12),
       st.sampled_from([",", ", ", " ,", " , "]))
def test_emit_spelling_leaves_config_hash_unchanged(names, separator):
    # Regression: "history,checkpoint", "checkpoint,history" and
    # "history,checkpoint,history" write the same artifacts but hashed apart,
    # and "history, checkpoint" was refused.
    cfg = build_config({"architecture": "autoencoder", "emit": separator.join(names)})
    assert cfg.emit == tuple(e for e in cli.EMIT_CHOICES if e in names)
    alphabetical = build_config({"architecture": "autoencoder",
                                 "emit": ",".join(sorted(set(names)))})
    assert config_hash(cfg) == config_hash(alphabetical)


class TestRun:
    def test_emits_requested_artifacts_and_manifest(self, tmp_path):
        cfg = build_config(fc_raw(tmp_path))
        artifacts = run(cfg)
        outdir = tmp_path / "run"
        assert (outdir / "history.csv").exists()
        assert (outdir / "checkpoint.txt").exists()
        assert (outdir / "manifest.txt").exists()
        names = [n for n, _ in artifacts]
        assert names == ["history.csv", "checkpoint.txt"]
        text = (outdir / "manifest.txt").read_text()
        assert "config_hash" in text
        assert "artifact: history.csv sha256" in text
        lines = text.splitlines()
        assert f"python: {platform.python_version()}" in lines
        assert f"numpy: {np.__version__}" in lines

    def test_empty_emit_writes_manifest_only(self, tmp_path):
        raw = fc_raw(tmp_path)
        raw["emit"] = ""
        artifacts = run(build_config(raw))
        outdir = tmp_path / "run"
        assert artifacts == []
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
        a1 = run(build_config(raw1))
        a2 = run(build_config(raw2))
        for name in ("history.csv", "checkpoint.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        assert dict(a1) == dict(a2)
        assert config_hash(build_config(raw1)) == config_hash(build_config(raw2))

    def test_waveform_and_schedule_artifacts(self, tmp_path):
        raw = fc_raw(tmp_path, emit="waveform,schedule,checkpoint")
        run(build_config(raw))
        outdir = tmp_path / "run"
        assert (outdir / "waveform.csv").exists()
        sched = json.loads((outdir / "schedule.json").read_text())
        assert sched["type"] == "fc_banks"
        assert sched["banks"] == 4
        assert (sched["step_count"], sched["adc_count"], sched["dac_count"]) == (1, 4, 36)
        assert (sched["latency_ns"], sched["energy_nJ"]) == (350.0, 0.9)
        # every bank reads every pixel in row-major order, as fc_forward does
        row_major = [[r, c] for r in range(3) for c in range(3)]
        assert sched["wiring"] == {str(m): row_major for m in range(4)}

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
        assert sched["adc_count"] == 3
        assert sched["dac_count"] == 9
        assert (sched["latency_ns"], sched["energy_nJ"]) == (1050.0, 2.7)
        assert sched == metrics.schedule_report(netlab.MODELS["cnn_classifier"].spec)

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
        def diverge(architecture, config, params):
            raise TrainingDiverged(1, netlab.TrainHistory())

        monkeypatch.setattr(netlab, "train", diverge)
        cfg = build_config(fc_raw(tmp_path))
        with pytest.raises(TrainingDiverged):
            run(cfg)
        text = (tmp_path / "run" / "manifest.txt").read_text()
        assert "diverged_at_epoch: 1" in text

    @pytest.mark.parametrize("emit,written", [
        ("history,waveform,schedule", ["checkpoint.txt", "history.csv"]),
        ("waveform,schedule", ["checkpoint.txt"]),
    ])
    def test_diverged_run_writes_last_good_state(self, tmp_path, monkeypatch, emit,
                                                 written):
        # A diverged run writes its last-good checkpoint whether or not it was
        # asked for, history.csv only if asked for, and nothing else.
        hist = netlab.train("fc_classifier", default_config("fc_classifier", epochs=2, seed=0))

        def diverge(architecture, config, params):
            raise TrainingDiverged(3, hist)

        monkeypatch.setattr(netlab, "train", diverge)
        with pytest.raises(TrainingDiverged):
            run(build_config(fc_raw(tmp_path, emit=emit)))
        outdir = tmp_path / "run"
        assert sorted(p.name for p in outdir.iterdir()) == written + ["manifest.txt"]
        lines = (outdir / "manifest.txt").read_text().splitlines()
        assert "diverged_at_epoch: 3" in lines
        listed = dict(line.split()[1::2] for line in lines if line.startswith("artifact: "))
        assert listed == {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                          for name in written}
        save_checkpoint(hist.checkpoint, tmp_path / "want_checkpoint.txt")
        write_history_csv(hist, tmp_path / "want_history.csv")
        for name in written:
            assert (outdir / name).read_bytes() == (tmp_path / f"want_{name}").read_bytes()


class TestMainExitCodes:
    def test_train_ok(self, tmp_path, capsys):
        code = main(["train", "--arch", "fc_classifier", "--epochs", "3",
                     "--seed", "0", "--output-dir", str(tmp_path / "r"),
                     "--emit", "history"])
        assert code == EXIT_OK
        assert "run complete" in capsys.readouterr().out

    def test_reused_parser_carries_nothing_between_calls(self, tmp_path):
        # The parser is built once per process; a flag of one call must not
        # become the default of the next.
        assert cli.build_parser() is cli.build_parser()
        common = ["train", "--arch", "fc_classifier", "--epochs", "2", "--emit", ""]
        assert main([*common, "--seed", "5", "--set", "train.batch_size=3",
                     "--output-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main([*common, "--output-dir", str(tmp_path / "b")]) == EXIT_OK
        lines = (tmp_path / "b" / "manifest.txt").read_text().splitlines()
        assert "seed: 0" in lines
        default_hash = config_hash(build_config(fc_raw(tmp_path, emit="",
                                                       **{"train.epochs": "2"})))
        assert f"config_hash: {default_hash}" in lines

    def test_misspelt_emit_is_2_naming_emit(self, tmp_path, capsys):
        # An unknown emit name must not be dropped: the run would write no
        # history and exit 0.
        code = main(["train", "--arch", "fc_classifier", "--epochs", "1", "--emit",
                     "histroy", "--output-dir", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert "config error: emit: 'histroy' is not one of" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_config_error_is_2(self, tmp_path, capsys):
        code = main(["train", "--arch", "fc_classifier",
                     "--output-dir", str(tmp_path / "r"),
                     "--set", "train.epochs=zero"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_divergence_is_3(self, tmp_path, monkeypatch, capsys):
        def diverge(architecture, config, params):
            raise TrainingDiverged(2, netlab.TrainHistory())

        monkeypatch.setattr(netlab, "train", diverge)
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
        capsys.readouterr()
        code = main(["trace", "--checkpoint", str(tmp_path / "r" / "checkpoint.txt"),
                     "--glyph", "invz", "--out", str(tmp_path / "t")])
        assert code == EXIT_OK
        assert (tmp_path / "t" / "trace.csv").exists()
        assert (tmp_path / "t" / "waveform.csv").exists()
        out = capsys.readouterr().out.splitlines()
        phases = cli.capture_fc_traces(load_checkpoint(tmp_path / "r" / "checkpoint.txt"),
                                       dataset.Glyph.INV_Z)
        outputs = phases[1][-1, :, 0].tolist()
        assert out[0] == "traced invz: outputs " + " ".join(f"{u:+.4f}" for u in outputs)
        assert out[1] == f"charge energy: {metrics.charge_energy(phases):.6f} nJ"

    def test_schedule_subcommand(self, capsys):
        code = main(["schedule", "--rows", "5", "--cols", "5"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["step_count"] == 3
        # the same report as the CNN's schedule.json
        assert data == metrics.schedule_report(netlab.MODELS["cnn_classifier"].spec)

    def test_schedule_usage_error(self, capsys):
        code = main(["schedule", "--rows", "2", "--cols", "5"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [("--kernel", "0"), ("--kernel", "-2"),
                                            ("--rows", "257"), ("--cols", "0")])
    def test_schedule_bad_geometry_exits_2_naming_flag(self, capsys, flag, value):
        code = main(["schedule", flag, value])
        assert code == EXIT_CONFIG
        assert f"usage error: {flag} must be in" in capsys.readouterr().err

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["--rows", "--cols", "--kernel"]),
           st.one_of(st.integers(min_value=-10 ** 40, max_value=0),
                     st.integers(min_value=arrays.MAX_CONV_SIDE + 1, max_value=10 ** 40)))
    def test_schedule_huge_geometry_exits_2(self, flag, value):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["schedule", flag, str(value)])
        assert code == EXIT_CONFIG
        assert f"{flag} must be in" in err.getvalue()
        assert out.getvalue() == ""

    def test_fixtures_subcommand(self, tmp_path):
        code = main(["fixtures", "--out", str(tmp_path / "fx")])
        assert code == EXIT_OK
        files = sorted(p.name for p in (tmp_path / "fx").iterdir())
        assert "glyph_h_3.txt" in files
        assert "glyph_invz_5_capacitance.csv" in files
        assert len(files) == 16


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Short-trained checkpoint paths, one per architecture."""
    out = tmp_path_factory.mktemp("ckpts")
    paths = {}
    for arch in netlab.ARCHITECTURES:
        code = main(["train", "--arch", arch, "--epochs", "3", "--emit", "checkpoint",
                     "--output-dir", str(out / arch)])
        assert code == EXIT_OK
        paths[arch] = str(out / arch / "checkpoint.txt")
    return paths


class TestInputErrors:
    def test_threads_key_is_unknown(self, tmp_path, capsys):
        # Neither is a setting: numpy's threads are the environment's, and
        # the noise level is sensor.noise_frac, the one a checkpoint records.
        for key, value in (("threads", "1"), ("train.noise_frac", "0")):
            cfgfile = tmp_path / "exp.cfg"
            cfgfile.write_text(f"architecture = fc_classifier\n{key} = {value}\n")
            code = main(["train", "--config", str(cfgfile),
                         "--output-dir", str(tmp_path / "r")])
            assert code == EXIT_CONFIG
            assert f"{key}: unknown configuration key" in capsys.readouterr().err
            assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("setting,field", [
        ("sensor.c0=nan", "c0"),
        ("sensor.c_ih=inf", "c_ih"),
        ("train.learning_rate=inf", "learning_rate"),
        ("sensor.noise_frac=-inf", "noise_frac"),
    ])
    def test_non_finite_settings_exit_2(self, tmp_path, capsys, setting, field):
        code = main(["train", "--arch", "cnn_classifier", "--epochs", "2",
                     "--output-dir", str(tmp_path / "r"), "--set", setting])
        assert code == EXIT_CONFIG
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,field", [
        ("sensor.noise_frac=-0.2", "noise_frac"),
        ("sensor.noise_frac=1e308", "noise_frac"),
        (f"train.epochs={netlab.MAX_EPOCHS + 1}", "epochs"),
        ("sensor.c_ih=1e307", "c_ih"),
        ("sensor.c0=1e307", "c0"),
        ("train.learning_rate=1e308", "learning_rate"),
    ])
    def test_out_of_range_settings_exit_2(self, tmp_path, capsys, setting, field):
        code = main(["train", "--output-dir", str(tmp_path / "r"), "--set", setting])
        assert code == EXIT_CONFIG
        assert f"{field} must be in" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        # The config refuses this rate; lift the bound to make the CNN's
        # outputs overflow for real.
        monkeypatch.setattr(netlab, "MAX_LEARNING_RATE", 1e308)
        out = tmp_path / "r"
        with np.errstate(all="ignore"):
            code = main(["train", "--arch", "cnn_classifier", "--output-dir", str(out),
                         "--set", "train.learning_rate=1e308",
                         "--emit", "history,checkpoint"])
        assert code == EXIT_DIVERGED
        assert "training diverged at epoch 1" in capsys.readouterr().err
        assert "diverged_at_epoch: 1" in (out / "manifest.txt").read_text().splitlines()

    @pytest.mark.parametrize("c0,c_ih", [("1e-12", "1e5"), ("1e-300", "1e6")])
    def test_series_capacitance_at_c0_exits_2(self, tmp_path, capsys, c0, c_ih):
        # C_H = c_ih c0/(c_ih + c0) rounds to c0 here; the autoencoder used
        # to end in an AssertionError.
        code = main(["train", "--arch", "autoencoder", "--epochs", "40",
                     "--output-dir", str(tmp_path / "r"),
                     "--set", f"sensor.c0={c0}", "--set", f"sensor.c_ih={c_ih}"])
        assert code == EXIT_CONFIG
        assert "c_ih must be at most" in capsys.readouterr().err

    def test_underflowing_capacitance_exits_2(self, tmp_path, capsys):
        # c_i * c0 underflows to 0 here; training used to end in a ValueError.
        code = main(["train", "--arch", "fc_classifier", "--epochs", "2",
                     "--output-dir", str(tmp_path / "r"),
                     "--set", "sensor.c0=1e-50", "--set", "sensor.c_ih=1e-284",
                     "--set", "sensor.c_il=1e-294", "--set", "sensor.noise_frac=0"])
        assert code == EXIT_CONFIG
        assert "c_il must be at least" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(netlab.ARCHITECTURES), LOG_CAPACITANCE, LOG_CAPACITANCE,
           st.floats(min_value=-math.log(MAX_CAPACITANCE_RATIO),
                     max_value=math.log(MAX_CAPACITANCE_RATIO)),
           st.sampled_from(["0", "0.2"]))
    def test_any_capacitances_train_or_exit_cleanly(self, arch, log_a, log_b, log_ratio,
                                                    noise_frac):
        # Log-uniform c_il < c_ih, and c0 within MAX_CAPACITANCE_RATIO of c_ih
        # either way, so that most draws pass the other checks.
        c_il, c_ih = sorted(min(math.exp(x), MAX_CAPACITANCE_PF) for x in (log_a, log_b))
        c0 = min(c_ih / math.exp(log_ratio), MAX_CAPACITANCE_PF)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--arch", arch, "--epochs", "2", "--output-dir", out,
                         "--emit", "history,checkpoint",
                         "--set", f"sensor.c0={c0!r}", "--set", f"sensor.c_ih={c_ih!r}",
                         "--set", f"sensor.c_il={c_il!r}",
                         "--set", f"sensor.noise_frac={noise_frac}"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
        # Only the sensor settings vary, so only they may be refused.
        assert code != EXIT_CONFIG or err.getvalue().startswith("config error: sensor:")

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=math.log(5e-324), max_value=math.log(MAX_CAPACITANCE_PF)),
           st.floats(min_value=math.log(5e-324), max_value=math.log(MAX_CAPACITANCE_PF)))
    def test_any_sensor_ratio_trains_or_exits_cleanly(self, log_c0, log_c_ih):
        c0 = min(math.exp(log_c0), MAX_CAPACITANCE_PF)
        c_ih = min(math.exp(log_c_ih), MAX_CAPACITANCE_PF)
        with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["train", "--arch", "autoencoder", "--epochs", "2",
                         "--output-dir", out, "--emit", "history,checkpoint",
                         "--set", f"sensor.c0={c0!r}", "--set", f"sensor.c_ih={c_ih!r}"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)

    def test_eval_into_closed_pipe_exits_without_traceback(self, checkpoints):
        # As `capmac eval ... | head -3`: the reader leaves after three lines.
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "capmac.cli", "eval", checkpoints["autoencoder"],
             "--letters", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        for _ in range(3):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert err == b""
        assert code == cli.EXIT_CLOSED_STDOUT

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
        ("sensor.noise_frac=1e306", "noise_frac"),
        ("sensor.c0=1e307", "c0 must be in"),
        ("sensor.c_ih=1e307", "c_ih must be in"),
        ("sensor.c0=-1", f"usage error: --set: c0 must be in (0, {MAX_CAPACITANCE_PF}] pF"),
    ])
    def test_eval_bad_override_exits_2(self, checkpoints, capsys, setting, field):
        code = main(["eval", checkpoints["fc_classifier"], "--set", setting])
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["checkpoint", "eval", "train"]),
           st.sampled_from(netlab.field_keys(SensorParams, "sensor.")),
           st.sampled_from(["x", "", "-1", "0", "nan", "-inf", "1e400"]))
    def test_any_bad_sensor_value_refused_naming_input(self, checkpoints, tmp_path_factory,
                                                       source, key, value):
        # Each value either does not parse or is one SensorParams refuses
        # (noise_frac = 0 is the only valid one; it is skipped). The refusal
        # begins with the input it came from and names the field.
        assume(not (key == "sensor.noise_frac" and value == "0"))
        if source == "checkpoint":
            path = tmp_path_factory.getbasetemp() / "bad_sensor.txt"
            lines = Path(checkpoints["fc_classifier"]).read_text().splitlines()
            path.write_text("\n".join(f"{key}: {value}" if line.startswith(f"{key}:")
                                      else line for line in lines) + "\n")
            with pytest.raises(ValueError) as exc:
                load_checkpoint(path)
            message, where = str(exc.value), f"{path}: "
        else:
            outdir = tmp_path_factory.getbasetemp() / "refused"
            argv = (["train", "--output-dir", str(outdir)] if source == "train"
                    else ["eval", checkpoints["fc_classifier"]])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--set", f"{key}={value}"])
            assert code == EXIT_CONFIG
            assert not outdir.exists()
            message = err.getvalue()
            where = ("config error: sensor: " if source == "train"
                     else "usage error: --set: ")
        assert message.startswith(where)
        assert key.removeprefix("sensor.") in message[len(where):]

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_non_utf8_checkpoint_exits_2_naming_file(self, checkpoints, tmp_path, capsys,
                                                     command):
        # Regression: the refusal named the codec and the byte, not the file.
        lines = Path(checkpoints["fc_classifier"]).read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path = tmp_path / "ck.txt"
        path.write_bytes(b"\n".join(lines))
        argv = (["eval", str(path)] if command == "eval"
                else ["trace", "--checkpoint", str(path), "--out", str(tmp_path / "t")])
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"usage error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "t").exists()

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

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["train.batch_size", "train.eval_per_glyph"]),
           st.integers(min_value=dataset.MAX_DRAW + 1, max_value=10 ** 40))
    def test_huge_sample_counts_rejected_naming_field(self, key, value):
        with pytest.raises(ValueError, match=key.split(".")[1]):
            build_config({key: str(value)})

    @pytest.mark.parametrize("key,most", [("train.batch_size", dataset.MAX_DRAW),
                                          ("train.eval_per_glyph", dataset.MAX_DRAW // 4),
                                          ("train.epochs", netlab.MAX_EPOCHS)])
    def test_sample_count_limits(self, key, most):
        build_config({key: str(most)})
        with pytest.raises(ValueError, match=key.split(".")[1]):
            build_config({key: str(most + 1)})

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["--per-glyph", "--letters"]),
           st.integers(min_value=dataset.MAX_DRAW + 1, max_value=10 ** 40))
    def test_eval_huge_counts_exit_2(self, flag, value):
        # The flags are checked before the checkpoint is read.
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["eval", "no-such-checkpoint.txt", flag, str(value)])
        assert code == EXIT_CONFIG
        assert flag in err.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([("--per-glyph", "eval_per_glyph"), ("--seed", "seed")]),
           st.one_of(st.integers(min_value=-3, max_value=dataset.MAX_DRAW // 4 + 3),
                     st.integers(min_value=-10 ** 40, max_value=10 ** 40)))
    def test_eval_flags_bounded_as_train_config(self, checkpoints, flag_field, value):
        # `capmac eval` refuses exactly the values that training refuses.
        flag, field = flag_field
        try:
            default_config("fc_classifier", **{field: value})
            refused = False
        except ValueError:
            refused = True
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["eval", checkpoints["fc_classifier"], flag, str(value)])
        assert (code == EXIT_CONFIG) == refused
        assert (flag in err.getvalue()) == refused

    @pytest.mark.parametrize("arch", ["autoencoder", "cnn_classifier"])
    def test_binarize_needs_fc(self, tmp_path, capsys, arch):
        code = main(["train", "--arch", arch, "--output-dir", str(tmp_path / "r"),
                     "--set", "train.binarize=true"])
        assert code == EXIT_CONFIG
        assert "train.binarize" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_trace_programs_autoencoder_encoder_normalized(self, checkpoints, tmp_path,
                                                           capsys):
        ck = load_checkpoint(checkpoints["autoencoder"])
        ck.binarize = True
        path = tmp_path / "ck.txt"
        netlab.save_checkpoint(ck, path)
        outputs = []
        for ckpt in (checkpoints["autoencoder"], str(path)):
            assert main(["trace", "--checkpoint", ckpt, "--out", str(tmp_path)]) == EXIT_OK
            outputs.append(capsys.readouterr().out.splitlines()[0])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("via_config", [False, True])
    def test_train_unwritable_output_dir_exits_2(self, tmp_path, capsys, via_config):
        (tmp_path / "file").write_text("")
        argv = ["train", "--arch", "fc_classifier", "--epochs", "1"]
        if via_config:
            cfgfile = tmp_path / "exp.cfg"
            cfgfile.write_text(f"output_dir = {tmp_path / 'file' / 'x'}\n")
            argv += ["--config", str(cfgfile)]
        else:
            argv += ["--output-dir", str(tmp_path / "file" / "x")]
        assert main(argv) == EXIT_CONFIG
        assert "output_dir" in capsys.readouterr().err

    def test_train_malformed_config_file_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("just words\n")
        code = main(["train", "--config", str(cfgfile), "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "line 1" in capsys.readouterr().err

    def test_train_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_bytes(b"train.epochs = 2\n\xff\xfe = 1\n")
        code = main(["train", "--config", str(cfgfile), "--output-dir", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --config: ")
        assert not (tmp_path / "r").exists()

    def test_config_file_with_byte_order_mark_reads_alike(self, tmp_path, monkeypatch):
        # Regression: a leading UTF-8 byte-order mark was read as part of the
        # first key, so "architecture" was refused as an unknown key.
        built = []
        monkeypatch.setattr(cli, "run", lambda config: built.append(config) or [])
        text = "architecture = autoencoder\ntrain.epochs = 2\n"
        for name, data in (("plain.cfg", text.encode()), ("bom.cfg", text.encode("utf-8-sig"))):
            (tmp_path / name).write_bytes(data)
            assert main(["train", "--config", str(tmp_path / name)]) == EXIT_OK
        assert built[0] == built[1]
        assert built[0].architecture == "autoencoder"

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=200))
    def test_any_config_file_bytes_train_or_exit_cleanly(self, contents):
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cfgfile = Path(tmp) / "exp.cfg"
            cfgfile.write_bytes(contents)
            code = main(["train", "--config", str(cfgfile), "--epochs", "1",
                         "--output-dir", str(Path(tmp) / "r")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)

    def test_trace_unwritable_out_exits_2(self, checkpoints, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["trace", "--checkpoint", checkpoints["fc_classifier"],
                     "--out", str(tmp_path / "file" / "z")])
        assert code == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err

    def test_trace_cnn_checkpoint_exits_2(self, checkpoints, tmp_path, capsys):
        code = main(["trace", "--checkpoint", checkpoints["cnn_classifier"],
                     "--out", str(tmp_path / "t")])
        assert code == EXIT_CONFIG
        assert "FC bank readout only" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_trace_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code = main(["trace", "--checkpoint", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "t")])
        assert code == EXIT_CONFIG
        assert "nope.txt" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_malformed_set_item_exits_2(self, checkpoints, tmp_path, capsys, command):
        argv = (["train", "--output-dir", str(tmp_path / "r")] if command == "train"
                else ["eval", checkpoints["fc_classifier"]])
        assert main([*argv, "--set", "sensor.c0"]) == EXIT_CONFIG
        assert "--set expects KEY=VALUE, got 'sensor.c0'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("geometry", [[], ["--rows", "7", "--cols", "9"]])
    def test_schedule_out_writes_the_printed_bytes(self, tmp_path, capsys, geometry):
        assert main(["schedule", *geometry]) == EXIT_OK
        printed = capsys.readouterr().out
        path = tmp_path / "s.json"
        assert main(["schedule", *geometry, "--out", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert path.read_bytes() == printed.encode()

    def test_schedule_unwritable_out_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["schedule", "--out", str(tmp_path / "file" / "s.json")])
        assert code == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err

    def test_fixtures_unwritable_out_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["fixtures", "--out", str(tmp_path / "file" / "y")])
        assert code == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err

    def test_eval_misshapen_checkpoint_exits_2(self, checkpoints, tmp_path, capsys):
        ck = load_checkpoint(checkpoints["autoencoder"])
        ck.matrices["decoder"] = ck.matrices["decoder"][:, :3]
        path = tmp_path / "ck.txt"
        netlab.save_checkpoint(ck, path)
        code = main(["eval", str(path)])
        assert code == EXIT_CONFIG
        assert "decoder" in capsys.readouterr().err

    def test_eval_checkpoint_with_edited_beta_exits_2(self, checkpoints, tmp_path, capsys):
        # The file's beta must be the one train writes, the divisor of its
        # first matrix; an edited beta used to load and evaluate silently.
        text = Path(checkpoints["fc_classifier"]).read_text()
        beta_line = next(line for line in text.splitlines() if line.startswith("beta: "))
        path = tmp_path / "ck.txt"
        path.write_text(text.replace(beta_line, "beta: 5.0"))
        assert main(["eval", str(path)]) == EXIT_CONFIG
        assert "beta must be" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", ["matrix weights 4", "abc"],
                             ids=["short header", "non-numeric entry"])
    def test_eval_malformed_matrix_names_file_and_matrix(self, checkpoints, tmp_path,
                                                         capsys, broken):
        # Either the header loses its column count or the first entry of the
        # matrix's first row becomes text.
        lines = Path(checkpoints["fc_classifier"]).read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("matrix "))
        if broken.startswith("matrix "):
            lines[at] = broken
        else:
            lines[at + 1] = " ".join([broken] + lines[at + 1].split()[1:])
        header = lines[at]
        path = tmp_path / "ck.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(path)]) == EXIT_CONFIG
        assert f"{path}: malformed matrix block '{header}'" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(netlab.ARCHITECTURES),
       st.one_of(st.tuples(st.just("seed"), st.integers(max_value=-1)),
                 st.tuples(st.just("epoch"), st.one_of(
                     st.integers(max_value=0), st.integers(min_value=netlab.MAX_EPOCHS + 1)))))
def test_header_train_never_writes_is_refused(checkpoints, tmp_path_factory, arch, bad):
    # Regression: a negative seed and an epoch below 1 or above MAX_EPOCHS
    # loaded, and `capmac eval` scored the file and exited 0.
    key, value = bad
    message = {"seed": "seed must be in [0, inf]",
               "epoch": "epoch must be in [1, 100000]"}[key]
    good = load_checkpoint(checkpoints[arch])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        netlab.Checkpoint(**{**vars(good), key: value})
    path = tmp_path_factory.getbasetemp() / "out_of_bounds.txt"
    lines = Path(checkpoints[arch]).read_text().splitlines()
    path.write_text("\n".join(f"{key}: {value}" if line.startswith(f"{key}: ") else line
                              for line in lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_checkpoint(path)
    outdir = tmp_path_factory.getbasetemp() / "out_of_bounds_trace"
    for argv in (["eval", str(path)], ["trace", "--checkpoint", str(path),
                                       "--out", str(outdir)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == EXIT_CONFIG
        assert err.getvalue() == f"usage error: {path}: {message}\n"
    assert not outdir.exists()


class TestEvaluate:
    def test_untrained_random_checkpoint_near_chance(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, (4, 9))
        ck = netlab.Checkpoint(
            architecture="fc_classifier", seed=0, epoch=1,
            beta=netlab.programmed_weights(v)[1], binarize=False, params=SensorParams(),
            matrices={"weights": v})
        accs = [evaluate(ck, seed=s)["accuracy"] for s in range(5)]
        assert 0.0 <= float(np.mean(accs)) <= 0.7

    def test_autoencoder_report_includes_letters(self, tmp_path):
        hist = netlab.train("autoencoder", default_config("autoencoder", seed=0))
        report = evaluate(hist.checkpoint, seed=1, letters=8)
        assert len(report["letters"]) == 8
        assert report["letters_correct"] >= 7
        for entry in report["letters"]:
            assert entry["mse"] >= 0
            assert entry["bitmap"].shape == (3, 3)


def test_eval_defaults_reproduce_a_one_epoch_history_row():
    # `capmac eval` at the evaluation stream's seed and its default
    # --per-glyph scores the letters that a run's first epoch scored at its
    # defaults; later epochs draw further along the stream.
    hist = netlab.train("autoencoder", default_config("autoencoder", epochs=1, seed=3))
    report = evaluate(hist.checkpoint, seed=3 + netlab.EVAL_SEED_OFFSET)
    assert report["accuracy"] == hist.accuracy[-1]
    np.testing.assert_array_equal(report["mean_outputs"].view(np.uint64),
                                  hist.mean_outputs[-1].view(np.uint64))


# Ids: the seed, and the noise level where it is not the paper's 0.2.
@pytest.mark.parametrize("seed,noise_frac", [
    pytest.param(seed, noise_frac, id=str(seed) if noise_frac == 0.2
                 else f"{seed}-noise{noise_frac}")
    for noise_frac in (0.2, 0.0, 0.05) for seed in (0, 5)])
@pytest.mark.parametrize("arch,binarize", [("fc_classifier", False),
                                           ("fc_classifier", True),
                                           ("autoencoder", False),
                                           ("cnn_classifier", False)])
def test_training_eval_equals_capmac_eval(arch, binarize, seed, noise_frac):
    # The last epoch's evaluation in netlab.train and `capmac eval` of the
    # checkpoint at the evaluation stream's seed score the same letters at
    # the same noise level, the one the checkpoint records.
    cfg = default_config(arch, epochs=1, seed=seed, binarize=binarize)
    hist = netlab.train(arch, cfg, SensorParams(noise_frac=noise_frac))
    assert hist.checkpoint.params.noise_frac == noise_frac
    report = evaluate(hist.checkpoint, seed=seed + netlab.EVAL_SEED_OFFSET,
                      per_glyph=cfg.eval_per_glyph)
    assert report["accuracy"] == hist.accuracy[-1]
    np.testing.assert_array_equal(report["mean_outputs"].view(np.uint64),
                                  hist.mean_outputs[-1].view(np.uint64))


def _bits(c_i, params=SensorParams()):
    """The bitmap `netlab.classify_series_bits` reads from induced
    capacitances c_i, in c_i's shape. Its threshold is per pixel, so each
    pixel goes in as a one-pixel row."""
    cs = series_capacitance(np.asarray(c_i, dtype=float), params.c0)
    return netlab.classify_series_bits(cs.reshape(-1, 1), params)[1].reshape(cs.shape)


class TestRenderAscii:
    def test_clean_h_capacitance_matrix(self):
        c_i = dataset.encode_capacitive(dataset.GRIDS[3][0], SensorParams())
        assert render_ascii(_bits(c_i)) == "#.#\n###\n#.#"

    def test_all_low_matrix_is_blank(self):
        mat = np.full((3, 3), 16.77)
        assert render_ascii(_bits(mat)) == "...\n...\n..."

    def test_binary_matrix_threshold(self):
        assert render_ascii(np.eye(2)) == "#.\n.#"

    def test_one_picofarad_pixels_are_blank(self):
        # 1 pF is far below the series midpoint, so its bits are all 0.
        assert render_ascii(_bits(np.ones((2, 2)))) == "..\n.."

    def test_induced_values_below_series_midpoint_are_blank(self):
        # The trained autoencoder's inverted-Z reconstruction: 57.2 and
        # 55.1 pF exceed the series midpoint (38.3 pF) but are induced
        # capacitances whose series value lies below it.
        mat = np.array([[498.2, 398.9, 479.7],
                        [57.2, 474.1, 55.1],
                        [474.1, 460.5, 469.6]])
        cs = series_capacitance(mat, SensorParams().c0).reshape(1, -1)
        _, bits = netlab.classify_series_bits(cs, SensorParams())
        assert render_ascii(bits.reshape(3, 3)).splitlines()[1] == ".#."

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e3),
           st.floats(min_value=0.1, max_value=1e3),
           st.floats(min_value=1.01, max_value=100.0),
           st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=9, max_size=9))
    def test_matches_series_midpoint_classification(self, c0, c_il, ratio, values):
        params = SensorParams(c0=c0, c_il=c_il, c_ih=c_il * ratio)
        mat = np.array(values).reshape(3, 3)
        c_h, c_l, _ = netlab.encoder_caps(params)
        cs = series_capacitance(mat, params.c0)
        rendered = np.array([[ch == "#" for ch in row]
                             for row in render_ascii(_bits(mat, params)).splitlines()])
        np.testing.assert_array_equal(rendered, cs >= (c_h + c_l) / 2)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            render_ascii(np.zeros((17, 3)))

    @pytest.mark.parametrize("matrix", [np.full((3, 3), 500.0), [[0, 2]], [[0.5, 1]]])
    def test_rejects_values_other_than_0_and_1(self, matrix):
        with pytest.raises(ValueError, match="0/1 bitmaps"):
            render_ascii(matrix)


def test_write_pgm_scaling(tmp_path):
    mat = np.array([[16.77, 500.0]])
    path = tmp_path / "x.pgm"
    write_pgm(mat, path, lo=16.77, hi=500.0)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["P2", "2 1", "255"]
    assert lines[3] == "0 255"
