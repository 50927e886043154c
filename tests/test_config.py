import hashlib

import pytest

from waveflow.config import COMMANDS, ConfigError, parse_command_config

from helpers import USABLE_CORES


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_defaults_fill_in(self, tmp_path):
        path = write(tmp_path, "[run]\nout = outdir\n")
        cfg = parse_command_config("synth", path)
        assert cfg.get("run", "out") == "outdir"
        assert cfg.get("run", "threads") == USABLE_CORES
        assert cfg.get("synth", "image_size") == 32
        assert cfg.get("synth", "brightness") == (0.62, 0.88)
        assert cfg.get("synth.ood", "hair_strokes") == (0, 2)

    def test_values_parse_types(self, tmp_path):
        path = write(
            tmp_path,
            "[run]\nout = o\n[synth]\nimage_size = 16\nbrightness = 0.5, 0.9\n"
            "[synth.in_dist]\nhair_strokes = 1, 4\n",
        )
        cfg = parse_command_config("synth", path)
        assert cfg.get("synth", "image_size") == 16
        assert cfg.get("synth", "brightness") == (0.5, 0.9)
        assert cfg.get("synth.in_dist", "hair_strokes") == (1, 4)

    def test_bool_and_list_values(self, tmp_path):
        path = write(
            tmp_path,
            "[run]\nout = o\n[train]\ndataset = d\n[training]\naugment = false\ndequantize = yes\n",
        )
        cfg = parse_command_config("train", path)
        assert cfg.get("training", "augment") is False
        assert cfg.get("training", "dequantize") is True
        path2 = write(tmp_path, "[run]\nout = o\n[baseline]\ndataset = d\nlevels = 3, 4\n", "b.ini")
        assert parse_command_config("baseline", path2).get("baseline", "levels") == (3, 4)

    def test_inline_comments(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o  # keep\n[synth]\nseed = 7  # lucky\n")
        cfg = parse_command_config("synth", path)
        assert cfg.get("synth", "seed") == 7


class TestRejection:
    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_command_config("synth", path)

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n[synth]\nimage_sise = 32\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_command_config("synth", path)

    def test_missing_required(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n")
        with pytest.raises(ConfigError, match="missing required key 'dataset'"):
            parse_command_config("train", path)

    def test_bad_value(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n[synth]\nimage_size = thirty\n")
        with pytest.raises(ConfigError, match=r"\[synth\] image_size"):
            parse_command_config("synth", path)
        for text in ("nan", "inf", "-inf", "NaN"):
            path = write(tmp_path, f"[run]\nout = o\n[train]\ndataset = d\n[training]\nlearning_rate = {text}\n")
            with pytest.raises(ConfigError, match=r"\[training\] learning_rate: expected a finite number"):
                parse_command_config("train", path)
        # Counts must be >= 1 and the sampling temperature > 0.
        train = "[run]\nout = o\n[train]\ndataset = d\n"
        for command, text, name in [
            ("synth", "[run]\nout = o\nthreads = 0\n", r"\[run\] threads"),
            ("synth", "[run]\nout = o\n[synth]\ntrain_in_dist = 0\n", r"\[synth\] train_in_dist"),
            ("synth", "[run]\nout = o\n[synth]\ntest_in_dist = -3\n", r"\[synth\] test_in_dist"),
            ("synth", "[run]\nout = o\n[synth]\ntest_ood = 0\n", r"\[synth\] test_ood"),
            ("synth", "[run]\nout = o\n[synth]\nimage_size = 12\n", r"\[synth\] image_size"),
            ("synth", "[run]\nout = o\n[synth]\nimage_size = 2\n", r"\[synth\] image_size"),
            ("synth", "[run]\nout = o\n[synth]\nimage_size = -8\n", r"\[synth\] image_size"),
            ("train", train + "K = 0\n", r"\[train\] K"),
            ("train", train + "L = -1\n", r"\[train\] L"),
            ("train", train + "hidden = 0\n", r"\[train\] hidden"),
            ("train", train + "[training]\nbatch_size = 0\n", r"\[training\] batch_size"),
            ("train", train + "[training]\nmax_epochs = 0\n", r"\[training\] max_epochs"),
            ("train", train + "[training]\npatience = 0\n", r"\[training\] patience"),
            ("eval", "[run]\nout = o\n[eval]\nscores = s\nbins = 0\n", r"\[eval\] bins"),
            ("baseline", "[run]\nout = o\n[baseline]\ndataset = d\nbins = 0\n", r"\[baseline\] bins"),
            ("sample", "[run]\nout = o\n[sample]\ncheckpoint = c\ncount = -2\n", r"\[sample\] count"),
            ("sample", "[run]\nout = o\n[sample]\ncheckpoint = c\ntemperature = 0\n", r"\[sample\] temperature"),
            ("sample", "[run]\nout = o\n[sample]\ncheckpoint = c\ntemperature = -0.5\n", r"\[sample\] temperature"),
        ]:
            with pytest.raises(ConfigError, match=rf"bad value for {name}: expected"):
                parse_command_config(command, write(tmp_path, text))

    def test_bad_pair(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n[synth]\nbrightness = 0.5\n")
        with pytest.raises(ConfigError, match="brightness"):
            parse_command_config("synth", path)

    def test_missing_out(self, tmp_path):
        path = write(tmp_path, "[synth]\nseed = 1\n")
        with pytest.raises(ConfigError, match="output directory"):
            parse_command_config("synth", path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_command_config("synth", tmp_path / "absent.ini")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[run]\nout = caf\xe9\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            parse_command_config("synth", path)

    def test_bad_threads(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\nthreads = 0\n")
        with pytest.raises(ConfigError, match="threads"):
            parse_command_config("synth", path)

    def test_unknown_command(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n")
        with pytest.raises(ConfigError, match="unknown command"):
            parse_command_config("deploy", path)


class TestOverrides:
    def test_out_seed_threads(self, tmp_path):
        path = write(tmp_path, "[run]\nout = a\n[synth]\nseed = 1\n")
        cfg = parse_command_config("synth", path, out="b", seed=9, threads=4)
        assert cfg.get("run", "out") == "b"
        assert cfg.get("run", "threads") == 4
        assert cfg.get("synth", "seed") == 9

    def test_seed_override_lands_on_training(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n[train]\ndataset = d\n")
        cfg = parse_command_config("train", path, seed=5)
        assert cfg.get("training", "seed") == 5

    def test_seedless_command_rejects_seed(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n[eval]\nscores = s.csv\n")
        with pytest.raises(ConfigError, match="no --seed"):
            parse_command_config("eval", path, seed=1)


class TestResolvedText:
    def test_round_trips_through_parser(self, tmp_path):
        path = write(
            tmp_path,
            "[run]\nout = outdir\nthreads = 2\n[synth]\nimage_size = 16\nseed = 4\n",
        )
        cfg = parse_command_config("synth", path)
        echoed = write(tmp_path, cfg.text(), "echo.ini")
        again = parse_command_config("synth", echoed)
        assert again.values == cfg.values

    def test_covers_every_schema_key(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n[train]\ndataset = d\n")
        text = parse_command_config("train", path).text()
        for needle in ("[run]", "[train]", "[training]", "mask_strategy", "patience"):
            assert needle in text

    # SHA-256 of the text each command resolves from a config that sets only
    # [run] out and the command's required keys: it pins every default.  The
    # threads line is the usable core count, checked exactly, and hashed as
    # "threads = 1" so the digests hold on every machine.
    MINIMAL = {
        "synth": "",
        "train": "[train]\ndataset = d\n",
        "score": "[score]\ndataset = d\ncheckpoint = c\n",
        "eval": "[eval]\nscores = s\n",
        "baseline": "[baseline]\ndataset = d\n",
        "sample": "[sample]\ncheckpoint = c\n",
    }
    DEFAULT_TEXT_SHA256 = {
        "synth": "25bf0351748efcfd2c144539ca5e55e1df86f49a00b8f078740a52e25d3e5cc2",
        "train": "814295b9540a406479c305c16381491ca45ac263749945deec06ae70b1777a86",
        "score": "2a3d941200bb6227ce502482ee7c83bee3d1601807cf4be1ad5c62136e2e151b",
        "eval": "65ddd9de3bf1eef681b787e9c6e67b2fc20c8aecb16c35d97d4ec1249193838f",
        "baseline": "892e5dd01e415cfeccbafacbd65b25cb7b02e0c96c196baf12da800722a9cb8a",
        "sample": "bcec302e754dabcb33ee93d1d793e0b85edbd32c34950a1f1da58581cfa5fd4c",
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_rendering_is_pinned(self, command, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n" + self.MINIMAL[command])
        lines = parse_command_config(command, path).text().split("\n")
        lines[lines.index(f"threads = {USABLE_CORES}")] = "threads = 1"
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DEFAULT_TEXT_SHA256[command], text

    def test_section_is_keyword_arguments_in_schema_order(self, tmp_path):
        path = write(tmp_path, "[run]\nout = o\n[synth.ood]\ntexture = 0.5\n")
        section = parse_command_config("synth", path).section("synth.ood")
        assert list(section) == [
            "radius", "contrast", "edge_width", "shading", "border_irregularity", "texture", "hair_strokes",
        ]
        assert section["texture"] == 0.5 and section["hair_strokes"] == (0, 2)
