import csv
import hashlib
import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import numpy as np
import pytest

from waveflow import cli
from waveflow.checkpoint import load_checkpoint
from waveflow.cli import main
from waveflow.data import (
    DatasetManifest,
    ManifestRecord,
    SynthConfig,
    load_image,
    read_manifest,
    save_image,
    write_manifest,
)
from waveflow.flows import FlowModel
from waveflow.train import TrainConfig
from waveflow.waveletflow import WaveletFlowModel

from helpers import USABLE_CORES

DATA = Path(__file__).resolve().parent / "data"

SYNTH_CFG = """
    [run]
    out = {out}
    [synth]
    image_size = 16
    train_in_dist = 30
    test_in_dist = 12
    test_ood = 12
    seed = 3
"""

TRAIN_CFG = """
    [run]
    out = {out}
    [train]
    dataset = {dataset}
    family = waveletflow
    K = 1
    hidden = 6
    [training]
    learning_rate = 1e-3
    batch_size = 16
    max_epochs = 1
    augment = false
    seed = 0
"""


def run_cli(*argv):
    return main(list(argv))


def write_cfg(path, template, **kw):
    path.write_text(textwrap.dedent(template.format(**kw)))
    return str(path)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> score, shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    cfg = write_cfg(root / "synth.ini", SYNTH_CFG, out=data)
    assert run_cli("synth", "--config", cfg) == 0

    run = root / "run"
    cfg = write_cfg(root / "train.ini", TRAIN_CFG, out=run, dataset=data)
    assert run_cli("train", "--config", cfg) == 0

    scores = root / "scores"
    cfg = write_cfg(
        root / "score.ini",
        "[run]\nout = {out}\n[score]\ndataset = {dataset}\ncheckpoint = {ckpt}\n",
        out=scores,
        dataset=data,
        ckpt=run / "checkpoint.json",
    )
    assert run_cli("score", "--config", cfg) == 0
    return {"root": root, "data": data, "run": run, "scores": scores}


class TestSynth:
    def test_writes_dataset_and_resolved_config(self, tmp_path):
        out = tmp_path / "d"
        cfg = write_cfg(tmp_path / "s.ini", SYNTH_CFG, out=out)
        assert run_cli("synth", "--config", cfg) == 0
        manifest = read_manifest(out / "manifest.csv")
        assert len(manifest.select(split="train")) == 30
        assert len(manifest.select(split="test")) == 24
        assert (out / "config.resolved.ini").exists()
        img = load_image(manifest.image_path(manifest.records[0]))
        assert img.shape == (1, 16, 16)

    def test_seed_override_changes_data(self, tmp_path):
        cfg_a = write_cfg(tmp_path / "a.ini", SYNTH_CFG, out=tmp_path / "a")
        cfg_b = write_cfg(tmp_path / "b.ini", SYNTH_CFG, out=tmp_path / "b")
        assert run_cli("synth", "--config", cfg_a) == 0
        assert run_cli("synth", "--config", cfg_b, "--seed", "9") == 0
        first = sorted((tmp_path / "a" / "images").iterdir())[0]
        second = tmp_path / "b" / "images" / first.name
        assert digest(first) != digest(second)

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg_a = write_cfg(tmp_path / "a.ini", SYNTH_CFG, out=tmp_path / "a")
        cfg_b = write_cfg(tmp_path / "b.ini", SYNTH_CFG, out=tmp_path / "b")
        assert run_cli("synth", "--config", cfg_a) == 0
        assert run_cli("synth", "--config", cfg_b, "--threads", "3") == 0
        for name in ["manifest.csv"] + sorted(
            p.name for p in (tmp_path / "a" / "images").iterdir()
        ):
            rel = name if name == "manifest.csv" else f"images/{name}"
            assert digest(tmp_path / "a" / rel) == digest(tmp_path / "b" / rel)

    def test_image_size_not_power_of_two_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "s.ini", "[run]\nout = {out}\n[synth]\nimage_size = 12\n", out=tmp_path / "d"
        )
        assert run_cli("synth", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "[synth] image_size" in err
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_outputs(self, pipeline):
        run = pipeline["run"]
        assert (run / "checkpoint.json").exists()
        assert (run / "config.resolved.ini").exists()
        model = load_checkpoint(run / "checkpoint.json")
        assert isinstance(model, WaveletFlowModel)
        history = (run / "history.csv").read_text().splitlines()
        assert history[0] == "component,epoch,nll,bpd,seconds"
        components = {line.split(",")[0] for line in history[1:]}
        assert components == {"base", "level1", "level2", "level3", "level4"}
        summary = json.loads((run / "training.json").read_text())
        assert set(summary) == components
        assert not any(entry["aborted"] for entry in summary.values())

    def test_outputs_are_byte_identical_for_any_threads(self, pipeline, tmp_path):
        # WaveletFlow levels train in processes; a Glow flow splits its convolutions over threads.
        glow = TRAIN_CFG.replace("family = waveletflow", "family = glow\n    L = 2")
        for family, text in (("waveletflow", TRAIN_CFG), ("glow", glow)):
            cfg = write_cfg(tmp_path / f"{family}.ini", text, out=tmp_path / "unused", dataset=pipeline["data"])
            for threads in ("1", "2"):
                out = tmp_path / family / threads
                assert run_cli("train", "--config", cfg, "--out", str(out), "--threads", threads) == 0
            for name in ("checkpoint.json", "training.json"):
                assert digest(tmp_path / family / "1" / name) == digest(tmp_path / family / "2" / name), (family, name)
            assert json.loads((tmp_path / family / "1" / "training.json").read_text()).keys() == (
                {"flow"} if family == "glow" else {"base", "level1", "level2", "level3", "level4"}
            )

    def test_glow_family(self, pipeline, tmp_path):
        out = tmp_path / "glow_run"
        cfg = write_cfg(
            tmp_path / "g.ini",
            """
            [run]
            out = {out}
            [train]
            dataset = {dataset}
            family = glow
            K = 1
            L = 2
            hidden = 4
            [training]
            batch_size = 16
            max_epochs = 1
            augment = false
            """,
            out=out,
            dataset=pipeline["data"],
        )
        assert run_cli("train", "--config", cfg) == 0
        assert isinstance(load_checkpoint(out / "checkpoint.json"), FlowModel)

    def test_cli_defaults_are_the_dataclass_defaults(self, pipeline, tmp_path, monkeypatch):
        built = {}
        monkeypatch.setattr(cli, "generate_synthetic", lambda synth, out, threads: built.update(synth=synth))
        monkeypatch.setattr(
            cli, "train", lambda model, images, config, workers: built.update(train=config, workers=workers) or {}
        )
        cfg = write_cfg(tmp_path / "s.ini", "[run]\nout = {out}\n", out=tmp_path / "s")
        assert run_cli("synth", "--config", cfg) == 0
        text = "[run]\nout = {out}\n[train]\ndataset = {dataset}\n"
        cfg = write_cfg(tmp_path / "t.ini", text, out=tmp_path / "t", dataset=pipeline["data"])
        assert run_cli("train", "--config", cfg) == 0
        assert built == {"synth": SynthConfig(), "train": TrainConfig(), "workers": USABLE_CORES}

    def test_ood_in_train_manifest_fails(self, tmp_path):
        data = tmp_path / "bad"
        (data / "images").mkdir(parents=True)
        (data / "manifest.csv").write_text(
            "path,label,split\nimages/x.pgm,ood,train\n"
        )
        cfg = write_cfg(tmp_path / "t.ini", TRAIN_CFG, out=tmp_path / "o", dataset=data)
        assert run_cli("train", "--config", cfg) == 1


class TestScore:
    def test_scores_csv_shape(self, pipeline):
        lines = (pipeline["scores"] / "scores.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["path", "label", "score"]
        assert header[3:] == [f"level_{i}" for i in range(5)]  # base + levels 1..4
        assert len(lines) == 1 + 24
        labels = {line.split(",")[1] for line in lines[1:]}
        assert labels == {"in_dist", "ood"}

    def test_scoring_is_reproducible(self, pipeline, tmp_path):
        again = tmp_path / "again"
        cfg = write_cfg(
            tmp_path / "s.ini",
            "[run]\nout = {out}\n[score]\ndataset = {dataset}\ncheckpoint = {ckpt}\n",
            out=again,
            dataset=pipeline["data"],
            ckpt=pipeline["run"] / "checkpoint.json",
        )
        assert run_cli("score", "--config", cfg, "--threads", "3") == 0
        assert digest(again / "scores.csv") == digest(pipeline["scores"] / "scores.csv")

    def test_chunked_scores_equal_one_image_at_a_time(self, pipeline, tmp_path, monkeypatch):
        # The 30-image train split ends in a partial chunk.
        template = "[run]\nout = {out}\n[score]\ndataset = {dataset}\ncheckpoint = {ckpt}\nsplit = train\n"
        written = []
        for chunk in (cli.SCORE_CHUNK, 1):
            monkeypatch.setattr(cli, "SCORE_CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}"
            cfg = write_cfg(
                tmp_path / f"s{chunk}.ini",
                template,
                out=out,
                dataset=pipeline["data"],
                ckpt=pipeline["run"] / "checkpoint.json",
            )
            assert run_cli("score", "--config", cfg) == 0
            written.append(out / "scores.csv")
        chunked, single = written
        assert chunked.read_bytes() == single.read_bytes()

        model = load_checkpoint(pipeline["run"] / "checkpoint.json")
        manifest = read_manifest(pipeline["data"] / "manifest.csv")
        records = manifest.select(split="train")
        assert len(records) % 8 != 0
        with open(chunked, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["path"] for row in rows] == [rec.path for rec in records]
        for row, rec in zip(rows, records):
            report = model.score(load_image(manifest.image_path(rec)))
            assert float(row["score"]) == report.score
            for level, bpd in report.per_level.items():
                assert float(row[f"level_{level}"]) == bpd

    def test_glow_scores_equal_log_density(self, pipeline, tmp_path):
        run = tmp_path / "glow"
        cfg = write_cfg(
            tmp_path / "t.ini",
            TRAIN_CFG.replace("family = waveletflow", "family = glow\n    L = 2"),
            out=run,
            dataset=pipeline["data"],
        )
        assert run_cli("train", "--config", cfg) == 0
        out = tmp_path / "scores"
        cfg = write_cfg(
            tmp_path / "s.ini",
            "[run]\nout = {out}\n[score]\ndataset = {dataset}\ncheckpoint = {ckpt}\n",
            out=out,
            dataset=pipeline["data"],
            ckpt=run / "checkpoint.json",
        )
        assert run_cli("score", "--config", cfg) == 0
        model = load_checkpoint(run / "checkpoint.json")
        assert isinstance(model, FlowModel) and model.architecture["L"] == 2
        manifest = read_manifest(pipeline["data"] / "manifest.csv")
        with open(out / "scores.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        records = manifest.select(split="test")
        assert [row["path"] for row in rows] == [rec.path for rec in records]
        for row, rec in zip(rows, records):
            image = load_image(manifest.image_path(rec))
            assert float(row["score"]) == model.log_density(image).bits_per_dim

    def test_checkpoint_data_mismatch(self, pipeline, tmp_path, capsys):
        other = tmp_path / "tiny"
        cfg = write_cfg(
            tmp_path / "mini.ini",
            "[run]\nout = {out}\n[synth]\nimage_size = 8\ntrain_in_dist = 2\n"
            "test_in_dist = 2\ntest_ood = 2\n",
            out=other,
        )
        assert run_cli("synth", "--config", cfg) == 0
        capsys.readouterr()
        # A 16 px WaveletFlow and the stored 4 px Glow, each on 8 px images.
        for ckpt in (pipeline["run"] / "checkpoint.json", DATA / "glow_4px.json"):
            cfg = write_cfg(
                tmp_path / "s.ini",
                "[run]\nout = {out}\n[score]\ndataset = {dataset}\ncheckpoint = {ckpt}\n",
                out=tmp_path / "o",
                dataset=other,
                ckpt=ckpt,
            )
            assert run_cli("score", "--config", cfg) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1


class TestEval:
    def test_metrics_from_scores(self, pipeline, tmp_path, capsys):
        out = tmp_path / "metrics"
        cfg = write_cfg(
            tmp_path / "e.ini",
            "[run]\nout = {out}\n[eval]\nscores = {scores}\n",
            out=out,
            scores=pipeline["scores"] / "scores.csv",
        )
        assert run_cli("eval", "--config", cfg) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= payload["auc"] <= 1.0
        assert payload["n_in_dist"] == 12 and payload["n_ood"] == 12
        assert payload["roc"][0] == [0.0, 0.0]
        assert set(payload["per_level_auc"]) == {f"level_{i}" for i in range(5)}

    def test_eval_reproducible(self, pipeline, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            cfg = write_cfg(
                tmp_path / f"{name}.ini",
                "[run]\nout = {out}\n[eval]\nscores = {scores}\n",
                out=out,
                scores=pipeline["scores"] / "scores.csv",
            )
            assert run_cli("eval", "--config", cfg) == 0
            outs.append(digest(out / "metrics.json"))
        assert outs[0] == outs[1]

    def test_empty_scores_diagnostic(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("path,label,score\n")
        cfg = write_cfg(
            tmp_path / "e.ini",
            "[run]\nout = {out}\n[eval]\nscores = {scores}\n",
            out=tmp_path / "o",
            scores=empty,
        )
        assert run_cli("eval", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert "no scores" in err and err.count("\n") == 1

    def test_missing_scores_file(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "e.ini",
            "[run]\nout = {out}\n[eval]\nscores = {scores}\n",
            out=tmp_path / "o",
            scores=tmp_path / "absent.csv",
        )
        assert run_cli("eval", "--config", cfg) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row", ["a.pgm,in_dist", "a.pgm,in_dist,1.5,2.5"], ids=["short", "long"]
    )
    def test_wrong_field_count_names_the_line(self, tmp_path, capsys, row):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"path,label,score\nb.pgm,ood,2.0\n{row}\n")
        cfg = write_cfg(
            tmp_path / "e.ini",
            "[run]\nout = {out}\n[eval]\nscores = {scores}\n",
            out=tmp_path / "o",
            scores=scores,
        )
        assert run_cli("eval", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "line 3" in err

    @pytest.mark.parametrize(
        "header, row",
        [
            ("score", "a.pgm,in_dist,abc"),
            ("score,level_1", "a.pgm,in_dist,1.0,x"),
            ("score", "a.pgm,in_dist,nan"),
            ("score,level_1", "a.pgm,in_dist,1.0,inf"),
        ],
        ids=["score", "level", "score-nan", "level-inf"],
    )
    def test_non_numeric_score_names_the_file_and_line(self, tmp_path, capsys, header, row):
        scores = tmp_path / "scores.csv"
        first = "b.pgm,ood,2.0" + ",3.0" * header.count(",")
        scores.write_text(f"path,label,{header}\n{first}\n{row}\n")
        cfg = write_cfg(
            tmp_path / "e.ini",
            "[run]\nout = {out}\n[eval]\nscores = {scores}\n",
            out=tmp_path / "o",
            scores=scores,
        )
        assert run_cli("eval", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{scores} line 3" in err

    @pytest.mark.parametrize("bad", [b"\xe9", b"x" * 140_000], ids=["non-ascii", "oversized-field"])
    def test_unreadable_scores_file_names_the_file(self, tmp_path, capsys, bad):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"path,label,score\nb.pgm,ood,2.0\na" + bad + b".pgm,in_dist,1.0\n")
        cfg = write_cfg(
            tmp_path / "e.ini",
            "[run]\nout = {out}\n[eval]\nscores = {scores}\n",
            out=tmp_path / "o",
            scores=scores,
        )
        assert run_cli("eval", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(scores) in err


class TestBaseline:
    def test_scores_and_metrics(self, pipeline, tmp_path):
        out = tmp_path / "baseline"
        cfg = write_cfg(
            tmp_path / "b.ini",
            "[run]\nout = {out}\n[baseline]\ndataset = {dataset}\n",
            out=out,
            dataset=pipeline["data"],
        )
        assert run_cli("baseline", "--config", cfg) == 0
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0].split(",")[3:] == [f"level_{i}" for i in range(1, 5)]
        payload = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= payload["auc"] <= 1.0
        assert set(payload["per_level_auc"]) == {f"level_{i}" for i in range(1, 5)}


class TestSample:
    def test_samples_are_valid_and_deterministic(self, pipeline, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            cfg = write_cfg(
                tmp_path / f"{name}.ini",
                "[run]\nout = {out}\n[sample]\ncheckpoint = {ckpt}\ncount = 2\ntemperature = 0.7\n",
                out=out,
                ckpt=pipeline["run"] / "checkpoint.json",
            )
            assert run_cli("sample", "--config", cfg) == 0
            images = sorted(out.glob("sample_*.pgm"))
            assert len(images) == 2
            assert load_image(images[0]).shape == (1, 16, 16)
            outs.append([digest(p) for p in images])
        assert outs[0] == outs[1]

    def test_non_positive_count_exits_2(self, pipeline, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "s.ini",
            "[run]\nout = {out}\n[sample]\ncheckpoint = {ckpt}\ncount = -2\n",
            out=tmp_path / "out",
            ckpt=pipeline["run"] / "checkpoint.json",
        )
        assert run_cli("sample", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "[sample] count" in err
        assert not (tmp_path / "out").exists()


class TestErrors:
    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nout = o\n[synth]\nnot_a_knob = 1\n")
        assert run_cli("synth", "--config", str(cfg)) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            ("synth", "[synth.in_dist]\nradius = 0.3, 0.2\n", "in_dist.radius"),
            ("train", "[training]\nlearning_rate = 0\n", "learning_rate"),
            ("train", "[training]\nrotation = 10, -10\n", "rotation"),
        ],
        ids=["inverted-radius", "zero-learning-rate", "inverted-rotation"],
    )
    def test_value_the_run_dataclass_rejects_exits_2(
        self, command, setting, message, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("a rejected config reached the data")

        monkeypatch.setattr(cli, "read_manifest", no_work)
        monkeypatch.setattr(cli, "generate_synthetic", no_work)
        text = "[run]\nout = {out}\n" + ("[train]\ndataset = {dataset}\n" if command == "train" else "")
        cfg = write_cfg(tmp_path / "c.ini", text + setting, out=tmp_path / "o", dataset=tmp_path / "d")
        assert run_cli(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "o").exists(), "a rejected config left an output directory"

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"[run]\nout = caf\xe9\n")
        assert run_cli("synth", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @staticmethod
    def _mixed_sizes(data, split):
        """Two 16 px images, then one 8 px image, in one split."""
        (data / "images").mkdir(parents=True)
        records = []
        for name, size in (("a", 16), ("b", 16), ("small", 8)):
            label = "ood" if split == "test" and name != "a" else "in_dist"
            save_image(np.full((1, size, size), 0.5), data / "images" / f"{name}.pgm")
            records.append(ManifestRecord(f"images/{name}.pgm", label, split))
        write_manifest(DatasetManifest(records=tuple(records)), data / "manifest.csv")
        return data

    @pytest.mark.parametrize("command", ["score", "baseline"])
    def test_mixed_image_sizes_name_the_image(self, pipeline, tmp_path, capsys, command):
        data = self._mixed_sizes(tmp_path / "mixed", "test")
        cfg = write_cfg(
            tmp_path / "m.ini",
            "[run]\nout = {out}\n[" + command + "]\ndataset = {dataset}\n"
            + ("checkpoint = {ckpt}\n" if command == "score" else ""),
            out=tmp_path / "o",
            dataset=data,
            ckpt=pipeline["run"] / "checkpoint.json",
        )
        assert run_cli(command, "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "images/small.pgm" in err

    def test_mixed_train_image_sizes_name_the_image(self, tmp_path, capsys):
        data = self._mixed_sizes(tmp_path / "mixed", "train")
        cfg = write_cfg(tmp_path / "t.ini", TRAIN_CFG, out=tmp_path / "o", dataset=data)
        assert run_cli("train", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "images/small.pgm" in err

    @pytest.mark.parametrize("bad", [b"\xc3\xa9", b"x" * 140_000], ids=["non-ascii", "oversized-field"])
    def test_unreadable_manifest_names_the_file(self, pipeline, tmp_path, capsys, bad):
        data = tmp_path / "data"
        data.mkdir()
        manifest = data / "manifest.csv"
        manifest.write_bytes(b"path,label,split\nimag" + bad + b"s/a.pgm,ood,test\n")
        cfg = write_cfg(
            tmp_path / "s.ini",
            "[run]\nout = {out}\n[score]\ndataset = {dataset}\ncheckpoint = {ckpt}\n",
            out=tmp_path / "o",
            dataset=data,
            ckpt=pipeline["run"] / "checkpoint.json",
        )
        assert run_cli("score", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(manifest) in err

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "t.ini", TRAIN_CFG, out=tmp_path / "o", dataset=tmp_path / "nope"
        )
        assert run_cli("train", "--config", cfg) == 1
        assert "error:" in capsys.readouterr().err

    def test_console_script_runs(self, tmp_path):
        exe = shutil.which("waveflow")
        if exe is None:
            pytest.skip("console script not on PATH")
        cfg = write_cfg(
            tmp_path / "s.ini",
            "[run]\nout = {out}\n[synth]\nimage_size = 8\ntrain_in_dist = 2\n"
            "test_in_dist = 1\ntest_ood = 1\n",
            out=tmp_path / "d",
        )
        proc = subprocess.run([exe, "synth", "--config", cfg], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "d" / "manifest.csv").exists()
