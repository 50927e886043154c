import base64
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from waveflow import checkpoint
from waveflow.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from waveflow.cli import main
from waveflow.flows import build_glow
from waveflow.waveletflow import build_waveletflow

# Stored checkpoints of 4 px models (hidden=2), one per family; each must
# load and re-save byte for byte, which pins the file format.
DATA = Path(__file__).resolve().parent / "data"


def perturb(model, seed):
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data[...] += rng.normal(0.0, 0.05, p.shape)


@pytest.fixture
def glow_model():
    model = build_glow(K=2, L=2, in_channels=1, image_size=8, hidden=8, seed=0)
    perturb(model, seed=1)
    batch = np.random.default_rng(2).random((6, 1, 8, 8))
    model.initialize_actnorm(batch)
    return model


@pytest.fixture
def wavelet_model():
    model = build_waveletflow(8, steps_per_level=1, hidden=8, seed=3)
    perturb(model, seed=4)
    return model


class TestRoundTrip:
    def test_glow_likelihood_is_bit_identical(self, glow_model, tmp_path):
        path = tmp_path / "glow.ckpt"
        save_checkpoint(glow_model, path)
        loaded = load_checkpoint(path)
        for p, q in zip(glow_model.parameters(), loaded.parameters()):
            assert p.name == q.name
            assert np.array_equal(p.data, q.data)
        assert [l.initialized for l in loaded.actnorm_layers()] == [
            l.initialized for l in glow_model.actnorm_layers()
        ]
        img = np.random.default_rng(5).random((1, 8, 8))
        assert (
            loaded.log_density(img).log_likelihood
            == glow_model.log_density(img).log_likelihood
        )

    def test_wavelet_score_is_bit_identical(self, wavelet_model, tmp_path):
        path = tmp_path / "wf.ckpt"
        save_checkpoint(wavelet_model, path)
        loaded = load_checkpoint(path)
        img = np.random.default_rng(6).random((1, 8, 8))
        a = wavelet_model.score(img)
        b = loaded.score(img)
        assert a.score == b.score
        assert a.per_level == b.per_level

    def test_architecture_fields_survive(self, wavelet_model, tmp_path):
        path = tmp_path / "wf.ckpt"
        save_checkpoint(wavelet_model, path)
        loaded = load_checkpoint(path)
        assert loaded.image_size == wavelet_model.image_size
        assert loaded.family == wavelet_model.family == "waveletflow"
        assert loaded.architecture == wavelet_model.architecture


@pytest.mark.parametrize(
    "build, kwargs",
    [
        (build_glow, dict(K=2, L=1, in_channels=3, image_size=8, cond_channels=1, hidden=4, seed=5)),
        (build_waveletflow, dict(image_size=8, steps_per_level={1: 1, 2: 3, 3: 2}, hidden=4, seed=5)),
    ],
    ids=["glow", "waveletflow"],
)
def test_builder_rebuilds_from_architecture(build, kwargs):
    model = build(**kwargs)
    rebuilt = build(**model.architecture)
    assert [(p.name, p.shape) for p in rebuilt.parameters()] == [
        (p.name, p.shape) for p in model.parameters()
    ]
    assert rebuilt.architecture == model.architecture


@pytest.mark.parametrize("name", ["glow_4px.json", "waveletflow_4px.json"])
def test_stored_checkpoint_loads_and_resaves_byte_identically(name, tmp_path):
    model = load_checkpoint(DATA / name)
    save_checkpoint(model, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


class TestFileFormat:
    def test_container_layout(self, glow_model, tmp_path):
        path = tmp_path / "glow.ckpt"
        save_checkpoint(glow_model, path)
        payload = json.loads(path.read_text(encoding="ascii"))
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["family"] == "glow"
        assert set(payload) >= {"architecture", "actnorm_initialized", "parameters"}
        for entry in payload["parameters"]:
            assert set(entry) == {"name", "shape", "data"}

    def test_values_are_little_endian_doubles(self, tmp_path):
        model = build_glow(K=1, L=2, in_channels=1, image_size=4, hidden=4, seed=0)
        first = model.parameters()[0]
        first.data.flat[0] = -1.25
        save_checkpoint(model, tmp_path / "m.ckpt")
        payload = json.loads((tmp_path / "m.ckpt").read_text())
        entry = next(e for e in payload["parameters"] if e["name"] == first.name)
        raw = base64.b64decode(entry["data"])
        assert len(raw) == first.data.size * 8
        assert raw[:8] == struct.pack("<d", -1.25)


class TestRejection:
    def _payload(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        return path, json.loads(path.read_text())

    def _write(self, path, payload):
        path.write_text(json.dumps(payload))

    def test_wrong_version(self, glow_model, tmp_path):
        path, payload = self._payload(glow_model, tmp_path)
        payload["format_version"] = 99
        self._write(path, payload)
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(path)

    def test_truncated_parameter(self, glow_model, tmp_path):
        path, payload = self._payload(glow_model, tmp_path)
        entry = payload["parameters"][0]
        raw = base64.b64decode(entry["data"])
        entry["data"] = base64.b64encode(raw[:-8]).decode()
        self._write(path, payload)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_shape_mismatch(self, glow_model, tmp_path):
        path, payload = self._payload(glow_model, tmp_path)
        payload["parameters"][0]["shape"] = [1]
        self._write(path, payload)
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path)

    def test_name_mismatch(self, glow_model, tmp_path):
        path, payload = self._payload(glow_model, tmp_path)
        payload["parameters"][0]["name"] = "nonsense"
        self._write(path, payload)
        with pytest.raises(CheckpointError, match="name mismatch"):
            load_checkpoint(path)

    def test_missing_parameters(self, glow_model, tmp_path):
        path, payload = self._payload(glow_model, tmp_path)
        payload["parameters"] = payload["parameters"][:-1]
        self._write(path, payload)
        with pytest.raises(CheckpointError, match="parameters"):
            load_checkpoint(path)

    def test_missing_key(self, glow_model, tmp_path):
        path, payload = self._payload(glow_model, tmp_path)
        del payload["family"]
        self._write(path, payload)
        with pytest.raises(CheckpointError, match="missing keys"):
            load_checkpoint(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not json {")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_unknown_family(self, glow_model, tmp_path):
        path, payload = self._payload(glow_model, tmp_path)
        payload["family"] = "mystery"
        self._write(path, payload)
        with pytest.raises(CheckpointError, match="family"):
            load_checkpoint(path)


def _poison_first_parameter(payload):
    entry = payload["parameters"][0]
    values = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
    values[0] = np.nan
    entry["data"] = base64.b64encode(values.tobytes()).decode()


def _flags_as_strings(payload):
    flags = payload["actnorm_initialized"]
    for key in flags:
        flags[key] = ["yes" if flag else "no" for flag in flags[key]]


# Each damages one field's JSON type or value; every one must fail as a
# CheckpointError, never as a TypeError/AttributeError traceback.  An edit
# that returns text replaces the whole file with it.
DAMAGE = {
    "deeply-nested-json": lambda payload: "[" * 100000,
    "actnorm-flag-string": _flags_as_strings,
    "architecture-not-object": lambda payload: payload.update(architecture="x"),
    "steps-per-level-list": lambda payload: payload["architecture"].update(steps_per_level=[1, 1, 1]),
    "parameters-not-list": lambda payload: payload.update(parameters=7),
    "nan-parameter": _poison_first_parameter,
    "unknown-architecture-field": lambda payload: payload["architecture"].update(seed=0),
    "level-outside-depth": lambda payload: payload["architecture"]["steps_per_level"].update({"9": 1}),
    "zero-hidden": lambda payload: payload["architecture"].update(hidden=0),
}


def _reject_by_loader_and_cli(path, tmp_path, capsys, match=None):
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)
    cfg = tmp_path / "score.ini"
    cfg.write_text(f"[run]\nout = {tmp_path / 'out'}\n[score]\ndataset = {tmp_path}\ncheckpoint = {path}\n")
    assert main(["score", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_checkpoint_rejected_by_loader_and_cli(damage, wavelet_model, tmp_path, capsys):
    path = tmp_path / "wf.ckpt"
    save_checkpoint(wavelet_model, path)
    payload = json.loads(path.read_text())
    text = DAMAGE[damage](payload)
    path.write_text(text or json.dumps(payload))
    _reject_by_loader_and_cli(path, tmp_path, capsys)


# One edited value in a stored checkpoint: (file, edit, expected message).
# A JSON true is not an integer, step counts are positive, a conditional
# flow must be single-scale, and a model must be allocatable: a hidden width
# of 10**12 asks for a 262 TiB kernel, more than an x86-64 process can
# address (128 TiB), so the allocation fails at once without touching memory.
STORED_DAMAGE = {
    "glow-K-true": ("glow_4px.json", lambda p: p["architecture"].update(K=True), "'K' must be a int"),
    "format-version-true": ("glow_4px.json", lambda p: p.update(format_version=True), "format_version"),
    "steps-per-level-true": (
        "waveletflow_4px.json",
        lambda p: p["architecture"]["steps_per_level"].update({"1": True}),
        "steps_per_level",
    ),
    "glow-K-negative": ("glow_4px.json", lambda p: p["architecture"].update(K=-2), "step counts must be >= 1"),
    "conditional-multiscale-glow": (
        "glow_4px.json",
        lambda p: p["architecture"].update(cond_channels=1),
        "architecture is invalid: .*single-scale",
    ),
    "glow-hidden-unallocatable": (
        "glow_4px.json",
        lambda p: p["architecture"].update(hidden=10**12),
        "architecture cannot be allocated",
    ),
}


def _edited_stored(name, edit, tmp_path):
    payload = json.loads((DATA / name).read_text())
    edit(payload)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("damage", sorted(STORED_DAMAGE))
def test_edited_stored_checkpoint_rejected_by_loader_and_cli(damage, tmp_path, capsys):
    name, edit, match = STORED_DAMAGE[damage]
    _reject_by_loader_and_cli(_edited_stored(name, edit, tmp_path), tmp_path, capsys, match)


# A step count edited far up: the entries are counted against the count
# the architecture implies before anything is built.
HUGE_STEP_COUNT = {
    "glow-K-2000": (
        "glow_4px.json",
        lambda p: p["architecture"].update(K=2000),
        "has 16 parameters, architecture needs 32000",
    ),
    "waveletflow-level-2000": (
        "waveletflow_4px.json",
        lambda p: p["architecture"]["steps_per_level"].update({"2": 2000}),
        "has 26 parameters, architecture needs 16010",
    ),
}


@pytest.mark.parametrize("damage", sorted(HUGE_STEP_COUNT))
def test_parameter_count_is_checked_before_the_model_is_built(damage, tmp_path, capsys, monkeypatch):
    name, edit, match = HUGE_STEP_COUNT[damage]

    def not_built(**architecture):
        raise AssertionError("built the model before counting its parameters")

    for family in list(checkpoint._BUILDERS):
        monkeypatch.setitem(checkpoint._BUILDERS, family, not_built)
    _reject_by_loader_and_cli(_edited_stored(name, edit, tmp_path), tmp_path, capsys, match)
