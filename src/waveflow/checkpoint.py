"""Model persistence: a structured-text (JSON) container for flow weights.

The file stores the model's ``family`` and the ``architecture`` record its
builder set, the data-dependent-init state of every activation-normalization
layer, keyed by its entry in ``model.components()``, and each parameter
array as base64 over little-endian 64-bit floats, so a round trip
reproduces likelihoods bit for bit on any platform.  Loading rebuilds every
family the same way, as ``builder(**architecture)``, after checking each
field's JSON type against the family's field table (a JSON ``true`` is not
an integer, and the activation-normalization flags must be booleans) and
the number of parameter entries against the count the architecture
implies, so an edited step count fails before anything is allocated;
unknown fields and non-finite parameter values are rejected, so a damaged
file fails with a :class:`CheckpointError` that names it.
"""
from __future__ import annotations

import base64
import json
import os

import numpy as np

from .flows import ActNorm, FlowModel, build_glow
from .waveletflow import WaveletFlowModel, build_waveletflow

__all__ = ["FORMAT_VERSION", "CheckpointError", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be decoded or does not match."""


# JSON type of every architecture field, per model family.
_ARCHITECTURE_FIELDS = {
    "glow": {
        "K": int,
        "L": int,
        "in_channels": int,
        "image_size": int,
        "cond_channels": int,
        "mask_strategy": str,
        "hidden": int,
    },
    "waveletflow": {"image_size": int, "steps_per_level": dict, "mask_strategy": str, "hidden": int},
}

_BUILDERS = {"glow": build_glow, "waveletflow": build_waveletflow}


def _encode_array(a: np.ndarray) -> str:
    buf = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return base64.b64encode(buf).decode("ascii")


def _decode_array(text: str, shape: tuple[int, ...], name: str) -> np.ndarray:
    if not isinstance(text, str):
        raise CheckpointError(f"parameter '{name}' payload must be a base64 string")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise CheckpointError(f"parameter '{name}' payload is not valid base64") from exc
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise CheckpointError(
            f"parameter '{name}' is truncated: got {len(raw)} bytes, expected {expected}"
        )
    array = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(array)):
        raise CheckpointError(f"parameter '{name}' has non-finite values")
    return array


def _check_architecture(family, arch) -> None:
    if not isinstance(family, str) or family not in _ARCHITECTURE_FIELDS:
        raise CheckpointError(f"unknown model family {family!r}")
    if not isinstance(arch, dict):
        raise CheckpointError(f"architecture must be an object, got {type(arch).__name__}")
    fields = _ARCHITECTURE_FIELDS[family]
    unknown = set(arch) - set(fields)
    if unknown:
        raise CheckpointError(f"architecture has unknown fields {sorted(unknown)}")
    for name, kind in fields.items():
        if name not in arch:
            raise CheckpointError(f"architecture is missing field '{name}'")
        if type(arch[name]) is not kind:  # a JSON true is a bool, not an int
            raise CheckpointError(
                f"architecture field '{name}' must be a {kind.__name__}, got {type(arch[name]).__name__}"
            )
    if family == "waveletflow" and not all(type(v) is int for v in arch["steps_per_level"].values()):
        raise CheckpointError("architecture field 'steps_per_level' must map levels to integer step counts")


def _parameter_count(family: str, arch: dict) -> int:
    """Parameter arrays the architecture implies: 8 per flow step (2 actnorm,
    6 coupling), plus the pyramid residue's mean and log-std."""
    counts = (arch["K"], arch["L"]) if family == "glow" else tuple(arch["steps_per_level"].values())
    if min(counts, default=0) < 1:
        raise CheckpointError(f"architecture step counts must be >= 1, got {counts}")
    if family == "glow":
        return 8 * arch["K"] * arch["L"]
    return 2 + 8 * sum(counts)


def _actnorm_groups(model: FlowModel | WaveletFlowModel) -> dict[str, list[ActNorm]]:
    """The activation-normalization layers of every component that has any
    (the pyramid residue has none, so it has no key)."""
    parts = model.components().items()
    return {name: layers for name, part in parts if (layers := part.actnorm_layers())}


def _apply_actnorm_flags(model: FlowModel | WaveletFlowModel, flags: dict) -> None:
    groups = _actnorm_groups(model)
    if (
        not isinstance(flags, dict)
        or set(flags) != set(groups)
        or any(not isinstance(flags[k], list) or len(flags[k]) != len(groups[k]) for k in groups)
    ):
        raise CheckpointError("activation-normalization layout does not match the architecture")
    if any(type(flag) is not bool for key in groups for flag in flags[key]):
        raise CheckpointError("actnorm_initialized flags must be booleans")
    for key, layers in groups.items():
        for layer, flag in zip(layers, flags[key]):
            layer.initialized = flag


def save_checkpoint(model: FlowModel | WaveletFlowModel, path: str | os.PathLike) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "architecture": model.architecture,
        "actnorm_initialized": {
            name: [layer.initialized for layer in layers]
            for name, layers in _actnorm_groups(model).items()
        },
        "parameters": [
            {"name": p.name, "shape": list(p.shape), "data": _encode_array(p.data)}
            for p in model.parameters()
        ],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str | os.PathLike) -> FlowModel | WaveletFlowModel:
    """Rebuild the saved model; a damaged file raises a CheckpointError naming it."""
    try:
        return _load(path)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _load(path: str | os.PathLike) -> FlowModel | WaveletFlowModel:
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # json raises RecursionError for arrays or objects nested too deeply.
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint root must be an object")
    missing = {"format_version", "family", "architecture", "actnorm_initialized", "parameters"} - set(payload)
    if missing:
        raise CheckpointError(f"checkpoint is missing keys: {sorted(missing)}")
    version = payload["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {version!r}; this build reads version {FORMAT_VERSION}"
        )
    family = payload["family"]
    arch = payload["architecture"]
    _check_architecture(family, arch)
    entries = payload["parameters"]
    if not isinstance(entries, list):
        raise CheckpointError(f"parameters must be a list, got {type(entries).__name__}")
    # Counted before building, so an edited size field fails without allocating.
    needed = _parameter_count(family, arch)
    if len(entries) != needed:
        raise CheckpointError(f"checkpoint has {len(entries)} parameters, architecture needs {needed}")
    try:
        model = _BUILDERS[family](**arch)
    except ValueError as exc:
        raise CheckpointError(f"architecture is invalid: {exc}") from exc
    except MemoryError as exc:
        raise CheckpointError(f"architecture cannot be allocated: {exc}") from exc
    params = model.parameters()
    for param, entry in zip(params, entries):
        if not isinstance(entry, dict):
            raise CheckpointError(f"parameter entry for '{param.name}' must be an object")
        if entry.get("name") != param.name:
            raise CheckpointError(
                f"parameter name mismatch: file has {entry.get('name')!r}, model expects {param.name!r}"
            )
        if entry.get("shape") != list(param.shape):
            raise CheckpointError(
                f"parameter '{param.name}' shape mismatch: file {entry.get('shape')}, model {list(param.shape)}"
            )
        param.data[...] = _decode_array(entry.get("data"), param.shape, param.name)
    _apply_actnorm_flags(model, payload["actnorm_initialized"])
    return model
