"""Sectioned key-value run configuration.

Each command owns a schema of sections and typed keys.  Parsing is
strict: unknown sections or keys, missing required keys, and malformed
values are all rejected up front.  The keys of ``[synth]``,
``[synth.in_dist]``, ``[synth.ood]`` and ``[training]`` are fields of the
run dataclasses (``SynthConfig``, ``LesionProfile``, ``TrainConfig``,
``AugmentConfig``) and take their defaults from a default instance, so
each default is written once; ``ResolvedConfig.section`` hands a section
back as keyword arguments for its dataclass.  The fully-resolved
configuration (defaults filled in, command-line overrides applied) is
rendered back to text so every run can write it next to its outputs.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from typing import Callable

from .data import SPLITS, LesionProfile, SynthConfig
from .masks import STRATEGIES
from .train import TrainConfig

__all__ = ["ConfigError", "ResolvedConfig", "COMMANDS", "parse_command_config"]

COMMANDS = ("synth", "train", "score", "eval", "baseline", "sample")

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid run configuration (unknown keys, bad values, missing file)."""


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


def _image_size(text: str) -> int:
    value = int(text)
    if value < 4 or value & (value - 1):
        raise ValueError(f"expected a power of two >= 4, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _float(text)
    if value <= 0:
        raise ValueError(f"expected a number > 0, got {text!r}")
    return value


def _str(text: str) -> str:
    if not text:
        raise ValueError("empty value")
    return text


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _pair(elem: Callable[[str], float]) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected 'low, high', got {text!r}")
        return (elem(parts[0]), elem(parts[1]))

    return parse


def _int_list(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(p.strip()) for p in text.split(","))


def _choice(*allowed: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected one of {allowed}, got {text!r}")
        return text

    return parse


@dataclass(frozen=True)
class Field:
    parse: Callable[[str], object]
    default: object = _REQUIRED

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def _fields(defaults, **parsers: Callable[[str], object]) -> dict[str, Field]:
    """Schema keys whose defaults are the same-named attributes of ``defaults``."""
    return {key: Field(parse, getattr(defaults, key)) for key, parse in parsers.items()}


def _profile_schema(profile: LesionProfile) -> dict[str, Field]:
    return _fields(
        profile,
        radius=_pair(_float),
        contrast=_pair(_float),
        edge_width=_float,
        shading=_float,
        border_irregularity=_float,
        texture=_float,
        hair_strokes=_pair(int),
    )


_RUN_SECTION = {
    "out": Field(_str, ""),
    "threads": Field(_count, 1),
}

_SYNTH = SynthConfig()
_TRAINING = TrainConfig()

_TRAINING_SECTION = {
    **_fields(_TRAINING, learning_rate=_float, batch_size=_count, max_epochs=_count, patience=_count),
    "augment": Field(_bool, _TRAINING.augment is not None),
    # The ranges of the default AugmentConfig; cli.cmd_train pops them into one.
    **_fields(
        _TRAINING.augment,
        rotation=_pair(_float),
        translation=_pair(_float),
        scaling=_pair(_float),
        shear=_pair(_float),
    ),
    **_fields(_TRAINING, dequantize=_bool, seed=int),
}

SCHEMAS: dict[str, dict[str, dict[str, Field]]] = {
    "synth": {
        "run": _RUN_SECTION,
        "synth": _fields(
            _SYNTH,
            image_size=_image_size,
            train_in_dist=_count,
            test_in_dist=_count,
            test_ood=_count,
            brightness=_pair(_float),
            background_gradient=_float,
            seed=int,
        ),
        "synth.in_dist": _profile_schema(_SYNTH.in_dist),
        "synth.ood": _profile_schema(_SYNTH.ood),
    },
    "train": {
        "run": _RUN_SECTION,
        "train": {
            "dataset": Field(_str),
            "family": Field(_choice("glow", "waveletflow"), "waveletflow"),
            "K": Field(_count, 2),
            "L": Field(_count, 2),
            "hidden": Field(_count, 32),
            "mask_strategy": Field(_choice(*STRATEGIES), "channel-half"),
        },
        "training": _TRAINING_SECTION,
    },
    "score": {
        "run": _RUN_SECTION,
        "score": {
            "dataset": Field(_str),
            "checkpoint": Field(_str),
            "split": Field(_choice(*SPLITS), "test"),
        },
    },
    "eval": {
        "run": _RUN_SECTION,
        "eval": {
            "scores": Field(_str),
            "bins": Field(_count, 20),
        },
    },
    "baseline": {
        "run": _RUN_SECTION,
        "baseline": {
            "dataset": Field(_str),
            "split": Field(_choice(*SPLITS), "test"),
            "levels": Field(_int_list, ()),
            "bins": Field(_count, 20),
        },
    },
    "sample": {
        "run": _RUN_SECTION,
        "sample": {
            "checkpoint": Field(_str),
            "count": Field(_count, 4),
            "temperature": Field(_positive_float, 1.0),
            "seed": Field(int, 0),
        },
    },
}

# which (section, key) the --seed override lands on
_SEED_KEY = {"synth": ("synth", "seed"), "train": ("training", "seed"), "sample": ("sample", "seed")}


@dataclass(frozen=True)
class ResolvedConfig:
    command: str
    values: dict  # (section, key) -> parsed value

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def section(self, name: str) -> dict:
        """The section's ``{key: value}``, in schema order."""
        return {key: self.values[(name, key)] for key in SCHEMAS[self.command][name]}

    def text(self) -> str:
        """Canonical rendering, schema order, defaults filled in."""
        lines = []
        for section in SCHEMAS[self.command]:
            lines.append(f"[{section}]")
            for key, value in self.section(section).items():
                lines.append(f"{key} = {_render(value)}")
            lines.append("")
        return "\n".join(lines)


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_render(v) for v in value)
    return str(value)


def parse_command_config(
    command: str,
    path: str | os.PathLike,
    out: str | None = None,
    seed: int | None = None,
    threads: int | None = None,
) -> ResolvedConfig:
    """Read, validate, and resolve a command's configuration file."""
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    schema = SCHEMAS[command]
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), inline_comment_prefixes=("#",)
    )
    parser.optionxform = str  # keys are case-sensitive (e.g. model K)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    for section in parser.sections():
        if section not in schema:
            raise ConfigError(
                f"unknown section [{section}] for command {command!r}; "
                f"allowed: {sorted(schema)}"
            )
        for key in parser[section]:
            if key not in schema[section]:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}]; "
                    f"allowed: {sorted(schema[section])}"
                )

    values: dict = {}
    for section, keys in schema.items():
        for key, field in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[(section, key)] = field.parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
            elif field.required:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")
            else:
                values[(section, key)] = field.default

    if out is not None:
        values[("run", "out")] = out
    if threads is not None:
        values[("run", "threads")] = threads
    if seed is not None:
        if command not in _SEED_KEY:
            raise ConfigError(f"command {command!r} takes no --seed override")
        values[_SEED_KEY[command]] = seed

    if not values[("run", "out")]:
        raise ConfigError("no output directory: set [run] out or pass --out")
    if values[("run", "threads")] < 1:
        raise ConfigError("[run] threads must be >= 1")
    return ResolvedConfig(command=command, values=values)
