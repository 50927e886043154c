"""Sectioned key-value run configuration.

Each command owns a schema of sections and typed keys.  Parsing is
strict: unknown sections or keys, missing required keys, and malformed
values are all rejected up front.  The fully-resolved configuration
(defaults filled in, command-line overrides applied) is rendered back
to text so every run can write it next to its outputs.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from typing import Callable

from .data import SPLITS
from .masks import STRATEGIES

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


def _profile_schema(radius, contrast, edge_width, shading, irregularity, texture, hairs):
    return {
        "radius": Field(_pair(_float), radius),
        "contrast": Field(_pair(_float), contrast),
        "edge_width": Field(_float, edge_width),
        "shading": Field(_float, shading),
        "border_irregularity": Field(_float, irregularity),
        "texture": Field(_float, texture),
        "hair_strokes": Field(_pair(int), hairs),
    }


_RUN_SECTION = {
    "out": Field(_str, ""),
    "threads": Field(_count, 1),
}

_TRAINING_SECTION = {
    "learning_rate": Field(_float, 1e-4),
    "batch_size": Field(_count, 32),
    "max_epochs": Field(_count, 20),
    "patience": Field(_count, 10),
    "augment": Field(_bool, True),
    "rotation": Field(_pair(_float), (-180.0, 180.0)),
    "translation": Field(_pair(_float), (-0.1, 0.1)),
    "scaling": Field(_pair(_float), (0.9, 1.1)),
    "shear": Field(_pair(_float), (-10.0, 10.0)),
    "dequantize": Field(_bool, False),
    "seed": Field(int, 0),
}

SCHEMAS: dict[str, dict[str, dict[str, Field]]] = {
    "synth": {
        "run": _RUN_SECTION,
        "synth": {
            "image_size": Field(_image_size, 32),
            "train_in_dist": Field(_count, 240),
            "test_in_dist": Field(_count, 80),
            "test_ood": Field(_count, 80),
            "brightness": Field(_pair(_float), (0.62, 0.88)),
            "background_gradient": Field(_float, 0.12),
            "seed": Field(int, 0),
        },
        "synth.in_dist": _profile_schema(
            (0.18, 0.28), (0.28, 0.50), 0.18, 0.15, 0.05, 0.015, (0, 0)
        ),
        "synth.ood": _profile_schema(
            (0.20, 0.30), (0.28, 0.50), 0.40, 0.15, 0.08, 0.06, (0, 2)
        ),
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

    def text(self) -> str:
        """Canonical rendering, schema order, defaults filled in."""
        lines = []
        for section, keys in SCHEMAS[self.command].items():
            lines.append(f"[{section}]")
            for key in keys:
                lines.append(f"{key} = {_render(self.values[(section, key)])}")
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
