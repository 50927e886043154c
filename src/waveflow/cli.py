"""Command-line pipeline: synthesize data, train, score, evaluate, sample.

Every command reads one sectioned config file, applies the --out/--seed/
--threads overrides, writes the fully-resolved config next to its
outputs, and exits 0 on success — or nonzero with a one-line diagnostic
on stderr (2 for configuration problems, 1 for runtime failures).
``synth`` and ``train`` build their run dataclasses straight from their
config sections; a value a dataclass's ``validate()`` rejects is a
configuration problem, reported before the output directory is made and
before any data is read or generated.

``score`` and ``baseline`` share one chunked loop that turns each
detector's ``ScoreReport`` into a ``scores.csv`` row.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import COMMANDS, ConfigError, ResolvedConfig, parse_command_config
from .data import (
    LABELS,
    LesionProfile,
    ManifestError,
    PgmError,
    SynthConfig,
    generate_synthetic,
    load_image,
    load_split,
    read_manifest,
    save_image,
    stack_images,
)
from .evaluate import auc, metrics_json, summarize, wavelet_magnitude_score
from .flows import build_glow
from .train import AugmentConfig, TrainConfig, train
from .waveletflow import build_waveletflow

__all__ = ["main"]

# Manifest records scored per detector call by ``waveflow score`` and
# ``waveflow baseline``.  A chunk amortizes the per-call Python work;
# scoring keeps no autodiff graph, so its activations stay a few MB.
SCORE_CHUNK = 8


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="waveflow",
        description="Wavelet-pyramid flow toolkit for likelihood-based anomaly detection on grayscale images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "synth": "generate a synthetic lesion-analog dataset",
        "train": "fit a flow on a dataset's train split",
        "score": "per-image likelihood scores for a split, from a checkpoint",
        "eval": "detection metrics (AUC, ROC, histograms) from a score file",
        "baseline": "training-free wavelet-magnitude scores and metrics",
        "sample": "draw images from a trained model",
    }
    for command in COMMANDS:
        p = sub.add_parser(command, help=descriptions[command])
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", help="output directory (overrides [run] out)")
        p.add_argument("--seed", type=int, help="override the command's seed")
        p.add_argument("--threads", type=int, help="worker cap for synth and train (overrides [run] threads)")
    return parser.parse_args(argv)


def _validated(config):
    """``config`` once its ``validate()`` passes; what it rejects is a ConfigError."""
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _output_dir(cfg: ResolvedConfig) -> Path:
    """Make the run's output directory and write the resolved config into it."""
    out_dir = Path(cfg.get("run", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved.ini").write_text(cfg.text(), encoding="utf-8")
    return out_dir


def cmd_synth(cfg: ResolvedConfig) -> None:
    synth = _validated(
        SynthConfig(
            **cfg.section("synth"),
            in_dist=LesionProfile(**cfg.section("synth.in_dist")),
            ood=LesionProfile(**cfg.section("synth.ood")),
        )
    )
    generate_synthetic(synth, _output_dir(cfg), threads=cfg.get("run", "threads"))


def cmd_train(cfg: ResolvedConfig) -> None:
    training = cfg.section("training")
    ranges = {f.name: training.pop(f.name) for f in fields(AugmentConfig)}
    augment = AugmentConfig(**ranges) if training["augment"] else None
    train_config = _validated(TrainConfig(**{**training, "augment": augment}))
    out_dir = _output_dir(cfg)
    dataset = Path(cfg.get("train", "dataset"))
    manifest = read_manifest(dataset / "manifest.csv")
    images, _ = load_split(manifest, "train")
    size = images.shape[-1]
    layout = {
        "image_size": size,
        "mask_strategy": cfg.get("train", "mask_strategy"),
        "hidden": cfg.get("train", "hidden"),
        "seed": train_config.seed,
    }
    if cfg.get("train", "family") == "waveletflow":
        model = build_waveletflow(steps_per_level=cfg.get("train", "K"), **layout)
    else:
        model = build_glow(K=cfg.get("train", "K"), L=cfg.get("train", "L"), in_channels=1, **layout)
    histories = train(model, images, train_config, workers=cfg.get("run", "threads"))
    save_checkpoint(model, out_dir / "checkpoint.json")
    with open(out_dir / "history.csv", "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["component", "epoch", "nll", "bpd", "seconds"])
        for component in sorted(histories):
            for rec in histories[component].records:
                writer.writerow([component, rec.epoch, rec.nll, rec.bpd, rec.seconds])
    summary = {
        component: {
            "best_epoch": h.best_epoch,
            "aborted": h.aborted,
            "best_bpd": min(r.bpd for r in h.records),
            "initial_bpd": h.records[0].bpd,
        }
        for component, h in histories.items()
    }
    (out_dir / "training.json").write_text(metrics_json(summary), encoding="ascii")


def _level_columns(rows: list[dict]) -> list[str]:
    """The ``level_<i>`` keys present in any row, in numeric level order."""
    return sorted(
        {k for row in rows for k in row if k.startswith("level_")},
        key=lambda c: int(c.split("_", 1)[1]),
    )


def _write_scores(path: Path, rows: list[dict]) -> None:
    level_cols = _level_columns(rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "label", "score", *level_cols])
        for row in rows:
            writer.writerow([row["path"], row["label"], row["score"], *(row[c] for c in level_cols)])


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"score {text!r} is not finite")
    return value


def _read_scores(path: Path) -> list[dict]:
    try:
        with open(path, encoding="ascii", newline="") as fh:
            reader = csv.DictReader(fh)
            raw_rows = [(reader.line_num, raw) for raw in reader]
            fields = reader.fieldnames
    except OSError as exc:
        raise ValueError(f"cannot read score file {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"score file {path} is not an ASCII CSV file: {exc}") from exc
    if not fields or not {"path", "label", "score"} <= set(fields):
        raise ValueError(f"no scores in {path}: expected a path,label,score header")
    if not raw_rows:
        raise ValueError(f"no scores in {path}")
    rows = []
    for line, raw in raw_rows:
        # DictReader keys a long row's extra fields by None and fills a short row with None.
        if None in raw or None in raw.values():
            raise ValueError(f"{path} line {line}: expected the {len(fields)} fields of the header")
        if raw["label"] not in LABELS:
            raise ValueError(f"no scores usable in {path}: unknown label {raw['label']!r}")
        try:
            row = {"path": raw["path"], "label": raw["label"], "score": _finite_float(raw["score"])}
            row.update((key, _finite_float(value)) for key, value in raw.items() if key.startswith("level_"))
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from exc
        rows.append(row)
    return rows


def _evaluate_rows(rows: list[dict], bins: int, out_dir: Path) -> None:
    nominal = [r["score"] for r in rows if r["label"] == "in_dist"]
    anomalous = [r["score"] for r in rows if r["label"] == "ood"]
    if not nominal or not anomalous:
        raise ValueError(
            f"no scores for both classes (in_dist: {len(nominal)}, ood: {len(anomalous)})"
        )
    payload = summarize(nominal, anomalous, histogram_bins=bins)
    level_cols = _level_columns(rows)
    if level_cols:
        payload["per_level_auc"] = {
            col: auc(
                [r[col] for r in rows if r["label"] == "in_dist"],
                [r[col] for r in rows if r["label"] == "ood"],
            )
            for col in level_cols
        }
    (out_dir / "metrics.json").write_text(metrics_json(payload), encoding="ascii")


def _score_split(cfg: ResolvedConfig, command: str, detector) -> list[dict]:
    """The ``scores.csv`` rows of the command's dataset split: ``detector``
    maps each chunk of SCORE_CHUNK images, a (N,1,S,S) array, to one report
    per image.  Every image must have the shape of the split's first."""
    manifest = read_manifest(Path(cfg.get(command, "dataset")) / "manifest.csv")
    split = cfg.get(command, "split")
    records = manifest.select(split=split)
    if not records:
        raise ManifestError(f"no records in split {split!r}")
    rows, shape = [], None
    for lo in range(0, len(records), SCORE_CHUNK):
        chunk = records[lo : lo + SCORE_CHUNK]
        images = stack_images(chunk, [load_image(manifest.image_path(rec)) for rec in chunk], shape)
        shape = images.shape[1:]
        for rec, report in zip(chunk, detector(images)):
            row = {"path": rec.path, "label": rec.label, "score": report.score}
            for level, value in sorted(report.per_level.items()):
                row[f"level_{level}"] = value
            rows.append(row)
    return rows


def cmd_score(cfg: ResolvedConfig) -> None:
    out_dir = _output_dir(cfg)
    model = load_checkpoint(cfg.get("score", "checkpoint"))
    _write_scores(out_dir / "scores.csv", _score_split(cfg, "score", model.score_batch))


def cmd_eval(cfg: ResolvedConfig) -> None:
    out_dir = _output_dir(cfg)
    rows = _read_scores(Path(cfg.get("eval", "scores")))
    _evaluate_rows(rows, cfg.get("eval", "bins"), out_dir)


def cmd_baseline(cfg: ResolvedConfig) -> None:
    out_dir = _output_dir(cfg)
    levels = list(cfg.get("baseline", "levels")) or None
    rows = _score_split(
        cfg, "baseline", lambda images: [wavelet_magnitude_score(im, levels=levels) for im in images]
    )
    _write_scores(out_dir / "scores.csv", rows)
    _evaluate_rows(rows, cfg.get("baseline", "bins"), out_dir)


def cmd_sample(cfg: ResolvedConfig) -> None:
    out_dir = _output_dir(cfg)
    model = load_checkpoint(cfg.get("sample", "checkpoint"))
    rng = np.random.default_rng(cfg.get("sample", "seed"))
    temperature = cfg.get("sample", "temperature")
    for index in range(cfg.get("sample", "count")):
        image = model.sample(rng, temperature=temperature)
        save_image(np.clip(image, 0.0, 1.0), out_dir / f"sample_{index:03d}.pgm")


_DISPATCH = {
    "synth": cmd_synth,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "baseline": cmd_baseline,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = parse_command_config(
            args.command, args.config, out=args.out, seed=args.seed, threads=args.threads
        )
        _DISPATCH[args.command](cfg)
    except ConfigError as exc:  # a ValueError, so it goes first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ManifestError,
        PgmError,
        CheckpointError,
        ad.ShapeError,
        ValueError,
        ArithmeticError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
