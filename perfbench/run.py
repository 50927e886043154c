"""End-to-end benchmark of waveflow: train-wf, train-glow and score.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-wf --seed 1 --seconds 15 --trace 0

The benchmark synthesizes its dataset from ``--seed`` with ``waveflow
synth``, then drives the package through its CLI and public API, checks
the outputs, and prints every metric by name and unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, with the tracing overhead.  The package is
imported from ``src/`` of the checkout, the same way the test suite runs
it; nothing is installed.  Work files go to ``perfbench/work/``.

Workloads (all load from this one process, BLAS at its default thread
count; only the ``score`` set-up trains its checkpoint in a child process,
so that training memory stays out of the scoring peak):

* ``train-wf``: WaveletFlow, 32 px, 200 train images, K=2, hidden=24,
  batch 32, lr 1e-3, augment and dequantize on, EPOCHS epochs, then a
  125+125 test split is scored through the API.
* ``train-glow``: the same data and budget with the Glow K=4 L=2 pixel
  flow, the control with no Haar pyramid.
* ``score``: a 256+256 test split and a one-epoch WaveletFlow checkpoint;
  a pass is ``waveflow score`` at ``--threads`` = nproc, ``eval``,
  ``baseline`` and one ``WaveletFlowModel.score`` call per image.

Passes repeat until ``--seconds`` have passed, at least MIN_PASSES times;
the latency percentiles pool the per-image calls of every untraced pass
(at least 500 samples, so p98 has ten beyond it).

Warm-up policy, the same for every workload: before timing, the pass runs
once untimed on reduced work (one epoch and 64 test images for the train
workloads, a 32+32 image subset for score).  Set-up is repeated
SETUP_REPEATS times and ``setup_s`` is the median.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

# Reserved for checking a performance claim on a seed not used while the
# change was written; never use it while tuning.
HELD_OUT_SEED = 7919

IMAGE_SIZE = 32
EPOCHS = 3
SETUP_REPEATS = 3
MIN_PASSES = 2
WARMUP_SUBSET = 32  # images per label scored by the warm-up pass
RATE_WINDOW = 50  # images per throughput window of an API sweep


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    train: dict  # [train] section of the training run
    epochs: int
    trains_in_setup: bool  # score: the checkpoint is an input, made in set-up


TRAINING = {
    "learning_rate": "1e-3",
    "batch_size": "32",
    "augment": "true",
    "dequantize": "true",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-wf",
            {"train_in_dist": 200, "test_in_dist": 125, "test_ood": 125},
            {"family": "waveletflow", "K": 2, "hidden": 24},
            EPOCHS,
            False,
        ),
        Workload(
            "train-glow",
            {"train_in_dist": 200, "test_in_dist": 125, "test_ood": 125},
            {"family": "glow", "K": 4, "L": 2, "hidden": 24},
            EPOCHS,
            False,
        ),
        Workload(
            "score",
            {"train_in_dist": 64, "test_in_dist": 256, "test_ood": 256},
            {"family": "waveletflow", "K": 2, "hidden": 24},
            1,
            True,
        ),
    )
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce its metrics."""


@dataclass
class Checks:
    """Every operation and check counts as attempted; failures are kept."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # SHA-256 per artifact kind

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def agree(self, kind: str, digest: str) -> None:
        """The first digest of ``kind`` is the reference for later repeats."""
        reference = self.digests.setdefault(kind, digest)
        self.check(digest == reference, f"{kind} differs between repeats at the same seed")


def write_ini(path: Path, sections: dict[str, dict]) -> Path:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def dataset_sha(data_dir: Path) -> str:
    return sha256(data_dir / "manifest.csv", *sorted((data_dir / "images").iterdir()))


def cli(argv: list[str]) -> int:
    """``waveflow <argv>`` in this process (looked up per call, so a traced
    pass reaches the wrapped entry point)."""
    return sys.modules["waveflow.cli"].main(argv)


def child_train(argv: list[str]) -> tuple[int, float]:
    """``waveflow train`` in a child process: (exit code, wall time of the call)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child_train.py"), "train", *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, math.nan
    result = json.loads(lines[-1])
    return result["exit"], result["seconds"]


def environment(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib_path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                blas_threads = getter()
                break
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "score_threads": nproc,
        "machine": platform.machine(),
        "held_out_seed": HELD_OUT_SEED,
        "warmup": "one untimed pass on reduced work before timing",
    }


def check_training(out: Path, epochs: int, checks: Checks) -> dict:
    """Fixed work per run: every component ran ``epochs`` epochs, none aborted.

    Returns final_bpd (clean train-set bits/dim of the whole image at each
    component's best epoch, on the 0..256 pixel scale: the package's [0, 1]
    scale plus log2(256) = 8 bits, an exact change of variables) and the
    per-component seconds from the program's own epoch records.
    """
    summary = json.loads((out / "training.json").read_text(encoding="ascii"))
    history: dict[str, list[dict]] = {}
    with open(out / "history.csv", encoding="ascii", newline="") as fh:
        for row in csv.DictReader(fh):
            history.setdefault(row["component"], []).append(row)
    nll = 0.0
    seconds = {}
    for component, info in summary.items():
        rows = history[component]
        checks.check(not info["aborted"], f"component {component} aborted")
        checks.check(int(rows[-1]["epoch"]) == epochs, f"component {component} ran {rows[-1]['epoch']} epochs")
        nll += float(rows[info["best_epoch"]]["nll"])
        seconds[component] = float(rows[-1]["seconds"])
    return {
        "final_bpd": nll / (IMAGE_SIZE * IMAGE_SIZE * math.log(2.0)) + 8.0,
        "component_s": seconds,
        "epochs": sum(int(history[c][-1]["epoch"]) for c in summary),
        "aborted": sum(bool(info["aborted"]) for info in summary.values()),
    }


def score_fn(model):
    """Per-image bits/dim through the public API, as ``waveflow score`` does."""
    from waveflow.waveletflow import WaveletFlowModel

    if isinstance(model, WaveletFlowModel):
        return lambda image: model.score(image).score
    return lambda image: model.log_density(image).bits_per_dim


def sweep(score, images: np.ndarray, checks: Checks) -> tuple[np.ndarray, list[float]]:
    """One score call per image, each timed; returns scores and latencies."""
    scores, latencies = [], []
    for image in images:
        t0 = time.perf_counter()
        value = score(image)
        latencies.append(time.perf_counter() - t0)
        scores.append(value)
    scores = np.asarray(scores, dtype=np.float64)
    checks.check(bool(np.all(np.isfinite(scores))), "non-finite score")
    return scores, latencies


def window_rates(latencies: list[float]) -> list[float]:
    """Images/s of each full RATE_WINDOW-image window of a sweep.

    The median over windows is the sweep's typical throughput; a burst of
    host steal then moves a few windows instead of the whole figure.
    """
    return [
        RATE_WINDOW / sum(latencies[i : i + RATE_WINDOW])
        for i in range(0, len(latencies) - RATE_WINDOW + 1, RATE_WINDOW)
    ]


@dataclass
class Pass:
    headline_s: float  # train workloads: train_s; score: the CLI score wall time
    rates: list[float]  # images/s: the CLI score run, or the sweep's windows
    latencies: list[float]
    test_auc: float
    model: object
    tracer: object  # the pass's Tracer, or None for an untraced pass
    checkpoint: Path
    training: dict | None  # check_training() of a train workload's pass


class Run:
    def __init__(self, workload: Workload, seed: int, nproc: int, run_dir: Path):
        self.w = workload
        self.seed = seed
        self.nproc = nproc
        self.dir = run_dir
        self.checks = Checks()
        self.labels = np.array([])

    # -- set-up ---------------------------------------------------------
    def synth_ini(self, data_dir: Path) -> Path:
        synth = {"image_size": IMAGE_SIZE, **self.w.synth, "seed": self.seed}
        return write_ini(data_dir.parent / "synth.ini", {"run": {"out": data_dir, "threads": 1}, "synth": synth})

    def train_ini(self, path: Path, data_dir: Path, epochs: int) -> Path:
        training = {**TRAINING, "max_epochs": epochs, "patience": epochs + 1, "seed": self.seed}
        return write_ini(path, {"train": {"dataset": data_dir, **self.w.train}, "training": training})

    def setup(self, rep: int, tracer) -> tuple[float, float | None]:
        """One complete set-up; returns its wall time and, for score, the
        wall time of the checkpoint's ``waveflow train``."""
        base = self.dir / f"setup{rep}"
        data_dir = base / "data"
        ini = self.synth_ini(data_dir)
        start = time.perf_counter()
        with traced_or_not(tracer):
            rc = cli(["synth", "--config", str(ini)])
        if not self.checks.check(rc == 0, f"waveflow synth exited {rc}"):
            raise BenchmarkError("waveflow synth failed")
        train_s = None
        if self.w.trains_in_setup:
            ini = self.train_ini(base / "train.ini", data_dir, self.w.epochs)
            rc, train_s = child_train(["--config", str(ini), "--out", str(base / "model")])
            if not self.checks.check(rc == 0, f"waveflow train exited {rc}"):
                raise BenchmarkError("waveflow train failed")
        seconds = time.perf_counter() - start
        self.checks.agree("dataset", dataset_sha(data_dir))
        if self.w.trains_in_setup:
            self.checks.agree("checkpoint", sha256(base / "model" / "checkpoint.json"))
        return seconds, train_s

    def auc(self, scores: np.ndarray) -> float:
        in_dist, ood = scores[self.labels == "in_dist"], scores[self.labels == "ood"]
        return sys.modules["waveflow.evaluate"].summarize(in_dist, ood)["auc"]

    # -- train workloads --------------------------------------------------
    def train_pass(self, index: int, ini: Path, images: np.ndarray, tracer, timed: bool = True) -> Pass:
        out = self.dir / f"pass{index}"
        with traced_or_not(tracer):
            t0 = time.perf_counter()
            rc = cli(["train", "--config", str(ini), "--out", str(out)])
            train_s = time.perf_counter() - t0
            if not self.checks.check(rc == 0, f"waveflow train exited {rc}"):
                raise BenchmarkError("training failed")
            model = sys.modules["waveflow.checkpoint"].load_checkpoint(out / "checkpoint.json")
            scores, latencies = sweep(score_fn(model), images, self.checks)
            test_auc = self.auc(scores) if timed else math.nan
        if timed:
            self.checks.agree("checkpoint", sha256(out / "checkpoint.json"))
            self.checks.agree("training.json", sha256(out / "training.json"))
            self.checks.agree("scores", hashlib.sha256(scores.tobytes()).hexdigest())
        training = check_training(out, self.w.epochs, self.checks) if timed else None
        ckpt = out / "checkpoint.json"
        return Pass(train_s, window_rates(latencies), latencies, test_auc, model, tracer, ckpt, training)

    # -- score workload ---------------------------------------------------
    def score_pass(self, index: int, data_dir: Path, ckpt: Path, model, images, tracer, timed: bool = True) -> Pass:
        out = self.dir / f"pass{index}"
        sections = {
            "score": {"dataset": data_dir, "checkpoint": ckpt},
            "eval": {"scores": out / "score" / "scores.csv"},
            "baseline": {"dataset": data_dir},
        }
        with traced_or_not(tracer):
            seconds = {}
            for command, section in sections.items():
                ini = write_ini(out / f"{command}.ini", {command: section})
                argv = [command, "--config", str(ini), "--out", str(out / command), "--threads", str(self.nproc)]
                t0 = time.perf_counter()
                rc = cli(argv)
                seconds[command] = time.perf_counter() - t0
                if not self.checks.check(rc == 0, f"waveflow {command} exited {rc}"):
                    raise BenchmarkError(f"waveflow {command} failed")
            api_scores, latencies = sweep(score_fn(model), images, self.checks)
        with open(out / "score" / "scores.csv", encoding="ascii", newline="") as fh:
            csv_scores = np.array([float(row["score"]) for row in csv.DictReader(fh)])
        self.checks.check(bool(np.all(np.isfinite(csv_scores))), "non-finite score in scores.csv")
        self.checks.check(np.array_equal(csv_scores, api_scores), "scores.csv differs from WaveletFlowModel.score")
        metrics = json.loads((out / "eval" / "metrics.json").read_text(encoding="ascii"))
        self.checks.check(isinstance(metrics.get("auc"), float), "metrics.json has no auc")
        if timed:
            self.checks.agree("scores.csv", sha256(out / "score" / "scores.csv"))
            self.checks.agree("metrics.json", sha256(out / "eval" / "metrics.json"))
            self.checks.agree("baseline", sha256(out / "baseline" / "metrics.json"))
        auc = metrics.get("auc", math.nan)
        rates = [len(images) / seconds["score"]]
        return Pass(seconds["score"], rates, latencies, auc, model, tracer, ckpt, None)


def load_test(data_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    """The test split's images and labels, in manifest order."""
    from waveflow.data import load_split, read_manifest

    images, records = load_split(read_manifest(data_dir / "manifest.csv"), "test")
    return images, np.array([r.label for r in records])


def traced_or_not(tracer):
    if tracer is None:
        return nullcontext()
    from tracer import traced

    return traced(tracer)


def warmup_subset(data_dir: Path, dest: Path) -> Path:
    """A copy of the first WARMUP_SUBSET test images of each label."""
    from waveflow.data import DatasetManifest, read_manifest, write_manifest

    manifest = read_manifest(data_dir / "manifest.csv")
    records = [r for label in ("in_dist", "ood") for r in manifest.select("test", label)[:WARMUP_SUBSET]]
    (dest / "images").mkdir(parents=True, exist_ok=True)
    for rec in records:
        shutil.copyfile(manifest.image_path(rec), dest / rec.path)
    write_manifest(DatasetManifest(records=tuple(records), root=str(dest)), dest / "manifest.csv")
    return dest


def cpu_ticks() -> tuple[int, int] | None:
    """(all, steal) CPU ticks of the machine, from /proc/stat where it exists."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    return sum(ticks), ticks[7]


def steal_share(start: tuple[int, int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this machine since ``start``."""
    end = cpu_ticks()
    if start is None or end is None or end[0] == start[0]:
        return None
    return (end[1] - start[1]) / (end[0] - start[0])


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Set-up, warm-up and the timed passes; returns every metric computed."""
    from tracer import Tracer

    w = run.w
    setups = []
    setup_tracer = Tracer() if trace else None
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        setups.append(run.setup(rep, setup_tracer if last else None))
    data_dir = run.dir / "setup0" / "data"
    images, run.labels = load_test(data_dir)

    passes: list[Pass] = []
    if w.trains_in_setup:
        from waveflow.checkpoint import load_checkpoint

        ckpt = run.dir / "setup0" / "model" / "checkpoint.json"
        model = load_checkpoint(ckpt)
        warm_dir = warmup_subset(data_dir, run.dir / "warmup" / "data")
        run.score_pass(-1, warm_dir, ckpt, model, load_test(warm_dir)[0], None, timed=False)

        def one_pass(i, tracer):
            return run.score_pass(i, data_dir, ckpt, model, images, tracer)

    else:
        ini = run.train_ini(run.dir / "train.ini", data_dir, w.epochs)
        warm_ini = run.train_ini(run.dir / "warmup.ini", data_dir, 1)
        run.train_pass(-1, warm_ini, images[: 2 * WARMUP_SUBSET], None, timed=False)

        def one_pass(i, tracer):
            return run.train_pass(i, ini, images, tracer)

    steal_at_start = cpu_ticks()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        i = len(passes)
        passes.append(one_pass(i, Tracer() if trace and i % 2 == 1 else None))
    steal = steal_share(steal_at_start)
    untraced = [p for p in passes if p.tracer is None]
    latencies = [x for p in untraced for x in p.latencies]

    if w.trains_in_setup:
        training = check_training(run.dir / "setup0" / "model", w.epochs, run.checks)
    else:
        training = passes[0].training
    setup_s = [s for s, _ in setups]
    train_s = [t for _, t in setups] if w.trains_in_setup else [p.headline_s for p in untraced]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_s": (statistics.median(train_s), "s"),
        "final_bpd": (training["final_bpd"], "bits/dim"),
        "test_auc": (passes[0].test_auc, "1"),
        "score_images_per_s": (statistics.median(r for p in untraced for r in p.rates), "images/s"),
        "score_latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "score_latency_p98_ms": (1e3 * percentile(latencies, 98), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    details = {
        "setup_s_samples": setup_s,
        "train_s_samples": train_s,
        "latency_samples": len(latencies),
        "steal_share": steal,
        "passes": len(passes),
        "digests": run.checks.digests,
    }
    if trace:
        from layers import per_layer

        traced_passes = [p for p in passes if p.tracer is not None]
        layer_metrics, spans = per_layer(setup_tracer, traced_passes, untraced, run.checks)
        metrics.update(layer_metrics)
        details["spans"] = spans
    return {"metrics": metrics, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "waveflow" / "__init__.py").is_file():
        print(f"error: no waveflow package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import waveflow.cli  # noqa: F401

    nproc = len(os.sched_getaffinity(0))
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment(nproc)
    for key, value in env.items():
        print(f"env {key}: {value}")
    run = Run(WORKLOADS[args.workload], args.seed, nproc, run_dir)
    try:
        result = measure(run, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir)
        run_dir.mkdir()

    checks = run.checks
    metrics = result["metrics"]
    metrics["error_rate"] = (len(checks.failures) / checks.attempted, "1")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"steal_share = {result['details']['steal_share']!r} 1  (host CPU steal during the passes)")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    (run_dir / ("trace.json" if args.trace else "result.json")).write_text(
        json.dumps({"env": env, "metrics": metrics, **result["details"]}) + "\n", encoding="utf-8"
    )
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
