"""Per-layer metrics of a traced run, named after the waveflow modules.

Times are self times (a span's duration minus what its child spans cover),
summed over the traced set-up and one traced pass; when a run has several
traced passes the median pass is taken.  Counts, conv FLOPs and im2col
bytes are exact: they must repeat across traced passes, and FLOPs and
bytes are computed from the operand shapes, not measured.
"""
from __future__ import annotations

import statistics

# (metric, unit, span name, summary field)
SPAN_METRICS = [
    ("autodiff.conv2d.calls", "count", "autodiff.conv2d.fwd", "calls"),
    ("autodiff.conv2d.fwd_s", "s", "autodiff.conv2d.fwd", "self_s"),
    ("autodiff.conv2d.bwd_s", "s", "autodiff.conv2d.bwd", "self_s"),
    ("autodiff.ops.calls", "count", "autodiff.ops", "calls"),
    ("autodiff.ops_s", "s", "autodiff.ops", "self_s"),
    ("autodiff.backward_s", "s", "autodiff.backward", "self_s"),
    ("autodiff.adam.steps", "count", "autodiff.adam.step", "calls"),
    ("autodiff.adam.step_s", "s", "autodiff.adam.step", "self_s"),
    ("haar.build_pyramid.calls", "count", "haar.build_pyramid", "calls"),
    ("haar.build_pyramid_s", "s", "haar.build_pyramid", "self_s"),
    ("train.augment.calls", "count", "train.augment", "calls"),
    ("train.augment_s", "s", "train.augment", "self_s"),
    ("train.dequantize_s", "s", "train.dequantize", "self_s"),
    ("flows.log_prob_graph.calls", "count", "flows.log_prob_graph", "calls"),
    ("flows.log_prob_graph_s", "s", "flows.log_prob_graph", "self_s"),
    ("waveletflow.score.calls", "count", "waveletflow.score", "calls"),
    ("waveletflow.score_s", "s", "waveletflow.score", "self_s"),
    ("data.generate_synthetic_s", "s", "data.generate_synthetic", "self_s"),
    ("data.load_image.calls", "count", "data.load_image", "calls"),
    ("data.load_image_s", "s", "data.load_image", "self_s"),
    ("checkpoint.save_s", "s", "checkpoint.save", "self_s"),
    ("checkpoint.load_s", "s", "checkpoint.load", "self_s"),
    ("evaluate.summarize_s", "s", "evaluate.summarize", "self_s"),
    ("evaluate.wavelet_magnitude_score.calls", "count", "evaluate.wavelet_magnitude_score", "calls"),
    ("evaluate.wavelet_magnitude_score_s", "s", "evaluate.wavelet_magnitude_score", "self_s"),
    ("cli.synth_s", "s", "cli.synth", "self_s"),
    ("cli.train_s", "s", "cli.train", "self_s"),
    ("cli.score_s", "s", "cli.score", "self_s"),
    ("cli.eval_s", "s", "cli.eval", "self_s"),
    ("cli.baseline_s", "s", "cli.baseline", "self_s"),
    ("config.parse_s", "s", "config.parse", "self_s"),
]

# Training components, timed by the program itself (EpochRecord.seconds).
COMPONENTS = ("base", "level1", "level2", "level3", "level4", "level5", "flow")

EXACT_UNITS = {"count", "GFLOP", "MB"}


def _merge(*summaries: dict) -> dict:
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
    return out


def _pass_metrics(summary: dict, counters: dict, training: dict | None, checkpoint_bytes: int) -> dict:
    values = {metric: (summary.get(span, {}).get(key, 0), unit) for metric, unit, span, key in SPAN_METRICS}
    flop = counters.get("autodiff.conv2d.fwd_flop", 0) + counters.get("autodiff.conv2d.bwd_flop", 0)
    values["autodiff.conv2d.gflop"] = (flop / 1e9, "GFLOP")
    values["autodiff.conv2d.im2col_mb"] = (counters.get("autodiff.conv2d.im2col_bytes", 0) / 1e6, "MB")
    component_s = training["component_s"] if training else {}
    for component in COMPONENTS:
        values[f"train.{component}_s"] = (component_s.get(component, 0.0), "s")
    values["train.epochs"] = (training["epochs"] if training else 0, "count")
    values["train.aborted"] = (training["aborted"] if training else 0, "count")
    values["checkpoint.mb"] = (checkpoint_bytes / 1e6, "MB")
    return values


def per_layer(setup_tracer, traced, untraced, checks) -> tuple[dict, dict]:
    """Per-layer metrics and the recorded spans of a traced run."""
    setup_summary = setup_tracer.summary()
    summaries = [_merge(setup_summary, p.tracer.summary()) for p in traced]
    per_pass = [
        _pass_metrics(summary, p.tracer.counters, p.training, p.checkpoint.stat().st_size)
        for summary, p in zip(summaries, traced)
    ]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in EXACT_UNITS:
            checks.check(len(set(values)) == 1, f"{name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    traced_s = statistics.median(p.headline_s for p in traced)
    untraced_s = statistics.median(p.headline_s for p in untraced)
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "1")
    spans = {
        "setup": setup_tracer.dump(),
        "passes": [p.tracer.dump() for p in traced],
        "summary": summaries,
    }
    return metrics, spans
