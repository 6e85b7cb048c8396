#!/usr/bin/env python3
"""Schema check for a METRICS_*.json snapshot written by a bench binary.

CI runs this after `bench_micro --report-kernels` to catch silent
instrumentation regressions: if a refactor drops a metric registration
(or renames it outside the kdsel.<layer>.<name> convention), the
snapshot loses the key and this script fails the job.

Only metrics the bench path actually exercises are required -- trainer
and pruning metrics belong to `kdsel trace` runs. The default `micro`
profile requires bench_micro's parallel/kernel metrics in
METRICS_kernels.json.

`--profile kernels` instead validates a BENCH_kernels.json written by
`bench_micro --report-kernels`: every dispatch variant that reports at
all must carry the full workload set including the int8 rows
(i8_matmul_256, selector_forward_int8) with their speedup_vs_fp32
metric and one fp32 and one int8 row per ConvNet conv layer shape
(conv_fp32_* / conv_int8_*), one training-batch Conv1d backward row
per layer shape (conv_bwd_fp32_*), one ReLU backward row per ResNet
width (relu_bwd_fp32_*) and one ResNet training-step row
(resnet_step_fp32_b64), each with its speedup_vs_scalar, and no row may
smuggle in a non-positive speedup_vs_1t (the writer omits the key when
there is no 1-thread baseline).

`--profile ops` validates a live-telemetry snapshot: one `ops` reply
line, from `kdsel ops --connect HOST:PORT` or from an inline
{"op":"ops"} in a `kdsel serve` stdin session (both transports answer
it alike). The envelope must be ok:true with stats (including
shed/shed_rate), a shedder object, and a metrics snapshot where every
per-stage request histogram (kdsel.net.stage.* and kdsel.net.e2e) is
present AND non-empty: a stage histogram with zero samples under load
means the request-tracing path silently stopped stamping that stage.

Usage: check_metrics_snapshot.py [--profile micro] METRICS_kernels.json
       check_metrics_snapshot.py --profile kernels BENCH_kernels.json
       check_metrics_snapshot.py --profile ops ops_snapshot.json
"""

import json
import sys

# (section, metric name) pairs that the `micro` profile requires a bench
# run to have populated. Counters/gauges map to numbers, histograms to
# summary dicts.
MICRO_REQUIRED = [
    ("counters", "kdsel.parallel.jobs"),
    ("counters", "kdsel.parallel.chunks"),
    ("counters", "kdsel.nn.workspace.pool_hits"),
    ("counters", "kdsel.nn.workspace.pool_misses"),
    ("gauges", "kdsel.parallel.threads"),
    ("gauges", "kdsel.nn.kernel_variant"),
    ("histograms", "kdsel.parallel.job_us"),
]

HISTOGRAM_KEYS = [
    "count", "samples", "min", "max", "mean", "p50", "p95", "p99", "p999",
]

# Workloads every reporting dispatch variant must measure at 1 thread in
# BENCH_kernels.json. The int8 rows are load-bearing: dropping them
# would silently retire the quantized-inference perf tracking.
# The per-layer conv rows are the before/after record of the Conv1d
# forward kernel: ConvNet's three layer shapes, fp32 and int8.
CONV_LAYER_SHAPES = ["1x16k7", "16x32k5", "32x32k3"]
CONV_LAYER_WORKLOADS = [
    f"conv_{precision}_{shape}"
    for shape in CONV_LAYER_SHAPES
    for precision in ("fp32", "int8")
]

# The per-layer backward rows are the before/after record of the Conv1d
# backward kernel: the first layer, ConvNet's second and third, and
# ResNet's widest, at the training batch.
CONV_BWD_LAYER_SHAPES = ["1x16k7", "16x32k5", "32x32k3", "32x32k7"]
CONV_BWD_LAYER_WORKLOADS = [
    f"conv_bwd_fp32_{shape}" for shape in CONV_BWD_LAYER_SHAPES
]

# The training-step rows record the layers outside the Ops table: ReLU
# backward at ResNet's two widths and one whole ResNet step (B = 64).
TRAIN_STEP_WORKLOADS = [
    "relu_bwd_fp32_16x64",
    "relu_bwd_fp32_32x64",
    "resnet_step_fp32_b64",
]

PER_LAYER_WORKLOADS = (
    CONV_LAYER_WORKLOADS + CONV_BWD_LAYER_WORKLOADS + TRAIN_STEP_WORKLOADS
)

KERNEL_WORKLOADS = [
    "matmul_256",
    "i8_matmul_256",
    "conv1d_forward",
    "selector_forward_fp32",
    "selector_forward_int8",
] + PER_LAYER_WORKLOADS

# (workload prefix, required metrics key) for kernel report rows.
KERNEL_REQUIRED_METRICS = [
    ("i8_matmul_256:", "speedup_vs_fp32"),
    ("i8_matmul_256:", "speedup_vs_scalar"),
    ("selector_forward_int8:", "speedup_vs_fp32"),
] + [(f"{workload}:", "speedup_vs_scalar")
     for workload in PER_LAYER_WORKLOADS]


def check_bench_kernels(path, snapshot):
    errors = []
    entries = snapshot.get("entries")
    if not isinstance(entries, list) or not entries:
        return [f"{path}: missing or empty 'entries'"]
    variants = sorted(
        {e["name"].split(":", 1)[1]
         for e in entries if ":" in e.get("name", "")}
    )
    if "scalar" not in variants:
        errors.append(f"{path}: no scalar-variant rows (got {variants})")
    rows = {(e.get("name"), e.get("threads")) for e in entries}
    for variant in variants:
        for workload in KERNEL_WORKLOADS:
            if (f"{workload}:{variant}", 1) not in rows:
                errors.append(
                    f"{path}: missing 1-thread row '{workload}:{variant}'"
                )
    for e in entries:
        name = e.get("name", "?")
        speedup = e.get("speedup_vs_1t")
        if speedup is not None and not speedup > 0:
            errors.append(
                f"{path}: '{name}' has non-positive speedup_vs_1t "
                f"{speedup!r} (must be omitted without a baseline)"
            )
        metrics = e.get("metrics", {})
        for prefix, key in KERNEL_REQUIRED_METRICS:
            if name.startswith(prefix) and key not in metrics:
                errors.append(f"{path}: '{name}' missing metric '{key}'")
    return errors


# Per-request stage histograms the net layer must populate under load.
# An empty one means a stage stopped being stamped (or RecordFlushed
# stopped running), which is exactly the silent regression this guards.
OPS_STAGE_HISTOGRAMS = [
    "kdsel.net.stage.parse",
    "kdsel.net.stage.queue",
    "kdsel.net.stage.batch_wait",
    "kdsel.net.stage.compute",
    "kdsel.net.stage.write",
    "kdsel.net.e2e",
]

# Stats fields every ops snapshot must expose (mirrors the final-stats
# print of `kdsel serve`; shed_rate is the fraction form of shed).
OPS_REQUIRED_STATS = [
    "submitted",
    "completed",
    "failed",
    "shed",
    "shed_rate",
]

# Shedder-decision metrics the admission controller publishes.
OPS_SHEDDER_GAUGES = [
    "kdsel.net.shed_state",
    "kdsel.net.shed_window_p99_us",
]


def check_ops_snapshot(path, snapshot):
    errors = []
    if snapshot.get("ok") is not True:
        errors.append(f"{path}: reply is not ok:true")
        return errors
    stats = snapshot.get("stats")
    if not isinstance(stats, dict):
        errors.append(f"{path}: missing 'stats' object")
    else:
        for key in OPS_REQUIRED_STATS:
            if not isinstance(stats.get(key), (int, float)):
                errors.append(f"{path}: stats missing numeric '{key}'")
    shedder = snapshot.get("shedder")
    if not isinstance(shedder, dict):
        errors.append(
            f"{path}: missing 'shedder' object (an ops reply carries one "
            "on every transport; its absence means the snapshot path "
            "regressed)"
        )
    else:
        for key in ("state", "window_p99_us", "transitions", "shed"):
            if key not in shedder:
                errors.append(f"{path}: shedder missing '{key}'")
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict):
        errors.append(f"{path}: missing 'metrics' snapshot")
        return errors
    gauges = metrics.get("gauges", {})
    for name in OPS_SHEDDER_GAUGES:
        if not isinstance(gauges.get(name), (int, float)):
            errors.append(f"{path}: missing shedder gauge '{name}'")
    histograms = metrics.get("histograms", {})
    for name in OPS_STAGE_HISTOGRAMS:
        hist = histograms.get(name)
        if not isinstance(hist, dict):
            errors.append(f"{path}: missing stage histogram '{name}'")
            continue
        for key in HISTOGRAM_KEYS:
            if key not in hist:
                errors.append(f"{path}: histogram '{name}' missing '{key}'")
        if not hist.get("samples", 0) > 0:
            errors.append(
                f"{path}: stage histogram '{name}' is empty under load -- "
                "the request-tracing path stopped stamping this stage"
            )
    return errors


def main(argv):
    args = argv[1:]
    profile = "micro"
    if args and args[0] == "--profile":
        known = {"micro", "kernels", "ops"}
        if len(args) < 2 or args[1] not in known:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        profile = args[1]
        args = args[2:]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = args[0]
    with open(path, "r", encoding="utf-8") as f:
        snapshot = json.load(f)

    if profile == "ops":
        errors = check_ops_snapshot(path, snapshot)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            return 1
        populated = sum(
            1 for name in OPS_STAGE_HISTOGRAMS
            if snapshot["metrics"]["histograms"][name]["samples"] > 0
        )
        print(
            f"{path}: ok ({populated}/{len(OPS_STAGE_HISTOGRAMS)} stage "
            "histograms populated, shedder state exported)"
        )
        return 0

    if profile == "kernels":
        errors = check_bench_kernels(path, snapshot)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            return 1
        print(
            f"{path}: ok ({len(snapshot['entries'])} rows, int8, "
            "per-layer conv and training-step workloads present)"
        )
        return 0

    errors = []
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            errors.append(f"missing section '{section}'")
    for section, name in MICRO_REQUIRED:
        value = snapshot.get(section, {}).get(name)
        if value is None:
            errors.append(f"missing {section[:-1]} '{name}'")
        elif section == "histograms":
            for key in HISTOGRAM_KEYS:
                if key not in value:
                    errors.append(f"histogram '{name}' missing key '{key}'")
        elif not isinstance(value, (int, float)):
            errors.append(f"{section[:-1]} '{name}' is not numeric: {value!r}")

    # Names outside the convention are almost always typos.
    for section in ("counters", "gauges", "histograms"):
        for name in snapshot.get(section, {}):
            if not name.startswith("kdsel."):
                errors.append(
                    f"{section[:-1]} '{name}' violates kdsel.<layer>.<name>"
                )

    if errors:
        for error in errors:
            print(f"{path}: {error}", file=sys.stderr)
        return 1
    total = sum(len(snapshot.get(s, {})) for s in
                ("counters", "gauges", "histograms"))
    print(f"{path}: ok ({total} metrics, all required keys present)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
