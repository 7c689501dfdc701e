"""Which splitsim names the traced run wraps, and the per-layer metrics.

Every target is wrapped where its caller looks it up (see tracer.py):
the engine draws its per-step generators through ``splitsim.engine.stream``,
``lr_sweep`` reaches the engine through ``splitsim.metrics.run_training``,
the harness reaches the sweep through ``splitsim.harness.lr_sweep`` and the
benchmark itself calls ``splitsim.engine.run_training`` and
``splitsim.partition.partition_dirichlet`` as module attributes.

``theory`` is not wrapped: it is closed-form arithmetic that costs
microseconds and no workload's time depends on it.
"""

from __future__ import annotations

import statistics

from splitsim import engine, harness, metrics, objectives, partition

FAMILIES = (objectives.QuadraticFamily, objectives.LogisticFamily,
            objectives.MlpObjective)
ROUND_LAYERS = ("engine.sl_round", "engine.fl_round", "engine.minibatch_round")

# (name, unit, better), in the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("rng.stream.calls", "count", "lower"),
    ("rng.stream.self_s", "s", "lower"),
    ("objectives.stochastic_grad.calls", "count", "lower"),
    ("objectives.stochastic_grad.self_s", "s", "lower"),
    ("objectives.global_loss.calls", "count", "lower"),
    ("objectives.global_loss.self_s", "s", "lower"),
    ("objectives.global_grad.calls", "count", "lower"),
    ("objectives.global_grad.self_s", "s", "lower"),
    ("objectives.client_evals", "count", "lower"),
    ("objectives.monolithic_loss_grad.calls", "count", "lower"),
    ("objectives.monolithic_loss_grad.self_s", "s", "lower"),
    ("engine.run_training.calls", "count", "lower"),
    ("engine.run_training.self_s", "s", "lower"),
    ("engine.run_training.p50_ms", "ms", "lower"),
    ("engine.run_training.p90_ms", "ms", "lower"),
    ("engine.local_update.calls", "count", "lower"),
    ("engine.local_update.self_s", "s", "lower"),
    ("engine.sl_round.self_s", "s", "lower"),
    ("engine.fl_round.self_s", "s", "lower"),
    ("engine.minibatch_round.self_s", "s", "lower"),
    ("engine.rounds", "count", "lower"),
    ("engine.runs_diverged", "count", "lower"),
    ("metrics.lr_sweep.calls", "count", "lower"),
    ("metrics.lr_sweep.self_s", "s", "lower"),
    ("partition.partition_dirichlet.self_s", "s", "lower"),
    ("harness.cmd_sweep.self_s", "s", "lower"),
    ("harness.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# layers timed while the inputs are built, not inside the jobs
PREPARE_LAYERS = ("partition.partition_dirichlet",)

# the percentile is reported only over at least this many timed runs
MIN_RUNS_FOR_P90 = 40


def targets():
    """(owner, attribute, layer, kind) for every wrapped name."""
    t = [(engine, "stream", "rng.stream", "span")]
    t += [(cls, "stochastic_grad", "objectives.stochastic_grad", "span")
          for cls in FAMILIES]
    t += [(objectives, "global_loss", "objectives.global_loss", "span"),
          (objectives, "global_grad", "objectives.global_grad", "span")]
    t += [(cls, name, "objectives.client_evals", "count")
          for cls in FAMILIES for name in ("local_loss", "local_grad")]
    t += [(objectives, "monolithic_loss_grad",
           "objectives.monolithic_loss_grad", "span")]
    t += [(mod, "run_training", "engine.run_training", "span")
          for mod in (engine, metrics, harness)]
    t += [(engine, "local_update", "engine.local_update", "span")]
    t += [(engine, layer.split(".")[1], layer, "span") for layer in ROUND_LAYERS]
    t += [(harness, "lr_sweep", "metrics.lr_sweep", "span")]
    # the CLI entry (argument and config parsing) and the subcommand body
    # share one layer, so its self time is everything the harness does
    # around lr_sweep
    t += [(harness, "main", "harness.cmd_sweep", "span"),
          (harness, "cmd_sweep", "harness.cmd_sweep", "span")]
    t += [(partition, "partition_dirichlet", "partition.partition_dirichlet",
           "span")]
    return t


def missing_layers(missing) -> set:
    """Layers to leave out, given the tracer's (name, layer) misses."""
    out = {layer for _, layer in missing}
    if out & set(ROUND_LAYERS):
        out.add("engine.rounds")
    if "engine.run_training" in out:
        out.add("engine.runs_diverged")
    return out


def layer_values(jobs, prepare_spans, bytes_written, diverged_runs,
                 overhead_s, missing) -> dict:
    """Per-layer metric values from the traced jobs of one run.

    ``jobs`` holds one ``{layer: SpanStats}`` per traced job.  Counts are
    the same in every job (a job is a pure function of its inputs), so the
    first job's are taken; times are the median over jobs.  Run-time percentiles pool every traced
    ``run_training`` span.  A metric of a layer in ``missing`` is left out.
    """
    def per_job(layer, attr):
        vals = [getattr(j[layer], attr) if layer in j else 0 for j in jobs]
        return int(vals[0]) if attr == "calls" else statistics.median(vals)

    values = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = per_job(layer, "calls")
        elif stat == "self_s" and layer in PREPARE_LAYERS:
            values[name] = (prepare_spans[layer].self_s
                            if layer in prepare_spans else 0.0)
        elif stat == "self_s":
            values[name] = per_job(layer, "self_s")
    values["objectives.client_evals"] = per_job("objectives.client_evals", "calls")
    values["engine.rounds"] = sum(per_job(layer, "calls") for layer in ROUND_LAYERS)
    values["engine.runs_diverged"] = diverged_runs
    values["harness.bytes_written"] = bytes_written
    values["trace.overhead_s"] = overhead_s
    runs_ms = sorted(1e3 * d for j in jobs
                     for d in (j["engine.run_training"].durations
                               if "engine.run_training" in j else ()))
    if runs_ms:
        values["engine.run_training.p50_ms"] = statistics.median(runs_ms)
    if len(runs_ms) >= MIN_RUNS_FOR_P90:
        values["engine.run_training.p90_ms"] = statistics.quantiles(
            runs_ms, n=10)[-1]

    return {name: values[name] for name, _, _ in PER_LAYER
            if name in values and name.rpartition(".")[0] not in missing
            and name not in missing}
