"""Run one splitsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-quadratic --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from a traced run (see README.md).
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "1/s"),
              ("peak_rss_mb", "MB")]

# a traced run stops after this many times --seconds even if it has not
# yet timed enough runs for the run-time percentile
TRACE_TIME_CAP = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> bool:
    """Import splitsim from this checkout's src/; False if that fails."""
    sys.path.insert(0, str(SRC))
    try:
        import splitsim
    except ImportError as e:
        print(f"perfbench: cannot import splitsim from {SRC}: {e}",
              file=sys.stderr)
        return False
    if Path(splitsim.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: splitsim was imported from {splitsim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return False
    return True


class RunCounter:
    """on_result hook of the traced run_training: steps and divergences."""

    def __init__(self):
        self.steps = 0
        self.diverged = 0

    def __call__(self, trace):
        self.steps += int(trace.steps.sum())
        self.diverged += bool(trace.any_diverged)


def _run_job(wl, tracer=None):
    """One job, timed; returns (seconds, result, outputs, fingerprint)."""
    wl.reset()
    if tracer is None:
        t0 = time.perf_counter()
        result = wl.job()
        wall = time.perf_counter() - t0
    else:
        tracer.reset()
        with tracer:
            t0 = time.perf_counter()
            result = wl.job()
            wall = time.perf_counter() - t0
    outputs = wl.outputs(result)
    return wall, result, outputs, wl.fingerprint(outputs)


def _tracer(counter):
    import layers
    from tracer import Tracer
    return Tracer(layers.targets(), on_result={"engine.run_training": counter})


def measure(wl, seconds, setup_s):
    """End-to-end metrics: untraced jobs for ``seconds`` after a warm-up.

    The warm-up job is traced: it lets lazy set-up finish, counts the
    job's steps and gives the reference outputs that every untraced job
    must reproduce bit for bit.
    """
    counter = RunCounter()
    tracer = _tracer(counter)
    _, warm, ref_outputs, ref = _run_job(wl, tracer)
    attempted, failed, fails = warm.attempted, warm.failed, []
    walls = []
    begin = time.perf_counter()
    while True:
        wall, res, _, fp = _run_job(wl)
        walls.append(wall)
        attempted += res.attempted
        failed += res.failed
        if fp != ref:
            fails.append(f"job {len(walls)}: outputs differ from the traced "
                         "warm-up job")
        if time.perf_counter() - begin >= seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(walls)
    values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_mb}
    if not any(layer == "engine.run_training" for _, layer in tracer.missing):
        values["steps_per_s"] = counter.steps / wall_s
    print(f"{len(walls)} timed jobs, {counter.steps} steps per job",
          file=sys.stderr)
    return values, attempted, failed, fails + wl.check(ref_outputs)


def measure_traced(wl_cls, wl, seed, workdir, seconds):
    """Per-layer metrics: alternate untraced and traced jobs.

    Runs until ``seconds`` have passed and enough runs were traced for the
    run-time percentile.  Every traced job must reproduce the untraced
    outputs bit for bit; so must the traced rebuild of the inputs.
    """
    import layers
    counter = RunCounter()
    tracer = _tracer(counter)
    fails = []
    (workdir / "traced-inputs").mkdir()
    tracer.reset()
    with tracer:
        wl_traced = wl_cls(seed, workdir / "traced-inputs")
    prepare_spans = dict(tracer.spans)
    if wl_traced.inputs_digest() != wl.inputs_digest():
        fails.append("traced set-up built different inputs")

    _, warm, ref_outputs, ref = _run_job(wl)
    attempted, failed = warm.attempted, warm.failed
    plain, traced, spans = [], [], []
    begin = time.perf_counter()
    while True:
        for tr in (None, tracer):
            wall, res, _, fp = _run_job(wl, tr)
            attempted += res.attempted
            failed += res.failed
            (plain if tr is None else traced).append(wall)
            if fp != ref:
                fails.append(f"{'traced' if tr else 'untraced'} job "
                             f"{len(plain)}: outputs differ")
        spans.append(dict(tracer.spans))
        runs = sum(s["engine.run_training"].calls for s in spans
                   if "engine.run_training" in s)
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (runs >= layers.MIN_RUNS_FOR_P90
                                   or elapsed >= TRACE_TIME_CAP * seconds):
            break
    for name, _ in tracer.missing:
        print(f"perfbench: {name} no longer exists; its metrics are missing",
              file=sys.stderr)
    values = layers.layer_values(
        spans, prepare_spans, wl.bytes_written(ref_outputs),
        counter.diverged // len(spans),
        statistics.median(traced) - statistics.median(plain),
        layers.missing_layers(tracer.missing))
    return values, attempted, failed, fails + wl.check(ref_outputs)


def main(argv=None) -> int:
    args = _parse(argv)
    # one process, no threads: a BLAS thread pool only contends on the
    # small matrices here; must be set before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not _import_program():
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"

    try:
        workdir.mkdir(parents=True)
        wl = wl_cls(args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.trace:
            values, attempted, failed, fails = measure_traced(
                wl_cls, wl, args.seed, workdir, args.seconds)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values, attempted, failed, fails = measure(
                wl, args.seconds, setup_s)
            units = dict(END_TO_END)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    for msg in fails:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations attempted = {attempted}, failed = {failed}")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
