"""The benchmark's own tests: every output check fails on a corrupted input.

    python -m pytest -q perfbench/selftest.py

Each workload is run once at a reduced size, its real outputs must pass
every check, and then one output at a time is corrupted.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from splitsim import objectives  # noqa: E402
from tracer import Tracer, _lookup  # noqa: E402


class SmallSweep(workloads.SweepQuadratic):
    ROUNDS, N_SEEDS = 5, 2


class SmallLogistic(workloads.NoniidLogistic):
    POOL, ROUNDS, N_SEEDS = 2000, 6, 1


class SmallMlp(workloads.MlpRelay):
    N_CLIENTS, SAMPLES, ROUNDS, N_SEEDS = 3, 96, 3, 1


def _run(cls, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    wl = cls(0, workdir)
    wl.reset()
    result = wl.job()
    assert result.failed == 0
    return wl, wl.outputs(result)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _run(SmallSweep, tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def logistic(tmp_path_factory):
    return _run(SmallLogistic, tmp_path_factory.mktemp("logistic"))


@pytest.fixture(scope="module")
def mlp(tmp_path_factory):
    return _run(SmallMlp, tmp_path_factory.mktemp("mlp"))


def test_real_outputs_pass(sweep, logistic, mlp):
    for wl, outputs in (sweep, logistic, mlp):
        assert wl.check(outputs) == []


# ---------------------------------------------------------------------------
# sweep-quadratic


def _edit_csv(files, name, edit):
    """Apply edit(row dict) to every data row of one sweep CSV."""
    lines = files[name].decode().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    cols = rows[0]
    out = []
    for r in rows[1:]:
        row = dict(zip(cols, r))
        edit(row)
        out.append(",".join(row[c] for c in cols))
    files = dict(files)
    files[name] = "\n".join(head + [",".join(cols)] + out).encode()
    return files


def test_iid_expectation_catches_a_biased_metric(sweep):
    wl, files = sweep

    def bias(row):
        if row["diverged"] == "0":
            row["metric"] = repr(float(row["metric"]) * 1.2)

    bad = _edit_csv(files, "fl/sweep_fl_G0.csv", bias)
    fails = wl.check(bad)
    assert fails and all("expected" in f for f in fails)


def test_iid_expectation_tells_the_algorithms_apart(sweep):
    # relay outputs read as FedAvg ones: K steps per round instead of N K
    wl, files = sweep
    points = workloads.parse_sweep(files["sl/sweep_sl_G0.json"],
                                   files["sl/sweep_sl_G0.csv"])
    relabelled = [dataclasses.replace(p, algorithm="fl") for p in points]
    assert checks.check_iid_expectation(points, wl.setup_params()) == []
    assert checks.check_iid_expectation(relabelled, wl.setup_params())


def test_floor_catches_a_metric_below_f_star(sweep):
    wl, files = sweep
    bad = _edit_csv(files, "sl/sweep_sl_G2.csv",
                    lambda row: row.update(metric="0.01")
                    if row["diverged"] == "0" else None)
    assert any("below f*" in f for f in wl.check(bad))


def test_divergence_flags_are_checked_both_ways(sweep):
    wl, files = sweep

    def flip(row):
        row["diverged"] = "0" if row["diverged"] == "1" else "1"

    fails = wl.check(_edit_csv(files, "minibatch/sweep_minibatch_G2.csv", flip))
    assert any("not reported diverged" in f for f in fails)
    assert any("stable but reported diverged" in f for f in fails)


def test_manifest_must_match_the_directory(sweep):
    wl, files = sweep
    manifest = json.loads(files["sl/manifest.json"])
    manifest["files"] = manifest["files"][1:]
    bad = dict(files)
    bad["sl/manifest.json"] = json.dumps(manifest).encode()
    assert any("manifest lists" in f for f in wl.check(bad))
    extra = dict(files)
    extra["fl/stray.csv"] = b""
    assert any("manifest lists" in f for f in wl.check(extra))


def test_expected_tail_loss_matches_a_direct_simulation():
    # the closed-form recursion against plain Monte Carlo of the same SGD
    q = checks.QuadraticSetup(curvature=2.0, sigma=0.7, n_clients=3,
                              local_steps=2, dim=2, rounds=5, x0_sq=1.0,
                              n_seeds=1)
    lr, rng = 0.1, np.random.default_rng(0)
    for algo in ("sl", "fl", "minibatch"):
        e = np.tile([1.0, 0.0], (20000, 1))
        for _ in range(q.rounds - 1):
            noise = lambda: rng.normal(0, q.sigma / math.sqrt(q.dim), e.shape)
            if algo == "sl":
                for _ in range(q.n_clients * q.local_steps):
                    e = (1 - lr * q.curvature) * e - lr * noise()
            elif algo == "fl":
                outs = []
                for _ in range(q.n_clients):
                    c = e.copy()
                    for _ in range(q.local_steps):
                        c = (1 - lr * q.curvature) * c - lr * noise()
                    outs.append(c)
                e = np.mean(outs, axis=0)
            else:
                g = np.mean([noise() for _ in range(q.n_clients * q.local_steps)],
                            axis=0)
                e = (1 - lr * q.curvature) * e - lr * g
        simulated = 0.5 * q.curvature * np.mean(np.sum(e ** 2, axis=1))
        mean, _ = checks.expected_tail_loss(algo, lr, q)
        assert simulated == pytest.approx(mean, rel=0.03)


# ---------------------------------------------------------------------------
# noniid-logistic


def test_partition_check_catches_each_fault(logistic):
    wl, _ = logistic
    p = wl.partition
    a, counts = list(p.assignments), list(p.class_counts)
    dup = [a[0] + (a[1][0],)] + a[1:]
    assert checks.check_partition(dup, counts, wl.classes)
    empty = [()] + [a[0] + a[1]] + a[2:]
    assert any("empty" in f for f in checks.check_partition(
        empty, [{}] + [counts[0]] + counts[2:], wl.classes))
    skewed = [dict(counts[0])] + counts[1:]
    cls = next(iter(skewed[0]))
    skewed[0][cls] += 1
    assert any("class counts" in f
               for f in checks.check_partition(a, skewed, wl.classes))


def test_initial_loss_must_be_log_2(logistic):
    wl, traces = logistic
    tr = traces[0]
    bad = dataclasses.replace(tr, loss=tr.loss + np.r_[1e-9, np.zeros(tr.rounds - 1)])
    assert any("log 2" in f for f in wl.check([bad]))


def test_tail_loss_must_fall(logistic):
    wl, traces = logistic
    tr = traces[0]
    loss = tr.loss.copy()
    loss[-1] = loss[0] + 0.1
    assert any("not below initial" in f
               for f in wl.check([dataclasses.replace(tr, loss=loss)]))


def test_global_grad_must_match_the_loss(logistic, monkeypatch):
    wl, traces = logistic
    real = objectives.global_grad
    monkeypatch.setattr(objectives, "global_grad",
                        lambda fam, x: real(fam, x) * 1.01)
    assert any("central difference" in f for f in wl.check(traces))


# ---------------------------------------------------------------------------
# mlp-relay


def test_mlp_runs_must_not_diverge(mlp):
    wl, traces = mlp
    tr = traces[0]
    bad = dataclasses.replace(tr, diverged=np.ones_like(tr.diverged),
                              diverged_at=0)
    assert any("diverged" in f for f in wl.check([bad]))


def test_split_gradient_must_equal_local_grad(mlp, monkeypatch):
    wl, traces = mlp
    real = wl.objective.local_grad
    monkeypatch.setattr(wl.objective, "local_grad",
                        lambda i, x: real(i, x) + 1e-9)
    fails = wl.check(traces)
    assert fails and all("split and monolithic" in f for f in fails)


def test_split_gradient_must_match_the_loss(mlp, monkeypatch):
    wl, traces = mlp
    real = wl.objective.local_loss
    monkeypatch.setattr(wl.objective, "local_loss",
                        lambda i, x: 1.01 * real(i, x))
    fails = wl.check(traces)
    assert fails and all("central difference" in f for f in fails)


# ---------------------------------------------------------------------------
# tracing and the command line


def test_tracing_changes_no_output_and_restores_names(tmp_path):
    wl, plain = _run(SmallLogistic, tmp_path)
    before = {(o, a): _lookup(o, a) for o, a, _, _ in layers.targets()}
    counter = run.RunCounter()
    with Tracer(layers.targets(), {"engine.run_training": counter}) as tracer:
        traced = wl.job().traces
    assert wl.fingerprint(traced) == wl.fingerprint(plain)
    assert counter.steps == sum(int(t.steps.sum()) for t in plain)
    assert tracer.spans["engine.run_training"].calls == len(plain)
    after = {(o, a): _lookup(o, a) for o, a, _, _ in layers.targets()}
    assert before == after


def test_a_vanished_name_is_a_missing_metric_not_an_error():
    import splitsim.engine as engine
    targets = layers.targets() + [(engine, "no_such_round", "engine.sl_round", "span")]
    with Tracer(targets) as tracer:
        pass
    assert tracer.missing == [("splitsim.engine.no_such_round", "engine.sl_round")]
    gone = layers.missing_layers(tracer.missing)
    values = layers.layer_values([{}], {}, 0, 0, 0.0, gone)
    assert "engine.sl_round.self_s" not in values
    assert "engine.rounds" not in values
    assert "rng.stream.calls" in values


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)


def test_runner_fails_without_the_program(tmp_path):
    # a directory holding only the benchmark: no result, non-zero exit
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp-relay",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
