"""End-to-end acceptance checks.

Each test prints one pass/fail line (run with ``pytest tests/test_acceptance.py -s``
to see them). Criterion 11 is qualitative: a failure there is reported as a
warning to investigate, not as a build rejection.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import splitsim as ss
from splitsim.rng import STEP, stream

GRID = ss.DEFAULT_LR_GRID
MATRIX = [(n, k, sig, g) for n in (2, 5, 10) for k in (1, 2, 5)
          for sig in (0.0, 1.0) for g in (0.0, 1.0, 2.0)]


def _report(num: int, name: str, ok: bool, soft: bool = False):
    verdict = "PASS" if ok else ("FAIL (soft - investigate)" if soft else "FAIL")
    print(f"criterion {num:2d} ({name}): {verdict}")
    if not ok and soft:
        warnings.warn(f"soft acceptance criterion {num} ({name}) not met")
    elif not ok:
        pytest.fail(f"acceptance criterion {num} ({name}) not met")


def _family(n, g, sigma, curvature=1.0, seed=0):
    return ss.quadratic_family(n, dim=1, curvature=curvature, heterogeneity=g,
                               sigma=sigma, seed=seed)


def _matrix_lr(consts, n, k):
    return 0.5 * min(1 / (2 * n * k * consts.L), ss.max_lr_sl(consts, n, k))


def _best_tail_and_trace(fam, algo, seed, n, k, rounds, x0):
    """(last-10%-rounds mean loss, trace) at the best non-diverged grid lr."""
    best = None
    for lr in GRID:
        cfg = ss.TrainConfig(algorithm=algo, n_clients=n, rounds=rounds,
                             local_steps=k, lr=lr, seed=seed, x0=x0)
        t = ss.run_training(fam, cfg)
        if t.any_diverged:
            continue
        tail = float(np.mean(t.loss[-max(1, rounds // 10):]))
        if best is None or tail < best[0]:
            best = (tail, t)
    return best


def test_01_bound_formula_exactness():
    c = ss.HeterogeneityConstants(L=1.0, sigma2=0.0, B=1.0, G=1.0)
    rel = lambda a, b: abs(a - b) <= 1e-12 * abs(b)
    ok = rel(ss.sl_bound(ss.BoundInputs(c, 2, 1, 100, 0.001, init_gap=2.0)).total,
             40.000048)
    ok &= rel(ss.fl_bound(ss.BoundInputs(c, 2, 1, 100, 0.001, init_gap=2.0)).t1_init,
              80.0)
    ok &= rel(ss.one_client_bound(ss.BoundInputs(c, 2, 1, 10, 0.1, init_gap=1.0)),
              6.4)
    ok &= rel(ss.drift_bound(c, 2, 1, 0.1, 0.0), 0.32 / 0.84)
    c2 = ss.HeterogeneityConstants(L=1.0, sigma2=1.0, B=1.0, G=1.0)
    ok &= rel(ss.sl_corollary_rate(1.0, c2, 1, 1, 100), 0.98)
    _report(1, "bound exactness", bool(ok))


@pytest.fixture(scope="module")
def matrix_runs():
    """(family, constants, config, traces of seeds 0-19) per matrix point.

    Criteria 02 and 03 judge these same R = 200 sl runs. Criterion 03's
    R = 50 check reads their first 50 rounds: a shorter run is the prefix
    of a longer one (test_engine.py, test_shorter_run_is_prefix).
    """
    runs = []
    for n, k, sig, g in MATRIX:
        fam = _family(n, g, sig)
        consts = ss.analytic_constants(fam)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=n, rounds=200,
                             local_steps=k, lr=_matrix_lr(consts, n, k),
                             x0=fam.optimum() + 1.0)
        traces = [ss.run_training(fam, dataclasses.replace(cfg, seed=s))
                  for s in range(20)]
        runs.append((fam, consts, cfg, traces))
    return runs


def test_02_drift_lemma_inequality(matrix_runs):
    violations = 0
    for _, consts, cfg, traces in matrix_runs:
        violations += len(ss.check_drift_lemma(cfg, traces, consts).violations)
    _report(2, "drift lemma, zero violations", violations == 0)


def test_03_convergence_bound_inequality(matrix_runs):
    violations = 0
    for fam, consts, cfg, traces in matrix_runs:
        gap = ss.global_loss(fam, cfg.x0) - fam.min_loss()
        for rounds in (50, 200):
            total = ss.sl_bound(ss.BoundInputs(
                consts, cfg.n_clients, cfg.local_steps, rounds, cfg.lr,
                init_gap=gap)).total
            # the randomly-sampled-iterate convention: the bound controls
            # the round-mean of squared gradient norms
            measured = np.mean([np.mean(t.grad_norm_sq[:rounds])
                                for t in traces])
            # a non-finite mean is a violation too
            violations += not measured <= total
    _report(3, "convergence bound holds", violations == 0)


def test_04_convergence_rate():
    n, k = 4, 2
    fam = _family(n, 0.0, 1.0)
    pts = []
    for rounds in (16, 64, 256, 1024):
        lr = 1.0 / (n * k * math.sqrt(rounds))
        vals = [np.mean(ss.run_training(fam, ss.TrainConfig(
            algorithm="sl", n_clients=n, rounds=rounds, local_steps=k,
            lr=lr, seed=s, x0=[1.0])).grad_norm_sq) for s in range(20)]
        pts.append((rounds, float(np.mean(vals))))
    slope = ss.fit_rate_exponent(pts)
    _report(4, f"rate exponent {slope:.3f} in [-0.65, -0.35]",
            -0.65 <= slope <= -0.35)


def test_05_split_protocol_equivalence():
    ok = True
    for t in range(100):
        rng = np.random.default_rng(t)
        din = int(rng.integers(1, 5))
        hidden = int(rng.integers(1, 5))
        dout = int(rng.integers(1, 4))
        batch = int(rng.integers(2, 7))
        steps = int(rng.integers(1, 6))
        lr = float(rng.uniform(0.005, 0.05))
        model = ss.SplitMlp.random(din, hidden, dout, rng)
        data = (rng.normal(size=(batch, din)), rng.normal(size=(batch, dout)))
        split, _ = ss.local_update(model.params, ss.MlpObjective(model, [data]),
                                   0, steps, lr, lambda k: rng)
        mono = model.params
        for _ in range(steps):
            mono = mono - lr * ss.monolithic_loss_grad(model, data, mono)[1]
        ok &= bool(np.allclose(split, mono, rtol=1e-12, atol=1e-14))
    _report(5, "split protocol matches monolithic", ok)


def test_06_sequential_composition():
    ok = True
    for t in range(50):
        rng = np.random.default_rng(1000 + t)
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        fam = ss.QuadraticFamily([
            ss.QuadraticClient(rng.uniform(0.5, 2.0, d), rng.normal(size=d))
            for _ in range(n)])
        lr = float(rng.uniform(0.001, 0.1))
        x0 = rng.normal(size=d)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=n, rounds=1,
                             local_steps=k, lr=lr, order_policy="fixed",
                             seed=t, x0=x0)
        out, _, _ = ss.sl_round(x0, fam, cfg, 0)
        cur = np.asarray(x0, dtype=float)
        for i in range(n):
            cur, _ = ss.local_update(
                cur, fam, i, k, lr, lambda kk, i=i: stream(t, STEP, 0, i, kk))
        ok &= bool(np.array_equal(out, cur))
    _report(6, "relay round equals composed SGD steps", ok)


def test_07_constraint_ratio_and_threshold():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        c = ss.HeterogeneityConstants(L=float(rng.uniform(0.1, 10)), sigma2=0.0,
                                      B=float(rng.uniform(1, 5)), G=0.0)
        n = int(rng.integers(1, 51))
        k = int(rng.integers(1, 21))
        ratio = ss.max_lr_fl(c, k, 1.0) / ss.max_lr_sl(c, n, k)
        ok &= abs(ratio - n) <= 1e-12 * n

    fam = ss.quadratic_family(10, dim=1, heterogeneity=2.0, curvature=15.0,
                              sigma=3.0, seed=0)
    base = dict(n_clients=10, rounds=60, local_steps=5, x0=fam.optimum())
    wins = 0
    for s in range(20):
        sl = ss.lr_sweep(fam, ss.TrainConfig(algorithm="sl", lr=0.01, **base),
                         seeds=[s])
        fl = ss.lr_sweep(fam, ss.TrainConfig(algorithm="fl", lr=0.01, **base),
                         seeds=[s])
        wins += (sl.threshold_lr is not None
                 and (fl.threshold_lr is None or sl.threshold_lr < fl.threshold_lr))
    _report(7, f"lr-cap ratio N; SL threshold below FL in {wins}/20 seeds",
            ok and wins >= 18)


def test_08_complexity_ordering():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(100):
        c = ss.HeterogeneityConstants(L=1.0, sigma2=float(rng.uniform(0, 4)),
                                      B=1.0, G=float(rng.uniform(0, 4)))
        f = float(rng.uniform(0.1, 5))
        n = int(rng.integers(1, 21))
        k = int(rng.integers(1, 11))
        eps = float(rng.uniform(0.01, 1))
        gap = (ss.round_complexity("sl", f, c, n, k, eps)
               - ss.round_complexity("fl", f, c, n, k, eps))
        expected = c.sigma2**2 * (1 - 1 / n**2) / (k**2 * eps**2)
        ok &= abs(gap - expected) <= 1e-9 * max(expected, 1e-12)

    n, k, rounds = 5, 20, 80
    fam = _family(n, 2.0, 1.0)
    x0 = fam.optimum() + 2.0
    fstar = fam.min_loss()
    eps = 0.2
    wins = 0
    for s in range(20):
        counts = {}
        for algo in ("fl", "sl"):
            best = _best_tail_and_trace(fam, algo, s, n, k, rounds, x0)
            if best is None:
                counts[algo] = rounds + 1
            else:
                r = ss.rounds_to_epsilon(best[1], fstar, eps)
                counts[algo] = rounds + 1 if r is None else r
        wins += counts["fl"] <= counts["sl"]
    _report(8, f"complexity gap formula; FL faster in {wins}/20 seeds",
            ok and wins >= 16)


def test_09_heterogeneity_degradation():
    n, k, rounds, eps = 4, 5, 50, 0.005
    lr = 0.9 / (2 * n * k * math.sqrt(3))
    means = []
    for g in (0.0, 1.0, 2.0, 4.0):
        fam = _family(n, g, 0.0)
        x0 = fam.optimum() + 2.0
        fstar = fam.min_loss()
        vals = []
        for s in range(20):
            t = ss.run_training(fam, ss.TrainConfig(
                algorithm="sl", n_clients=n, rounds=rounds, local_steps=k,
                lr=lr, seed=s, x0=x0))
            r = ss.rounds_to_epsilon(t, fstar, eps)
            vals.append(rounds + 1 if r is None else r)
        means.append(float(np.mean(vals)))
    mono = all(a <= b for a, b in zip(means, means[1:]))
    _report(9, f"rounds-to-eps nondecreasing in G: {means}", mono)


def test_10_partition_invariants():
    labels = np.repeat(np.arange(10), 60)
    ok = True
    for seed in range(20):
        for p in (ss.partition_dirichlet(labels, 8, 0.5, seed),
                  ss.partition_classes(labels, 8, 2, seed)):
            union = sorted(i for a in p.assignments for i in a)
            ok &= union == list(range(labels.size))
            ok &= all(len(a) >= 1 for a in p.assignments)
    a = ss.partition_dirichlet(labels, 8, 0.5, 3)
    b = ss.partition_dirichlet(labels, 8, 0.5, 3)
    ok &= a.assignments == b.assignments
    ent = []
    for alpha in (100.0, 5.0, 0.5, 0.2):
        vals = [np.mean(ss.partition_stats(
            ss.partition_dirichlet(labels, 8, alpha, s))["entropy"])
            for s in range(20)]
        ent.append(np.mean(vals))
    ok &= all(x >= y for x, y in zip(ent, ent[1:]))
    for seed in range(20):
        lo = ss.partition_classes(labels, 10, 2, seed)
        hi = ss.partition_classes(labels, 10, 3, seed)
        ok &= max(len(c) for c in lo.class_counts) <= 3
        ok &= (np.mean([len(c) for c in lo.class_counts])
               <= np.mean([len(c) for c in hi.class_counts]))
    _report(10, "partition invariants", bool(ok))


def test_11_small_interval_reversal():
    n, k, rounds = 10, 1, 12
    fam = _family(n, 1.0, 0.5)
    x0 = fam.optimum() + 5.0
    wins = 0
    for s in range(20):
        best = {algo: _best_tail_and_trace(fam, algo, s, n, k, rounds, x0)
                for algo in ("sl", "fl")}
        if best["sl"] is not None and (best["fl"] is None
                                       or best["sl"][0] <= best["fl"][0]):
            wins += 1
    _report(11, f"SL beats FL at K=1 in {wins}/20 seeds", wins >= 14,
            soft=True)
