import numpy as np
import pytest

import splitsim as ss
from splitsim.metrics import DivergedTrace
from splitsim.theory import ConstraintViolation


def pair(sigma=0.0):
    return ss.scalar_pair(sigma=sigma)


class TestMeasureDrift:
    def test_zero_lr_zero_drift(self):
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=5, local_steps=2,
                             lr=0.0, x0=[1.0])
        trace = ss.run_training(pair(), cfg)
        assert all(ss.measure_drift(trace, r) == 0.0 for r in range(5))

    def test_hand_example(self):
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=1, local_steps=1,
                             lr=0.1, order_policy="fixed")
        trace = ss.run_training(pair(), cfg)
        assert ss.measure_drift(trace, 0) == pytest.approx(0.01)

    def test_iid_deterministic_drift_by_hand(self):
        # two identical clients, K=1: client 1 stays at x, client 2 starts at
        # the post-step point, so drift = 0 + (lr * grad)^2
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0])] * 2)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=1, local_steps=1,
                             lr=0.1, order_policy="fixed")
        trace = ss.run_training(fam, cfg)
        assert ss.measure_drift(trace, 0) == pytest.approx(0.1**2)

    def test_diverged_round_rejected(self):
        fam = ss.scalar_pair(curvature=10.0)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=20, local_steps=5,
                             lr=0.25, x0=[2.0])
        trace = ss.run_training(fam, cfg)
        with pytest.raises(DivergedTrace):
            ss.measure_drift(trace, trace.diverged_at)


class TestDriftLemma:
    def test_zero_violations_scalar_pair(self):
        fam = ss.scalar_pair(sigma=1.0)
        consts = ss.analytic_constants(fam)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=200, local_steps=2,
                             lr=0.05, x0=[2.0])
        report = ss.check_drift_lemma(fam, cfg, seeds=range(20), constants=consts)
        assert report.ok

    def test_at_optimum_both_sides_zero(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [0.0])] * 2)
        consts = ss.analytic_constants(fam)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=10, local_steps=1,
                             lr=0.05, x0=[0.0])
        report = ss.check_drift_lemma(fam, cfg, seeds=[0], constants=consts)
        assert np.all(report.mean_drift == 0.0)
        assert np.all(report.mean_bound == 0.0)

    def test_near_constraint_edge(self):
        fam = ss.scalar_pair(sigma=1.0)
        consts = ss.analytic_constants(fam)
        lr = 0.99 / (2 * 2 * 2 * consts.L)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=50, local_steps=2,
                             lr=lr, x0=[1.0])
        report = ss.check_drift_lemma(fam, cfg, seeds=range(20), constants=consts)
        assert report.ok
        assert np.all(np.isfinite(report.mean_bound))

    def test_constraint_refused(self):
        fam = pair()
        consts = ss.analytic_constants(fam)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=5, local_steps=2,
                             lr=1.0)
        with pytest.raises(ConstraintViolation):
            ss.check_drift_lemma(fam, cfg, seeds=[0], constants=consts)


class TestAveragedGradNorm:
    def test_single_round(self):
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=1, local_steps=1,
                             lr=0.01, x0=[2.0])
        trace = ss.run_training(pair(), cfg)
        assert ss.averaged_grad_norm(trace) == pytest.approx(trace.grad_norm_sq[0])

    def test_symmetric_average_is_zero(self):
        fam = pair()
        traces = []
        for x0 in (1.0, -1.0):
            cfg = ss.TrainConfig(algorithm="fl", n_clients=2, rounds=1, local_steps=1,
                                 lr=0.0, x0=[x0])
            traces.append(ss.run_training(fam, cfg))
        avg = (traces[0].avg_x + traces[1].avg_x) / 2
        assert np.sum(ss.global_grad(fam, avg)**2) == pytest.approx(0.0)

    def test_mean_then_gradient_not_mean_of_norms(self):
        fam = pair()
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=50, local_steps=2,
                             lr=0.02, x0=[3.0], seed=3)
        trace = ss.run_training(fam, cfg)
        brute = np.sum(ss.global_grad(fam, trace.iterates.mean(axis=0))**2)
        assert ss.averaged_grad_norm(trace) == pytest.approx(brute, rel=1e-12)
        assert ss.averaged_grad_norm(trace) != pytest.approx(
            np.mean(trace.grad_norm_sq), rel=1e-3)

    def test_diverged_rejected(self):
        fam = ss.scalar_pair(curvature=10.0)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=20, local_steps=5,
                             lr=0.25, x0=[2.0])
        trace = ss.run_training(fam, cfg)
        with pytest.raises(DivergedTrace):
            ss.averaged_grad_norm(trace)


class TestLrSweep:
    def test_default_grid_has_six_points(self):
        assert len(ss.DEFAULT_LR_GRID) == 6

    def test_no_divergence_threshold_above_grid(self):
        fam = pair()
        cfg = ss.TrainConfig(algorithm="fl", n_clients=2, rounds=30, local_steps=1,
                             lr=0.01, x0=[2.0])
        res = ss.lr_sweep(fam, cfg)
        assert res.threshold_lr is None
        assert res.threshold_label() == "> 0.1"

    def test_sl_threshold_below_fl(self):
        # shared curvature means identical noiseless stability, so the
        # separation comes from the noise floor: the relay output is one
        # client's unaveraged iterate while FedAvg divides the noise by N
        fam = ss.quadratic_family(10, dim=1, heterogeneity=2.0, curvature=15.0,
                                  sigma=3.0, seed=0)
        base = dict(n_clients=10, rounds=60, local_steps=5, x0=fam.optimum())
        seeds = range(5)
        sl = ss.lr_sweep(fam, ss.TrainConfig(algorithm="sl", lr=0.01, **base),
                         seeds=seeds)
        fl = ss.lr_sweep(fam, ss.TrainConfig(algorithm="fl", lr=0.01, **base),
                         seeds=seeds)
        assert sl.threshold_lr is not None
        assert fl.threshold_lr is None or sl.threshold_lr < fl.threshold_lr

    def test_determinism(self):
        fam = ss.scalar_pair(sigma=0.5)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=20, local_steps=2,
                             lr=0.01, x0=[1.0])
        a = ss.lr_sweep(fam, cfg, seeds=[1, 2, 3])
        b = ss.lr_sweep(fam, cfg, seeds=[1, 2, 3])
        assert a == b

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            ss.lr_sweep(pair(), ss.TrainConfig(), grid=[0.1, 0.01])


class TestRateExponent:
    def test_exact_inverse_sqrt(self):
        pts = [(r, 1 / np.sqrt(r)) for r in (16, 64, 256, 1024)]
        assert ss.fit_rate_exponent(pts) == pytest.approx(-0.5, abs=1e-9)

    def test_exact_inverse(self):
        pts = [(r, 10 / r) for r in (16, 64, 256, 1024)]
        assert ss.fit_rate_exponent(pts) == pytest.approx(-1.0, abs=1e-9)

    def test_nonpositive_metric_rejected(self):
        with pytest.raises(ValueError):
            ss.fit_rate_exponent([(16, 1.0), (64, 0.0), (256, 1.0), (1024, 1.0)])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            ss.fit_rate_exponent([(16, 1.0), (64, 0.5)])


class TestRoundsToEpsilon:
    def test_basic(self):
        fam = pair()
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=200, local_steps=1,
                             lr=0.05, x0=[3.0])
        trace = ss.run_training(fam, cfg)
        r = ss.rounds_to_epsilon(trace, fam.min_loss(), 0.1)
        assert r is not None and 0 < r < 200

    def test_never_reached(self):
        fam = pair()
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=3, local_steps=1,
                             lr=1e-6, x0=[3.0])
        trace = ss.run_training(fam, cfg)
        assert ss.rounds_to_epsilon(trace, fam.min_loss(), 1e-3) is None
