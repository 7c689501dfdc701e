import warnings
from dataclasses import replace

import numpy as np
import pytest

import splitsim as ss
from splitsim.engine import Divergence, step_rngs
from splitsim.rng import ORDER, STEP, stream


def pair():
    return ss.scalar_pair()  # centers (1, -1), unit curvature


def shared(g):
    """Per-step Generators for local_update: every step draws from ``g``."""
    return lambda k: g


class TestLocalUpdate:
    def test_one_step(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0])])
        out, visited = ss.local_update([0.0], fam, 0, 1, 0.1, shared(stream(0, 1)))
        assert out[0] == pytest.approx(0.1)
        assert len(visited) == 1 and visited[0][0] == 0.0

    def test_two_steps(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0])])
        out, visited = ss.local_update([0.0], fam, 0, 2, 0.1, shared(stream(0, 1)))
        assert out[0] == pytest.approx(0.19)
        assert [v[0] for v in visited] == pytest.approx([0.0, 0.1])

    def test_zero_lr(self):
        out, _ = ss.local_update([0.3], pair(), 0, 5, 0.0, shared(stream(0, 1)))
        assert out[0] == 0.3

    def test_divergence_carries_last_finite(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1e200, [1.0])])
        with pytest.raises(Divergence) as exc:
            ss.local_update([0.0], fam, 0, 5, 1e200, shared(stream(0, 1)))
        assert np.all(np.isfinite(exc.value.last_finite))


class TestSlRound:
    def test_hand_example(self):
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, local_steps=1, lr=0.1,
                             rounds=1, order_policy="fixed")
        out, drift, order = ss.sl_round(np.zeros(1), pair(), cfg, 0)
        assert out[0] == pytest.approx(-0.01)
        assert drift == pytest.approx(0.01)
        assert order == [0, 1]

    def test_iid_equals_composed_gd(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0])] * 3)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=3, local_steps=2, lr=0.05,
                             rounds=1, order_policy="fixed")
        out, _, _ = ss.sl_round(np.zeros(1), fam, cfg, 0)
        x = 0.0
        for _ in range(6):
            x -= 0.05 * (x - 1.0)
        assert out[0] == pytest.approx(x, rel=1e-12)

    def test_zero_global_lr(self):
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, local_steps=1, lr=0.1,
                             rounds=1, global_lr=0.0, order_policy="fixed")
        out, _, _ = ss.sl_round(np.array([0.4]), pair(), cfg, 0)
        assert out[0] == 0.4

    def test_global_lr_interpolation_is_affine(self):
        base = dict(algorithm="sl", n_clients=2, local_steps=2, lr=0.1,
                    rounds=1, order_policy="fixed")
        x = np.array([0.25])
        outs = {}
        for eg in (0.0, 0.5, 1.0):
            cfg = ss.TrainConfig(global_lr=eg, **base)
            outs[eg], _, _ = ss.sl_round(x, pair(), cfg, 0)
        mid = outs[0.0] + 0.5 * (outs[1.0] - outs[0.0])
        np.testing.assert_allclose(outs[0.5], mid, rtol=1e-12)

    def test_sequential_composition_random_instances(self):
        # brute-force oracle: N*K plain SGD steps in client order
        rng = stream(77, 9)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            fam = ss.QuadraticFamily([
                ss.QuadraticClient(rng.uniform(0.2, 2.0, d), rng.normal(size=d))
                for _ in range(n)])
            lr = float(rng.uniform(0.01, 0.1))
            x0 = rng.normal(size=d)
            cfg = ss.TrainConfig(algorithm="sl", n_clients=n, local_steps=k, lr=lr,
                                 rounds=1, order_policy="fixed")
            out, _, order = ss.sl_round(x0, fam, cfg, 0)
            x = x0.copy()
            for i in order:
                for _ in range(k):
                    x = x - lr * fam.local_grad(i, x)
            np.testing.assert_allclose(out, x, rtol=0, atol=0)


class TestFlRound:
    def test_hand_example_cancels(self):
        cfg = ss.TrainConfig(algorithm="fl", n_clients=2, local_steps=1, lr=0.1,
                             rounds=1, order_policy="fixed")
        out, drift = ss.fl_round(np.zeros(1), pair(), cfg, 0)
        assert out[0] == pytest.approx(0.0)
        assert drift == 0.0  # both visited iterates equal x^r

    def test_single_client_equals_sl(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0], noise_sigma=0.5)])
        cfg = ss.TrainConfig(algorithm="fl", n_clients=1, local_steps=3, lr=0.05,
                             rounds=1, seed=4, order_policy="fixed")
        cfg_sl = ss.TrainConfig(algorithm="sl", n_clients=1, local_steps=3, lr=0.05,
                                rounds=1, seed=4, order_policy="fixed")
        out_fl, _ = ss.fl_round(np.zeros(1), fam, cfg, 0)
        out_sl, _, _ = ss.sl_round(np.zeros(1), fam, cfg_sl, 0)
        np.testing.assert_array_equal(out_fl, out_sl)

    def test_zero_lr(self):
        cfg = ss.TrainConfig(algorithm="fl", n_clients=2, local_steps=3, lr=0.0,
                             rounds=1, order_policy="fixed")
        out, _ = ss.fl_round(np.array([0.7]), pair(), cfg, 0)
        assert out[0] == 0.7

    def test_identical_clients_equal_single_local_update(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0])] * 4)
        cfg = ss.TrainConfig(algorithm="fl", n_clients=4, local_steps=3, lr=0.05,
                             rounds=1, order_policy="fixed")
        out, _ = ss.fl_round(np.zeros(1), fam, cfg, 0)
        single, _ = ss.local_update(np.zeros(1), fam, 0, 3, 0.05,
                                    shared(stream(0, 1)))
        np.testing.assert_allclose(out, single, rtol=1e-12)

    def test_weighted_by_sample_counts(self):
        fam = ss.logistic_family(2, dim=2, samples_per_client=10, seed=0)
        fam.client_sizes = (30, 10)
        cfg = ss.TrainConfig(algorithm="fl", n_clients=2, local_steps=1, lr=0.1,
                             rounds=1, seed=1, order_policy="fixed")
        out, _ = ss.fl_round(np.zeros(2), fam, cfg, 0)
        outs = [ss.local_update(np.zeros(2), fam, i, 1, 0.1,
                                lambda k, i=i: stream(1, 1, 0, i, k))[0]
                for i in range(2)]
        np.testing.assert_allclose(out, 0.75 * outs[0] + 0.25 * outs[1], rtol=1e-12)


class TestMinibatchRound:
    def test_zero_noise_is_exact_gradient_step(self):
        cfg = ss.TrainConfig(algorithm="minibatch", n_clients=2, local_steps=3,
                             lr=0.1, rounds=1)
        x = np.array([0.8])
        out = ss.minibatch_round(x, pair(), cfg, 0)
        expected = x - 0.1 * ss.global_grad(pair(), x)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_stationary_at_symmetric_zero(self):
        cfg = ss.TrainConfig(algorithm="minibatch", n_clients=2, local_steps=1,
                             lr=0.1, rounds=1)
        out = ss.minibatch_round(np.zeros(1), pair(), cfg, 0)
        assert out[0] == pytest.approx(0.0)

    def test_divergence_names_the_round(self):
        class NanGrad:
            dim, n_clients = 1, 2

            def stochastic_grad(self, client, x, rng):
                return np.array([np.nan])

        cfg = ss.TrainConfig(algorithm="minibatch", n_clients=2, rounds=9, lr=0.1)
        with pytest.raises(Divergence) as exc:
            ss.minibatch_round(np.zeros(1), NanGrad(), cfg, 7)
        assert exc.value.round_index == 7 and str(exc.value).endswith("of round 7")

    def test_overflow_is_a_silent_divergence(self):
        cfg = ss.TrainConfig(algorithm="minibatch", n_clients=2, rounds=9, lr=1e200)
        x = np.zeros(1)
        with pytest.raises(Divergence) as exc:
            ss.minibatch_round(x, steep_pair(), cfg, 4)
        assert exc.value.last_finite is x
        assert (exc.value.step, exc.value.round_index) == (0, 4)

    def test_update_variance_scales_inverse_nk(self):
        fam = ss.scalar_pair(sigma=1.0)
        x = np.zeros(1)

        def update_var(k):
            cfg = ss.TrainConfig(algorithm="minibatch", n_clients=2, local_steps=k,
                                 lr=1.0, rounds=1)
            outs = []
            for s in range(1000):
                c = ss.TrainConfig(algorithm="minibatch", n_clients=2, local_steps=k,
                                   lr=1.0, rounds=1, seed=s)
                outs.append(ss.minibatch_round(x, fam, c, 0)[0])
            return np.var(outs)

        v1, v4 = update_var(1), update_var(4)
        assert v1 / v4 == pytest.approx(4.0, rel=0.25)


class TestNoisePathEqualsStreams:
    """Each round rule equals local_update and stochastic_grad composed with
    ``stream`` per step, bit for bit, on noisy clients: with no keys, with
    the round's own keys and with its entry of a longer run's key table."""

    FAMILIES = {
        "noisy-quadratic": lambda: ss.quadratic_family(
            3, dim=2, heterogeneity=1.0, sigma=0.7, seed=2),
        "logistic-minibatch": lambda: ss.logistic_family(
            3, dim=3, samples_per_client=10, batch_size=4, seed=1),
    }
    R = 2  # the round checked, inside a 4-round table

    def streams(self, cfg, i):
        return lambda k: stream(cfg.seed, STEP, self.R, i, k)

    def order(self, cfg):
        return list(stream(cfg.seed, ORDER, self.R)
                    .permutation(cfg.n_clients)[:cfg.participants])

    def sl(self, x, fam, cfg):
        for i in self.order(cfg):
            x, _ = ss.local_update(x, fam, i, cfg.local_steps, cfg.lr,
                                   self.streams(cfg, i))
        return x

    def fl(self, x, fam, cfg):
        order = self.order(cfg)
        sizes = getattr(fam, "client_sizes", None)
        weights = np.array([1.0 if sizes is None else sizes[i] for i in order],
                           dtype=float)
        weights /= weights.sum()
        avg = np.zeros_like(x)
        for w, i in zip(weights, order):
            avg += w * ss.local_update(x, fam, i, cfg.local_steps, cfg.lr,
                                       self.streams(cfg, i))[0]
        return avg

    def minibatch(self, x, fam, cfg):
        total = np.zeros_like(x)
        for i in range(cfg.n_clients):
            for k in range(cfg.local_steps):
                total += fam.stochastic_grad(i, x, stream(cfg.seed, STEP, self.R, i, k))
        return x - cfg.lr * total / (cfg.n_clients * cfg.local_steps)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("algo,participants", [
        ("sl", None), ("sl", 2), ("fl", None), ("fl", 2), ("minibatch", None)])
    @pytest.mark.parametrize("seed", [4, 2**64 + 3])
    def test_round_equals_composed_streams(self, family, algo, participants, seed):
        fam = self.FAMILIES[family]()
        cfg = ss.TrainConfig(algorithm=algo, n_clients=3, rounds=4, local_steps=3,
                             lr=0.05, clients_per_round=participants, seed=seed)
        x = np.linspace(-0.5, 0.5, fam.dim)
        want = getattr(self, algo)(x, fam, cfg)
        rule = {"sl": lambda *a: ss.sl_round(*a)[0], "fl": lambda *a: ss.fl_round(*a)[0],
                "minibatch": ss.minibatch_round}[algo]
        for rngs in (None, step_rngs(cfg, self.R, self.R + 1)[0],
                     step_rngs(cfg, 0, 4)[self.R]):
            assert rule(x, fam, cfg, self.R, rngs).tobytes() == want.tobytes()
        assert not np.array_equal(want, rule(x, fam, replace(cfg, seed=seed + 1), self.R))


class TestRunTraining:
    def test_single_round_trace(self):
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=1, local_steps=1,
                             lr=0.01, order_policy="fixed")
        trace = ss.run_training(pair(), cfg)
        assert trace.rounds == 1
        np.testing.assert_array_equal(trace.avg_x, trace.iterates[0])

    def test_determinism(self):
        fam = ss.scalar_pair(sigma=1.0)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=20, local_steps=2,
                             lr=0.01, seed=5)
        a = ss.run_training(fam, cfg)
        b = ss.run_training(fam, cfg)
        np.testing.assert_array_equal(a.iterates, b.iterates)
        np.testing.assert_array_equal(a.loss, b.loss)

    def test_descent_within_constraint(self):
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=1000, local_steps=1,
                             lr=0.001, x0=[2.0])
        trace = ss.run_training(pair(), cfg)
        assert trace.final_grad_norm_sq < trace.grad_norm_sq[0]

    def test_averaged_iterate_is_mean(self):
        cfg = ss.TrainConfig(algorithm="fl", n_clients=2, rounds=10, local_steps=1,
                             lr=0.05, x0=[1.0])
        trace = ss.run_training(pair(), cfg)
        np.testing.assert_allclose(trace.avg_x, trace.iterates.mean(axis=0), rtol=1e-12)

    def test_divergence_recorded(self):
        fam = ss.scalar_pair(curvature=10.0)
        cfg = ss.TrainConfig(algorithm="sl", n_clients=2, rounds=30, local_steps=5,
                             lr=0.25, x0=[2.0])
        trace = ss.run_training(fam, cfg)
        assert trace.any_diverged
        assert trace.diverged_at is not None
        assert trace.diverged[trace.diverged_at:].all()
        assert not trace.diverged[:trace.diverged_at].any()

    @pytest.mark.parametrize("algo", ["sl", "fl", "minibatch"])
    def test_one_full_data_pass_per_evaluated_point(self, algo, monkeypatch):
        """R rounds over N clients cost R*N + 2N full-data client passes:
        one per client at each x^r, then the gradient at the averaged and
        at the final iterate."""
        fam = pair_3()
        calls = {"passes": 0, "depth": 0}
        for name in ("local_loss_grad", "local_loss", "local_grad"):
            def counted(*args, _real=getattr(fam, name)):
                calls["passes"] += calls["depth"] == 0
                calls["depth"] += 1
                try:
                    return _real(*args)
                finally:
                    calls["depth"] -= 1
            monkeypatch.setattr(fam, name, counted)
        rounds, n = 7, fam.n_clients
        trace = ss.run_training(fam, ss.TrainConfig(
            algorithm=algo, n_clients=n, rounds=rounds, local_steps=2, lr=0.01))
        assert trace.diverged_at is None
        assert calls["passes"] == rounds * n + 2 * n

    @pytest.mark.parametrize("algo,lr,diverges", [
        ("sl", 0.5, "never"), ("sl", 2.01, "before"), ("sl", 2.005, "after"),
        ("fl", 0.5, "never"), ("fl", 2.02, "before"), ("fl", 2.01, "after"),
        ("minibatch", 0.5, "never"), ("minibatch", 2.05, "before"),
        ("minibatch", 2.01, "after"),
    ])
    def test_shorter_run_is_prefix(self, algo, lr, diverges):
        """An R = 50 run equals the first 50 rounds of an R = 200 run bit
        for bit, whether the long run diverges before round 50, after it or
        never; criteria 02 and 03 share one set of runs on this."""
        fam = ss.scalar_pair(centers=(0.0, 0.0), sigma=0.1)
        cfg = ss.TrainConfig(algorithm=algo, n_clients=2, rounds=200,
                             local_steps=2, lr=lr, x0=[1.0], seed=3)
        long = ss.run_training(fam, cfg)
        short = ss.run_training(fam, replace(cfg, rounds=50))
        at = long.diverged_at
        assert diverges == ("never" if at is None
                            else "before" if at < 50 else "after")
        for name in ("loss", "grad_norm_sq", "drift", "diverged", "iterates"):
            assert (getattr(short, name).tobytes()
                    == getattr(long, name)[:50].tobytes()), name

    @pytest.mark.parametrize("algo", ["sl", "fl", "minibatch"])
    def test_overflow_is_a_silent_divergence(self, algo):
        """Overflow in a step or in the global loss and gradient marks the
        run diverged at round 0 without a RuntimeWarning."""
        steep = ss.run_training(steep_pair(), ss.TrainConfig(
            algorithm=algo, n_clients=2, lr=1e200))
        far = ss.run_training(pair(), ss.TrainConfig(
            algorithm=algo, n_clients=2, x0=[1e160]))
        assert steep.diverged_at == far.diverged_at == 0
        assert far.final_x[0] == 1e160

    def test_step_accounting(self):
        for algo in ("sl", "fl", "minibatch"):
            cfg = ss.TrainConfig(algorithm=algo, n_clients=3, rounds=4, local_steps=2,
                                 lr=0.01)
            trace = ss.run_training(pair_3(), cfg)
            assert (trace.steps == 6).all()


def steep_pair():
    """Two equal clients of curvature 1e200: a step at lr 1e200 overflows."""
    return ss.QuadraticFamily([ss.QuadraticClient(1e200, [1.0])] * 2)


def pair_3():
    return ss.QuadraticFamily([
        ss.QuadraticClient(1.0, [1.0]),
        ss.QuadraticClient(1.0, [-1.0]),
        ss.QuadraticClient(1.0, [0.0]),
    ])


def monolithic_sgd(model, data, steps, lr):
    """Full-batch SGD on the monolithic oracle: the protocol's reference."""
    x = model.params
    for _ in range(steps):
        x = x - lr * ss.monolithic_loss_grad(model, data, x)[1]
    return x


def split_sgd(model, data, steps, lr):
    """local_update on an MlpObjective: each step runs the split protocol."""
    return ss.local_update(model.params, ss.MlpObjective(model, [data]), 0,
                           steps, lr, shared(stream(0, 1)))[0]


class TestMlpLocalUpdate:
    def test_matches_monolithic_single_step(self):
        rng = stream(13, 9)
        model = ss.SplitMlp.random(2, 3, 1, rng)
        data = (rng.normal(size=(5, 2)), rng.normal(size=(5, 1)))
        np.testing.assert_allclose(split_sgd(model, data, 1, 0.05),
                                   monolithic_sgd(model, data, 1, 0.05), rtol=1e-12)

    def test_matches_monolithic_many_steps(self):
        rng = stream(14, 9)
        model = ss.SplitMlp.random(3, 2, 2, rng)
        data = (rng.normal(size=(8, 3)), rng.normal(size=(8, 2)))
        np.testing.assert_allclose(split_sgd(model, data, 7, 0.02),
                                   monolithic_sgd(model, data, 7, 0.02), rtol=1e-12)

    def test_zero_lr_unchanged(self):
        rng = stream(15, 9)
        model = ss.SplitMlp.random(2, 2, 1, rng)
        data = (rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        np.testing.assert_array_equal(split_sgd(model, data, 3, 0.0), model.params)

    def test_divergence_carries_last_finite(self):
        rng = stream(16, 9)
        model = ss.SplitMlp.random(2, 2, 1, rng)
        data = (rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow stays silent
            with pytest.raises(Divergence) as exc:
                split_sgd(model, data, 5, 1e200)
        assert np.all(np.isfinite(exc.value.last_finite))

    @pytest.mark.parametrize("algo", ["sl", "fl", "minibatch"])
    def test_every_step_runs_the_protocol(self, algo, monkeypatch):
        """Each counted step is one split_forward_backward call; the
        monolithic oracle makes only the R*N + 2N full-data passes."""
        rng = stream(17, 9)
        model = ss.SplitMlp.random(2, 3, 2, rng)
        data = [(rng.normal(size=(6, 2)), rng.normal(size=(6, 2))) for _ in range(3)]
        fam = ss.MlpObjective(model, data, batch_size=4)
        calls = {"split_forward_backward": 0, "monolithic_loss_grad": 0}
        for name in calls:
            def counted(*args, _real=getattr(ss.objectives, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(ss.objectives, name, counted)
        rounds, n = 5, fam.n_clients
        trace = ss.run_training(fam, ss.TrainConfig(
            algorithm=algo, n_clients=n, rounds=rounds, local_steps=2, lr=0.05,
            clients_per_round=None if algo == "minibatch" else 2, x0=model.params))
        assert trace.diverged_at is None
        assert calls == {"split_forward_backward": trace.steps.sum(),
                         "monolithic_loss_grad": rounds * n + 2 * n}


class TestConfigValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            ss.TrainConfig(algorithm="sgd")

    def test_bad_participation(self):
        with pytest.raises(ValueError):
            ss.TrainConfig(n_clients=2, clients_per_round=3)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            ss.TrainConfig(rounds=0)

    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1),
        dict(lr=float("nan")), dict(lr=float("inf")),
        dict(global_lr=float("nan")), dict(global_lr=float("inf")),
        dict(divergence_factor=0.5), dict(divergence_factor=float("nan")),
        dict(algorithm="minibatch", global_lr=7.0),
        dict(algorithm="minibatch", clients_per_round=1),
        dict(algorithm="minibatch", order_policy="fixed"),
        dict(order_policy="fixed", n_clients=4, clients_per_round=2),
    ])
    def test_rejected_value_named(self, kwargs):
        key = [k for k in kwargs if k != "algorithm"][0]
        with pytest.raises(ValueError, match=f"^{key} "):
            ss.TrainConfig(**kwargs)

    def test_large_seed_accepted(self):
        assert ss.TrainConfig(seed=2**40).seed == 2**40
