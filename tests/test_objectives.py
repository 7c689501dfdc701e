import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsim as ss
from splitsim.rng import stream


def finite_difference_grad(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * max(1.0, abs(x[i]))
        g[i] = (fn(x + e) - fn(x - e)) / (2 * e[i])
    return g


class TestLocalGrad:
    def test_scalar_quadratic(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0])])
        assert fam.local_grad(0, [0.0]) == pytest.approx(-1.0)

    def test_identity_quadratic_2d(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(np.ones(2), [0.0, 0.0])])
        np.testing.assert_allclose(fam.local_grad(0, [3.0, 4.0]), [3.0, 4.0])

    def test_logistic_matches_finite_differences(self):
        fam = ss.LogisticFamily([ss.LogisticClient([[1.0, -2.0]], [1.0])],
                                regularization=0.1)
        x = np.array([0.3, -0.7])
        exact = fam.local_grad(0, x)
        approx = finite_difference_grad(lambda z: fam.local_loss(0, z), x)
        np.testing.assert_allclose(exact, approx, rtol=1e-6)

    def test_dimension_mismatch(self):
        fam = ss.scalar_pair()
        with pytest.raises(ValueError):
            fam.local_grad(0, [1.0, 2.0])


class TestStochasticGrad:
    def test_zero_noise_is_exact(self):
        fam = ss.scalar_pair(sigma=0.0)
        g = fam.stochastic_grad(0, [0.5], stream(0, 1))
        np.testing.assert_array_equal(g, fam.local_grad(0, [0.5]))

    def test_unbiased_monte_carlo(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0], noise_sigma=1.0)])
        rng = stream(42, 9)
        exact = fam.local_grad(0, [0.0])
        devs = np.array([fam.stochastic_grad(0, [0.0], rng) - exact
                         for _ in range(10**5)])
        assert abs(devs.mean()) < 3e-5**0.5 * 3

    def test_variance_monte_carlo(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [1.0], noise_sigma=1.0)])
        rng = stream(7, 9)
        exact = fam.local_grad(0, [0.0])
        sq = [np.sum((fam.stochastic_grad(0, [0.0], rng) - exact)**2)
              for _ in range(10**5)]
        assert np.mean(sq) == pytest.approx(1.0, abs=0.05)

    def test_variance_split_across_dims(self):
        # isotropic noise: total power sigma^2 regardless of dimension
        fam = ss.QuadraticFamily([ss.QuadraticClient(np.ones(4), np.zeros(4),
                                                     noise_sigma=2.0)])
        rng = stream(3, 9)
        exact = fam.local_grad(0, np.zeros(4))
        sq = [np.sum((fam.stochastic_grad(0, np.zeros(4), rng) - exact)**2)
              for _ in range(2 * 10**4)]
        assert np.mean(sq) == pytest.approx(4.0, rel=0.05)

    def test_logistic_minibatch_unbiased(self):
        fam = ss.logistic_family(1, dim=3, samples_per_client=20, batch_size=4, seed=5)
        x = np.array([0.2, -0.1, 0.4])
        rng = stream(11, 9)
        draws = np.array([fam.stochastic_grad(0, x, rng) for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(axis=0), fam.local_grad(0, x),
                                   atol=4 * draws.std(axis=0).max() / np.sqrt(20000))


class TestGlobalOracles:
    def test_global_grad_cancels_at_zero(self):
        np.testing.assert_allclose(ss.global_grad(ss.scalar_pair(), [0.0]), [0.0])

    def test_global_grad_at_two(self):
        np.testing.assert_allclose(ss.global_grad(ss.scalar_pair(), [2.0]), [2.0])

    def test_single_client_equals_local(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(2.0, [0.5])])
        x = [1.7]
        np.testing.assert_array_equal(ss.global_grad(fam, x), fam.local_grad(0, x))

    def test_global_loss_values(self):
        fam = ss.scalar_pair()
        assert ss.global_loss(fam, [0.0]) == pytest.approx(0.5)
        assert ss.global_loss(fam, [2.0]) == pytest.approx(2.5)

    def test_identical_clients_zero_at_center(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [0.3])] * 3)
        assert ss.global_loss(fam, [0.3]) == pytest.approx(0.0)


def three_families():
    g = stream(21, 0)
    quadratic = ss.quadratic_family(3, dim=2, heterogeneity=1.0, seed=2)
    logistic = ss.LogisticFamily(
        [ss.LogisticClient(g.normal(size=(n, 2)), g.integers(0, 2, n))
         for n in (3, 7, 20)], regularization=0.1)
    mlp = ss.MlpObjective(ss.SplitMlp(2, 3, 1), [
        (g.normal(size=(n, 2)), g.normal(size=(n, 1))) for n in (4, 9)])
    return [(fam, g.normal(size=fam.dim)) for fam in (quadratic, logistic, mlp)]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFusedOracles:
    @pytest.mark.parametrize("k", range(3))
    def test_global_loss_grad_is_both_projections(self, k):
        fam, x = three_families()[k]
        loss, grad = ss.global_loss_grad(fam, x)
        assert same_bits(loss, ss.global_loss(fam, x))
        assert same_bits(grad, ss.global_grad(fam, x))

    @pytest.mark.parametrize("k", range(3))
    def test_local_loss_grad_is_both_projections(self, k):
        fam, x = three_families()[k]
        for i in range(fam.n_clients):
            loss, grad = fam.local_loss_grad(i, x)
            assert same_bits(loss, fam.local_loss(i, x))
            assert same_bits(grad, fam.local_grad(i, x))

    def test_mlp_views_keep_shape_check(self):
        fam, x = three_families()[2]
        with pytest.raises(ValueError):
            fam.local_loss_grad(0, x[:-1])
        with pytest.raises(ValueError):
            fam.stochastic_grad(0, x[:-1], stream(0, 1))

    def test_mlp_views_equal_a_built_model(self):
        fam, x = three_families()[2]
        model = fam.template.with_params(x)
        for i in range(fam.n_clients):
            loss, grad = ss.monolithic_loss_grad(model, fam.datasets[i])
            assert same_bits(loss, fam.local_loss(i, x))
            assert same_bits(grad, fam.local_grad(i, x))
            # the full-batch step runs the protocol on views of x
            _, client_grad, server_grad, _ = ss.split_forward_backward(
                model, fam.datasets[i])
            assert same_bits(np.concatenate([client_grad, server_grad]),
                             fam.stochastic_grad(i, x, stream(0, 1)))


def masked_sigmoid(z):
    """The two-gather form _sigmoid replaced, kept as its reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_edge_values_bit_for_bit(self):
        from splitsim.objectives import _sigmoid
        z = np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 745.0, -745.0,
                      800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan])
        with np.errstate(under="ignore"):
            assert same_bits(_sigmoid(z), masked_sigmoid(z))

    def test_random_values_bit_for_bit(self):
        from splitsim.objectives import _sigmoid
        g = stream(22, 0)
        z = g.normal(0.0, 30.0, 10_000) * g.choice([1e-3, 1.0, 30.0], 10_000)
        with np.errstate(under="ignore"):
            assert same_bits(_sigmoid(z), masked_sigmoid(z))


class TestLogisticValidation:
    def test_client_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="sample"):
            ss.LogisticClient(np.ones((0, 2)), np.ones(0))

    def test_family_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="samples_per_client"):
            ss.logistic_family(2, dim=2, samples_per_client=0)


class TestQuadraticValidation:
    def test_no_clients_rejected_before_any_arithmetic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the mean of no centers warns
            with pytest.raises(ValueError, match="client"):
                ss.quadratic_family(0, dim=2, heterogeneity=1.0)

    @pytest.mark.parametrize("curvature,center,sigma,match", [
        (np.eye(2), [0.0, 0.0], 0.0, "broadcast|dimensions"),
        (np.ones(3), [0.0, 0.0], 0.0, "broadcast|dimensions"),
        (-1.0, [0.0], 0.0, "curvature"),
        (np.nan, [0.0], 0.0, "curvature"),
        (np.inf, [0.0], 0.0, "curvature"),
        (1.0, [np.nan], 0.0, "center"),
        (1.0, [np.inf], 0.0, "center"),
        (1.0, [0.0], np.nan, "noise_sigma"),
        (1.0, [0.0], np.inf, "noise_sigma"),
    ])
    def test_client_rejects(self, curvature, center, sigma, match):
        with pytest.raises(ValueError, match=match):
            ss.QuadraticClient(curvature, center, noise_sigma=sigma)

    def test_family_stacks_clients_as_rows(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient([1.0, 2.0], [0.0, 1.0], 0.5),
                                  ss.QuadraticClient(3.0, [2.0, -1.0])])
        assert same_bits(fam.centers, [[0.0, 1.0], [2.0, -1.0]])
        assert same_bits(fam.curvature, [[1.0, 2.0], [3.0, 3.0]])
        assert same_bits(fam.sigma, [0.5, 0.0])
        assert (fam.n_clients, fam.dim) == (2, 2)

    def test_optimum_under_differing_curvatures_zeroes_the_gradient(self):
        g = stream(23, 0)
        fam = ss.QuadraticFamily([ss.QuadraticClient(g.uniform(0.5, 3.0, 3),
                                                      g.normal(size=3))
                                  for _ in range(4)])
        assert not fam.shares_curvature()
        np.testing.assert_allclose(ss.global_grad(fam, fam.optimum()), 0.0,
                                   atol=1e-12)

    def test_optimum_of_an_uncurved_coordinate_is_the_mean_center(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient([1.0, 0.0], [1.0, 4.0]),
                                  ss.QuadraticClient([3.0, 0.0], [-1.0, 2.0])])
        assert same_bits(fam.optimum(), [-0.5, 3.0])


class TestBatchSizeValidation:
    def test_logistic_rejects_batch_below_one(self):
        client = ss.LogisticClient(np.ones((3, 2)), np.array([0, 1, 1]))
        for b in (0, -1):
            with pytest.raises(ValueError, match="batch_size"):
                ss.LogisticFamily([client], batch_size=b)

    def test_mlp_rejects_negative_batch(self):
        data = [(np.ones((3, 2)), np.ones((3, 1)))]
        with pytest.raises(ValueError, match="batch_size"):
            ss.MlpObjective(ss.SplitMlp(2, 3, 1), data, batch_size=-1)
        ss.MlpObjective(ss.SplitMlp(2, 3, 1), data, batch_size=0)  # full batch


class TestAnalyticConstants:
    def test_scalar_pair(self):
        c = ss.analytic_constants(ss.scalar_pair())
        assert (c.L, c.B, c.G) == (1.0, 1.0, 1.0)

    def test_wider_pair(self):
        assert ss.analytic_constants(ss.scalar_pair(centers=(2.0, -2.0))).G == 2.0

    def test_iid_family(self):
        c = ss.analytic_constants(ss.quadratic_family(4, heterogeneity=0.0))
        assert c.G == 0.0 and c.B == 1.0

    def test_non_shared_curvature_refused(self):
        fam = ss.QuadraticFamily([ss.QuadraticClient(1.0, [0.0]),
                                  ss.QuadraticClient(2.0, [0.0])])
        with pytest.raises(ValueError):
            ss.analytic_constants(fam)

    def test_generator_hits_requested_g(self):
        for g in (0.5, 1.0, 4.0):
            fam = ss.quadratic_family(6, dim=3, heterogeneity=g, seed=2)
            assert ss.analytic_constants(fam).G == pytest.approx(g)


class TestSplitForwardBackward:
    def test_hand_chain_rule_single_unit(self):
        m = ss.SplitMlp(1, 1, 1)
        w1, b1, w2, b2 = 0.7, -0.2, 1.3, 0.4
        m.client_params = np.array([w1, b1])
        m.server_params = np.array([w2, b2])
        x, y = 0.9, 0.5
        loss, cg, sg, act = ss.split_forward_backward(m, ([[x]], [[y]]))
        a = np.tanh(w1 * x + b1)
        out = w2 * a + b2
        r = out - y
        assert loss == pytest.approx(0.5 * r**2)
        np.testing.assert_allclose(sg, [r * a, r])
        np.testing.assert_allclose(cg, [r * w2 * (1 - a**2) * x, r * w2 * (1 - a**2)])
        assert act[0, 0] == pytest.approx(a)

    def test_matches_monolithic(self):
        rng = stream(5, 9)
        for _ in range(10):
            m = ss.SplitMlp.random(3, 4, 2, rng)
            batch = (rng.normal(size=(6, 3)), rng.normal(size=(6, 2)))
            loss, cg, sg, _ = ss.split_forward_backward(m, batch)
            mono_loss, mono_g = ss.monolithic_loss_grad(m, batch)
            assert loss == pytest.approx(mono_loss, rel=1e-12)
            np.testing.assert_allclose(np.concatenate([cg, sg]), mono_g, rtol=1e-12)

    def test_zero_model_zero_input(self):
        m = ss.SplitMlp(2, 3, 1)
        y = np.array([[1.5]])
        loss, *_ = ss.split_forward_backward(m, (np.zeros((1, 2)), y))
        assert loss == pytest.approx(0.5 * 1.5**2)

    def test_empty_batch_refused(self):
        from splitsim.objectives import ProtocolError
        m = ss.SplitMlp(2, 3, 1)
        with pytest.raises(ProtocolError):
            ss.split_forward_backward(m, (np.zeros((0, 2)), np.zeros((0, 1))))

    def test_input_width_mismatch(self):
        from splitsim.objectives import ProtocolError
        m = ss.SplitMlp(2, 3, 1)
        with pytest.raises(ProtocolError):
            ss.split_forward_backward(m, (np.zeros((1, 5)), np.zeros((1, 1))))


class TestAssumptionProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_dissimilarity_inequality(self, seed):
        fam = ss.quadratic_family(5, dim=2, heterogeneity=1.5, sigma=0.0, seed=3)
        c = ss.analytic_constants(fam)
        rng = stream(seed, 9)
        for _ in range(40):
            x = rng.uniform(-5, 5, 2)
            mean_sq = np.mean([np.sum(fam.local_grad(i, x)**2)
                               for i in range(fam.n_clients)])
            bound = c.B**2 * np.sum(ss.global_grad(fam, x)**2) + c.G**2
            assert mean_sq <= bound * (1 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_smoothness(self, seed):
        fam = ss.quadratic_family(4, dim=3, heterogeneity=2.0, curvature=1.7, seed=1)
        c = ss.analytic_constants(fam)
        rng = stream(seed, 10)
        for _ in range(40):
            x, y = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
            for i in range(fam.n_clients):
                lhs = np.linalg.norm(fam.local_grad(i, x) - fam.local_grad(i, y))
                assert lhs <= c.L * np.linalg.norm(x - y) * (1 + 1e-12)
