import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import partition_classes, partition_dirichlet, partition_stats
from splitsim.partition import InfeasiblePartition
from splitsim.rng import stream


def balanced_labels(n_classes=10, per_class=100):
    return np.repeat(np.arange(n_classes), per_class)


class TestDirichlet:
    def test_high_alpha_near_uniform_proportions(self):
        labels = balanced_labels()
        for seed in range(20):
            p = partition_dirichlet(labels, 10, alpha=100.0, seed=seed)
            for counts, size in zip(p.class_counts, p.sizes()):
                props = np.zeros(10)
                for cls, cnt in counts.items():
                    props[cls] = cnt / size
                assert np.all(np.abs(props - 0.1) <= 0.10)

    def test_low_alpha_concentrates(self):
        labels = balanced_labels()
        for seed in range(20):
            p = partition_dirichlet(labels, 10, alpha=0.2, seed=seed)
            skewed = 0
            for counts, size in zip(p.class_counts, p.sizes()):
                top2 = sum(sorted(counts.values(), reverse=True)[:2])
                if top2 > 0.5 * size:
                    skewed += 1
            assert skewed >= 5

    def test_single_client_gets_everything(self):
        labels = balanced_labels(3, 5)
        p = partition_dirichlet(labels, 1, alpha=1.0, seed=0)
        assert p.sizes() == [15]

    def test_infeasible(self):
        with pytest.raises(InfeasiblePartition):
            partition_dirichlet([0, 1, 0], 5, alpha=1.0, seed=0)


class TestClasses:
    def test_balanced_cross_device_sizes(self):
        # 10 classes, 1000 clients, C=2, 60 samples per client
        labels = balanced_labels(10, 6000)
        p = partition_classes(labels, 1000, 2, seed=0)
        assert all(s == 60 for s in p.sizes())

    def test_single_client_all_classes(self):
        labels = balanced_labels(4, 3)
        p = partition_classes(labels, 1, 4, seed=1)
        assert len(p.class_counts[0]) == 4

    def test_class_budget(self):
        labels = balanced_labels(10, 100)
        for seed in range(20):
            p = partition_classes(labels, 10, 2, seed=seed)
            n_cls = [len(c) for c in p.class_counts]
            assert max(n_cls) <= 3
            assert sum(1 for c in n_cls if c <= 2) >= 9

    def test_invalid_c(self):
        labels = balanced_labels(10, 10)
        with pytest.raises(ValueError):
            partition_classes(labels, 5, 11, seed=0)

    def test_infeasible_shards(self):
        with pytest.raises(InfeasiblePartition):
            partition_classes([0, 1], 3, 1, seed=0)


class TestValidation:
    @pytest.mark.parametrize("make, args, key", [
        (partition_dirichlet, (5, 0.0, 0), "alpha"),
        (partition_dirichlet, (0, 1.0, 0), "n_clients"),
        (partition_dirichlet, (5, 1.0, -1), "seed"),
        (partition_classes, (5, 0, 0), "classes_per_client"),
        (partition_classes, (0, 1, 0), "n_clients"),
        (partition_classes, (5, 1, -1), "seed"),
    ])
    def test_invalid_parameter_named(self, make, args, key):
        with pytest.raises(ValueError, match=f"^{key} "):
            make(balanced_labels(4, 10), *args)

    def test_infeasible_is_not_an_input_error(self):
        # the parameters are valid; only these labels cannot satisfy them
        assert not issubclass(InfeasiblePartition, ValueError)

    def test_seed_defaults_to_zero(self):
        labels = balanced_labels(4, 10)
        assert (partition_dirichlet(labels, 5, 1.0).to_json()
                == partition_dirichlet(labels, 5, 1.0, 0).to_json())
        assert (partition_classes(labels, 5, 2).to_json()
                == partition_classes(labels, 5, 2, 0).to_json())


class TestStats:
    def test_uniform_ratios(self):
        labels = balanced_labels(10, 10)
        p = partition_classes(labels, 10, 10, seed=0)
        stats = partition_stats(p)
        assert stats["ratios"] == [0.1] * 10
        assert sum(stats["ratios_exact"]) == 1

    def test_single_client(self):
        p = partition_dirichlet(balanced_labels(2, 4), 1, 1.0, seed=0)
        assert partition_stats(p)["ratios"] == [1.0]

    def test_sizes_cover(self):
        labels = balanced_labels()
        p = partition_dirichlet(labels, 10, 0.2, seed=3)
        assert sum(p.sizes()) == labels.size


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["dirichlet", "classes"]))
    def test_disjoint_cover(self, seed, mechanism):
        labels = balanced_labels(6, 30)
        if mechanism == "dirichlet":
            p = partition_dirichlet(labels, 8, alpha=0.5, seed=seed)
        else:
            p = partition_classes(labels, 8, 3, seed=seed)
        union = sorted(i for a in p.assignments for i in a)
        assert union == list(range(labels.size))
        assert all(len(a) >= 1 for a in p.assignments)

    def test_determinism(self):
        labels = balanced_labels()
        a = partition_dirichlet(labels, 10, 0.5, seed=9)
        b = partition_dirichlet(labels, 10, 0.5, seed=9)
        assert a.assignments == b.assignments
        c = partition_classes(labels, 10, 2, seed=9)
        d = partition_classes(labels, 10, 2, seed=9)
        assert c.assignments == d.assignments

    def test_entropy_monotone_in_alpha(self):
        labels = balanced_labels()
        means = []
        for alpha in (100.0, 5.0, 0.5, 0.2):
            vals = []
            for seed in range(20):
                p = partition_dirichlet(labels, 10, alpha, seed=seed)
                vals.append(np.mean(partition_stats(p)["entropy"]))
            means.append(np.mean(vals))
        assert all(a >= b for a, b in zip(means, means[1:]))

