import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splitsim as ss
from splitsim.theory import ConstraintViolation

C = ss.HeterogeneityConstants


def consts(L=1.0, sigma2=0.0, B=1.0, G=0.0):
    return C(L=L, sigma2=sigma2, B=B, G=G)


class TestMaxLr:
    def test_sl_worked_example(self):
        assert ss.max_lr_sl(consts(), 10, 5) == pytest.approx(1 / (100 * math.sqrt(3)),
                                                              rel=1e-12)

    def test_sl_minimal(self):
        assert ss.max_lr_sl(consts(), 1, 1) == pytest.approx(1 / (2 * math.sqrt(3)),
                                                             rel=1e-12)

    def test_fl_worked_example(self):
        assert ss.max_lr_fl(consts(), 5, 1.0) == pytest.approx(0.1 / math.sqrt(3),
                                                               rel=1e-12)

    def test_fl_large_global_lr_picks_other_branch(self):
        assert ss.max_lr_fl(consts(), 5, 2.0) == pytest.approx(0.05, rel=1e-12)

    def test_fl_limit_vanishes(self):
        assert ss.max_lr_fl(consts(), 5, 1e12) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 10), st.floats(1, 5), st.integers(1, 50), st.integers(1, 20))
    def test_ratio_is_n(self, L, B, n, k):
        c = consts(L=L, B=B)
        assert ss.max_lr_fl(c, k, 1.0) / ss.max_lr_sl(c, n, k) == pytest.approx(n, rel=1e-12)


class TestDriftBound:
    def test_worked_example(self):
        val = ss.drift_bound(consts(G=1.0), 2, 1, 0.1, 0.0)
        assert val == pytest.approx(0.32 / 0.84, rel=1e-12)

    def test_zero_lr(self):
        assert ss.drift_bound(consts(G=1.0, sigma2=1.0), 3, 2, 0.0, 5.0) == 0.0

    def test_no_drift_sources(self):
        assert ss.drift_bound(consts(), 3, 2, 0.01, 0.0) == 0.0

    def test_constraint_violation(self):
        with pytest.raises(ConstraintViolation):
            ss.drift_bound(consts(), 10, 10, 1.0, 0.0)

    def test_monotone_in_grad_norm(self):
        vals = [ss.drift_bound(consts(G=1.0), 2, 2, 0.01, g) for g in (0.0, 1.0, 5.0)]
        assert vals == sorted(vals)


class TestSlBound:
    def test_worked_example(self):
        rep = ss.sl_bound(ss.BoundInputs(consts(G=1.0), 2, 1, 100, 0.001,
                                         init_gap=2.0))
        assert rep.t1_init == pytest.approx(40.0, rel=1e-12)
        assert rep.t2_drift == pytest.approx(4.8e-5, rel=1e-12)
        assert rep.t3_variance == 0.0
        assert rep.total == pytest.approx(40.000048, rel=1e-12)

    def test_vanishes_without_error_sources(self):
        rep = ss.sl_bound(ss.BoundInputs(consts(), 2, 1, 10**12, 0.001, init_gap=1.0))
        assert rep.total < 1e-8

    def test_doubling_r_halves_t1_only(self):
        a = ss.sl_bound(ss.BoundInputs(consts(G=1.0, sigma2=1.0), 2, 2, 100, 0.001,
                                       init_gap=1.0))
        b = ss.sl_bound(ss.BoundInputs(consts(G=1.0, sigma2=1.0), 2, 2, 200, 0.001,
                                       init_gap=1.0))
        assert b.t1_init == pytest.approx(a.t1_init / 2, rel=1e-12)
        assert b.t2_drift == a.t2_drift and b.t3_variance == a.t3_variance

    def test_lr_flag(self):
        rep = ss.sl_bound(ss.BoundInputs(consts(), 10, 5, 10, 1.0, init_gap=1.0))
        assert not rep.lr_ok
        assert rep.total > 0  # still evaluated


class TestCorollaryRate:
    def test_pure_init_term(self):
        assert ss.sl_corollary_rate(1.0, consts(), 4, 1, 16) == pytest.approx(1.0,
                                                                              rel=1e-12)

    def test_quadrupling_r_halves(self):
        a = ss.sl_corollary_rate(1.0, consts(), 4, 2, 16)
        b = ss.sl_corollary_rate(1.0, consts(), 4, 2, 64)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_worked_example_full(self):
        val = ss.sl_corollary_rate(1.0, consts(G=1.0, sigma2=1.0), 1, 1, 100)
        assert val == pytest.approx(0.98, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 5), st.floats(0.1, 3), st.floats(0, 2), st.floats(0, 2),
           st.integers(1, 8), st.integers(1, 8), st.integers(1, 10**4))
    def test_equals_sl_bound_at_substituted_lr(self, F, L, sig2, G, n, k, r):
        c = consts(L=L, sigma2=sig2, G=G)
        eta = 1.0 / (n * k * math.sqrt(r))
        rep = ss.sl_bound(ss.BoundInputs(c, n, k, r, eta, init_gap=F))
        assert ss.sl_corollary_rate(F, c, n, k, r) == pytest.approx(rep.total, rel=1e-12)


class TestFlBound:
    def test_single_step_kills_drift(self):
        rep = ss.fl_bound(ss.BoundInputs(consts(G=3.0, sigma2=2.0), 2, 1, 10, 0.01,
                                         eta_g=0.5, init_gap=1.0))
        assert rep.t2_drift == 0.0

    def test_worked_example_t1(self):
        rep = ss.fl_bound(ss.BoundInputs(consts(), 2, 1, 100, 0.001, eta_g=1.0,
                                         init_gap=2.0))
        assert rep.t1_init == pytest.approx(80.0, rel=1e-12)

    def test_only_t1_without_noise(self):
        rep = ss.fl_bound(ss.BoundInputs(consts(), 4, 3, 50, 0.001, init_gap=1.0))
        assert rep.total == rep.t1_init


class TestOneClientBound:
    def test_floor_survives(self):
        val = ss.one_client_bound(ss.BoundInputs(consts(G=1.5), 2, 1, 10**18, 1e-6,
                                                 init_gap=1.0))
        assert val == pytest.approx(4 * 1.5**2, rel=1e-3)

    def test_pure_init(self):
        val = ss.one_client_bound(ss.BoundInputs(consts(), 2, 2, 10, 0.01, init_gap=1.0))
        assert val == pytest.approx(4 / (2 * 2 * 0.01 * 10), rel=1e-12)

    def test_worked_example(self):
        val = ss.one_client_bound(ss.BoundInputs(consts(G=1.0), 2, 1, 10, 0.1,
                                                 init_gap=1.0))
        assert val == pytest.approx(6.4, rel=1e-12)


class TestRoundComplexity:
    def test_no_noise_identical(self):
        c = consts(G=2.0)
        args = (1.0, c, 10, 4, 0.1)
        assert ss.round_complexity("sl", *args) == ss.round_complexity("fl", *args)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 5), st.floats(0, 4), st.floats(0, 4), st.integers(1, 20),
           st.integers(1, 10), st.floats(0.01, 1))
    @example(F=3.0, sig2=0.0078125, G=0.0, n=2, k=6, eps=0.01171875)
    def test_gap_formula(self, F, sig2, G, n, k, eps):
        c = consts(sigma2=sig2, G=G)
        sl = ss.round_complexity("sl", F, c, n, k, eps)
        fl = ss.round_complexity("fl", F, c, n, k, eps)
        expected = sig2**2 * (1 - 1 / n**2) / (k**2 * eps**2)
        # each operand is rounded once after their shared part, so their
        # difference carries up to an ulp of the larger one beyond rel
        assert sl - fl == pytest.approx(expected, rel=1e-9,
                                        abs=4 * np.spacing(max(sl, fl)))
        assert sl - fl >= 0

    def test_worked_example(self):
        val = ss.round_complexity("fl", 1.0, consts(sigma2=1.0), 10, 2, 0.1)
        assert val == pytest.approx(105.25, rel=1e-12)


class TestMonotonicity:
    def test_bound_decreasing_in_r_increasing_in_noise(self):
        base = dict(n_clients=3, local_steps=2, eta=0.001)
        f = lambda r, s, g: ss.sl_bound(ss.BoundInputs(
            consts(sigma2=s, G=g), rounds=r, init_gap=1.0, **base)).total
        assert f(200, 1, 1) < f(100, 1, 1)
        assert f(100, 2, 1) > f(100, 1, 1)
        assert f(100, 1, 2) > f(100, 1, 1)


class TestSerialization:
    def test_bound_report_json(self):
        import json
        rep = ss.sl_bound(ss.BoundInputs(consts(G=1.0), 2, 1, 100, 0.001, init_gap=2.0))
        data = rep.to_dict()
        assert set(data) == {"t1_init", "t2_drift", "t3_variance", "total",
                             "lr_ok", "lr_max"}
        assert data["total"] == rep.total
        assert json.loads(json.dumps(data)) == data
