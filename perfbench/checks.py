"""Output checks derived from the method, not from recorded outputs.

Every check returns a list of failure messages; an empty list is a pass.
The functions take plain data (parsed sweep rows, traces, objectives) so
that selftest.py can hand each one a deliberately corrupted input.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from splitsim import objectives


# ---------------------------------------------------------------------------
# sweep-quadratic


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of one sweep output file."""

    algorithm: str
    heterogeneity: float
    lr: float
    metric: float          # seed-mean tail loss, nan when diverged
    diverged: bool


@dataclass(frozen=True)
class QuadraticSetup:
    """What the exact G=0 recursion needs to know about the sweep."""

    curvature: float
    sigma: float
    n_clients: int
    local_steps: int
    dim: int
    rounds: int
    x0_sq: float           # ||x0 - x*||^2, with x* = 0 at every level
    n_seeds: int


def expected_tail_loss(algorithm: str, lr: float, q: QuadraticSetup):
    """Mean and standard-error bound of the seed-mean tail loss at G=0.

    With identical clients f(x) = a/2 ||x||^2, every SGD step maps the
    error e to (1 - lr a) e - lr eps with isotropic Gaussian eps of total
    power sigma^2, so e stays Gaussian: e^r = alpha_r x0 + N(0, s_r^2 I).
    SL composes N K such steps per round, FL averages N independent K-step
    runs and minibatch takes one step with noise power sigma^2 / (N K).
    E||e||^2 = alpha^2 ||x0||^2 + d s^2 gives the per-round mean; the
    Gaussian variance 2 d s^4 + 4 s^2 alpha^2 ||x0||^2 bounds the spread
    of the tail mean by the mean of per-round standard deviations.
    """
    a, d = q.curvature, q.dim
    c = 1.0 - lr * a
    v = lr * lr * q.sigma ** 2 / d          # per-coordinate noise per step
    nk = q.n_clients * q.local_steps

    def geo(steps):                          # sum_{j<steps} c^(2j)
        return sum(c ** (2 * j) for j in range(steps))

    if algorithm == "sl":
        shrink, noise = c ** nk, v * geo(nk)
    elif algorithm == "fl":
        shrink, noise = c ** q.local_steps, v * geo(q.local_steps) / q.n_clients
    elif algorithm == "minibatch":
        shrink, noise = c, v / nk
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    tail = max(1, q.rounds // 10)
    alpha, s2 = 1.0, 0.0
    means, stds = [], []
    for r in range(q.rounds):
        if r >= q.rounds - tail:
            means.append(0.5 * a * (alpha ** 2 * q.x0_sq + d * s2))
            stds.append(0.5 * a * math.sqrt(2 * d * s2 ** 2
                                            + 4 * s2 * alpha ** 2 * q.x0_sq))
        alpha *= shrink
        s2 = shrink ** 2 * s2 + noise
    return float(np.mean(means)), float(np.mean(stds)) / math.sqrt(q.n_seeds)


def check_iid_expectation(points, q: QuadraticSetup, z: float = 5.0) -> list[str]:
    """At G=0 every live grid point matches the exact expected tail loss."""
    fails = []
    for p in points:
        if p.heterogeneity != 0.0 or p.diverged:
            continue
        mean, se = expected_tail_loss(p.algorithm, p.lr, q)
        tol = z * se + 1e-9 * abs(mean)
        if not abs(p.metric - mean) <= tol:
            fails.append(f"{p.algorithm} G=0 lr={p.lr:g}: metric {p.metric!r} "
                         f"vs expected {mean!r} (tolerance {tol:.3g})")
    return fails


def check_heterogeneity_floor(points, curvature: float) -> list[str]:
    """At G>0 no metric can fall below f* = G^2 / (2a)."""
    fails = []
    for p in points:
        if p.heterogeneity == 0.0 or p.diverged:
            continue
        floor = p.heterogeneity ** 2 / (2 * curvature)
        if not p.metric >= floor * (1 - 1e-12):
            fails.append(f"{p.algorithm} G={p.heterogeneity:g} lr={p.lr:g}: "
                         f"metric {p.metric!r} below f* = {floor!r}")
    return fails


def check_divergence_flags(points, curvature: float) -> list[str]:
    """lr a > 2 must diverge; |1 - lr a| < 1 must not."""
    fails = []
    for p in points:
        ea = p.lr * curvature
        if ea > 2 and not p.diverged:
            fails.append(f"{p.algorithm} G={p.heterogeneity:g} lr={p.lr:g}: "
                         f"lr*a={ea:g} > 2 not reported diverged")
        if abs(1 - ea) < 1 and p.diverged:
            fails.append(f"{p.algorithm} G={p.heterogeneity:g} lr={p.lr:g}: "
                         f"lr*a={ea:g} is stable but reported diverged")
        if p.diverged != math.isnan(p.metric):
            fails.append(f"{p.algorithm} G={p.heterogeneity:g} lr={p.lr:g}: "
                         f"metric {p.metric!r} disagrees with diverged={p.diverged}")
    return fails


def check_manifest(listed, present) -> list[str]:
    """manifest.json lists exactly the files in its directory."""
    listed, present = sorted(listed), sorted(present)
    if listed == present:
        return []
    return [f"manifest lists {listed} but the directory holds {present}"]


# ---------------------------------------------------------------------------
# noniid-logistic


def check_partition(assignments, class_counts, classes) -> list[str]:
    """Every index once, no empty client, class counts from the labels."""
    fails = []
    classes = np.asarray(classes)
    flat = sorted(i for a in assignments for i in a)
    if flat != list(range(len(classes))):
        fails.append("partition does not cover every index exactly once")
    if any(len(a) == 0 for a in assignments):
        fails.append("partition leaves a client empty")
    for i, (a, counts) in enumerate(zip(assignments, class_counts)):
        recount = dict(Counter(int(c) for c in classes[list(a)]))
        if dict(counts) != recount:
            fails.append(f"client {i}: class counts {dict(counts)} != {recount}")
    return fails


def check_logistic_runs(family, traces, rng, directions: int = 4) -> list[str]:
    """loss[0] = log 2 at x0 = 0; grad agrees with a central difference of
    the loss at the final iterate; the tail loss is below the initial loss.
    """
    fails = []
    for t, tr in enumerate(traces):
        if not abs(tr.loss[0] - math.log(2)) <= 1e-12:
            fails.append(f"run {t}: loss[0] = {tr.loss[0]!r}, expected log 2")
        tail = max(1, tr.rounds // 10)
        if not np.mean(tr.loss[-tail:]) < tr.loss[0]:
            fails.append(f"run {t}: tail loss {np.mean(tr.loss[-tail:])!r} "
                         f"not below initial {tr.loss[0]!r}")
        fails += _fd_mismatch(
            lambda x: objectives.global_loss(family, x),
            objectives.global_grad(family, tr.final_x), tr.final_x, rng,
            directions, f"run {t} global_grad")
    return fails


def _fd_mismatch(loss, grad, x, rng, directions, label, h=1e-5, tol=1e-6):
    fails = []
    for _ in range(directions):
        v = rng.normal(size=x.shape)
        v /= np.linalg.norm(v)
        fd = (loss(x + h * v) - loss(x - h * v)) / (2 * h)
        exact = float(grad @ v)
        if not abs(fd - exact) <= tol * max(1.0, abs(exact)):
            fails.append(f"{label}: directional derivative {exact!r} vs "
                         f"central difference {fd!r}")
    return fails


# ---------------------------------------------------------------------------
# mlp-relay


def check_mlp_runs(objective, traces, rng, directions: int = 2) -> list[str]:
    """No run diverges; at every final iterate the split protocol's client
    and server gradients, concatenated, equal the monolithic local_grad of
    every client, and both agree with a central difference of local_loss.
    """
    fails = []
    for t, tr in enumerate(traces):
        if tr.any_diverged:
            fails.append(f"run {t} diverged at round {tr.diverged_at}")
            continue
        model = objective.template.with_params(tr.final_x)
        for i, data in enumerate(objective.datasets):
            _, cgrad, sgrad, _ = objectives.split_forward_backward(model, data)
            split = np.concatenate([cgrad, sgrad])
            mono = objective.local_grad(i, tr.final_x)
            if not np.allclose(split, mono, rtol=1e-12, atol=1e-14):
                err = float(np.max(np.abs(split - mono)))
                fails.append(f"run {t} client {i}: split and monolithic "
                             f"gradients differ by {err:.3g}")
            fails += _fd_mismatch(
                lambda x, i=i: objective.local_loss(i, x), split, tr.final_x,
                rng, directions, f"run {t} client {i} local_grad")
    return fails
