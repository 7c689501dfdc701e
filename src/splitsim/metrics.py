"""Measurement probes linking simulated runs to the closed-form bounds."""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from .engine import RunTrace, TrainConfig, run_training
from .objectives import HeterogeneityConstants
from .theory import ConstraintViolation, drift_bound

DEFAULT_LR_GRID = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1)


class DivergedTrace(ValueError):
    pass


@dataclass(frozen=True)
class SweepResult:
    grid: tuple
    metric: tuple          # seed-mean final metric per grid point (nan if diverged)
    diverged: tuple        # per grid point
    best_lr: float | None
    threshold_lr: float | None  # None means "above grid max"

    @property
    def all_diverged(self) -> bool:
        return all(self.diverged)

    def threshold_label(self) -> str:
        return f"> {self.grid[-1]}" if self.threshold_lr is None else str(self.threshold_lr)

    def summary(self) -> dict:
        return {
            "best_lr": self.best_lr,
            "best_metric": (None if self.best_lr is None
                            else float(self.metric[self.grid.index(self.best_lr)])),
            "threshold_lr": self.threshold_label(),
            "all_diverged": self.all_diverged,
        }


@dataclass(frozen=True)
class DriftCheckReport:
    rounds: int
    mean_drift: np.ndarray
    mean_bound: np.ndarray
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_drift_lemma(config: TrainConfig, traces: Sequence[RunTrace],
                      constants: HeterogeneityConstants) -> DriftCheckReport:
    """Compare seed-mean measured drift against the drift bound per round.

    ``traces`` are runs of ``config``, one per seed. The bound is affine in
    ||grad f(x^r)||^2, so averaging per-seed bounds equals evaluating the
    bound at the seed-mean gradient norm.
    """
    n, k = config.n_clients, config.local_steps
    if config.lr > 1.0 / (2 * n * k * constants.L):
        raise ConstraintViolation("lemma requires eta <= 1/(2NKL)")
    if config.algorithm != "sl":
        raise ValueError("the drift lemma is stated for split learning")
    if not traces:
        raise ValueError("need at least one trace")

    drifts, bounds = [], []
    for j, trace in enumerate(traces):
        if trace.any_diverged:
            raise DivergedTrace(f"trace {j} diverged inside the lr constraint")
        drifts.append(trace.drift)
        bounds.append([drift_bound(constants, n, k, config.lr, g)
                       for g in trace.grad_norm_sq])
    mean_drift = np.mean(drifts, axis=0)
    mean_bound = np.mean(bounds, axis=0)
    violations = tuple(int(r) for r in range(mean_drift.size)
                       if mean_drift[r] > mean_bound[r])
    return DriftCheckReport(mean_drift.size, mean_drift, mean_bound, violations)


def lr_sweep(objective, base_config: TrainConfig, grid: Sequence[float] = DEFAULT_LR_GRID,
             seeds: Sequence[int] | None = None) -> SweepResult:
    """One (seed-averaged) run per grid learning rate.

    The metric is the mean final-loss over the last 10% of rounds (at least
    one round), the synthetic stand-in for held-out accuracy. A grid point
    counts as diverged if any seed diverges.
    """
    grid = tuple(grid)
    if list(grid) != sorted(grid):
        raise ValueError("grid must be sorted ascending")
    if seeds is None:
        seeds = [base_config.seed]

    metrics, diverged = [], []
    tail = max(1, base_config.rounds // 10)
    for lr in grid:
        finals, died = [], False
        for s in seeds:
            trace = run_training(objective, dc_replace(base_config, lr=lr, seed=int(s)))
            if trace.any_diverged:
                died = True
                break
            finals.append(float(np.mean(trace.loss[-tail:])))
        diverged.append(died)
        metrics.append(float(np.mean(finals)) if not died else float("nan"))

    alive = [i for i, d in enumerate(diverged) if not d]
    best_lr = grid[min(alive, key=lambda i: metrics[i])] if alive else None
    dead = [i for i, d in enumerate(diverged) if d]
    threshold_lr = grid[min(dead)] if dead else None
    return SweepResult(grid, tuple(metrics), tuple(diverged), best_lr, threshold_lr)


def fit_rate_exponent(points: Sequence[tuple]) -> float:
    """Least-squares slope of log(metric) against log(R)."""
    if len(points) < 4:
        raise ValueError("need at least 4 (R, metric) points")
    rs = np.array([p[0] for p in points], dtype=float)
    ms = np.array([p[1] for p in points], dtype=float)
    if np.any(ms <= 0):
        raise ValueError("metric values must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(rs), np.log(ms), 1)
    return float(slope)


def rounds_to_epsilon(trace: RunTrace, min_loss: float, epsilon: float) -> int | None:
    """First round index with f(x^r) - f* <= epsilon, or None if never."""
    gaps = trace.loss - min_loss
    hits = np.flatnonzero(~trace.diverged & (gaps <= epsilon))
    return int(hits[0]) if hits.size else None
