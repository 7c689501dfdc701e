"""Round execution for split learning, FedAvg and minibatch SGD.

A single run is strictly sequential (the split protocol is inherently
relay-based); distinct runs are pure functions of (objective, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import objectives as obj
from .rng import ORDER, STEP, keys, rekeyer, stream

ALGORITHMS = ("sl", "fl", "minibatch")
KEY_BLOCK = 2**16  # most steps keyed in one pass: key memory stays flat in R


class Divergence(RuntimeError):
    """Signals a non-finite iterate; carries the last finite one."""

    def __init__(self, last_finite: np.ndarray, step: int, round_index: int | None = None):
        super().__init__(f"non-finite iterate at step {step}"
                         + ("" if round_index is None else f" of round {round_index}"))
        self.last_finite = last_finite
        self.step = step
        self.round_index = round_index


@dataclass
class TrainConfig:
    algorithm: str = "sl"
    n_clients: int = 2
    rounds: int = 1
    local_steps: int = 1
    lr: float = 0.01
    global_lr: float = 1.0
    clients_per_round: int | None = None  # None means full participation
    seed: int = 0
    order_policy: str = "random"  # or "fixed"
    divergence_factor: float = 10.0
    x0: Sequence[float] | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        for name in ("lr", "global_lr"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.local_steps < 1 or self.rounds < 1 or self.n_clients < 1:
            raise ValueError("counts must be >= 1")
        s = self.clients_per_round
        if s is not None and not (1 <= s <= self.n_clients):
            raise ValueError("clients_per_round must satisfy 1 <= S <= N")
        if self.order_policy not in ("random", "fixed"):
            raise ValueError("order_policy must be 'random' or 'fixed'")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.x0 is not None and not np.isfinite(self.x0).all():
            raise ValueError("x0 must be finite")
        if not self.divergence_factor >= 1:  # nan included
            raise ValueError("divergence_factor must be >= 1")
        if self.algorithm == "minibatch":
            # one averaged step from x over all clients: none of these apply
            for name in ("global_lr", "clients_per_round", "order_policy"):
                if getattr(self, name) != getattr(TrainConfig, name):
                    raise ValueError(f"{name} has no effect on minibatch")
        if self.order_policy == "fixed" and self.participants < self.n_clients:
            raise ValueError("order_policy 'fixed' with clients_per_round < "
                             "n_clients never runs the other clients")

    @property
    def participants(self) -> int:
        return self.n_clients if self.clients_per_round is None else self.clients_per_round


@dataclass
class RunTrace:
    """Per-round series plus the final and round-averaged iterates."""

    loss: np.ndarray
    grad_norm_sq: np.ndarray
    drift: np.ndarray
    steps: np.ndarray
    diverged: np.ndarray
    iterates: np.ndarray            # (R, d), x^0 .. x^{R-1}
    final_x: np.ndarray
    avg_x: np.ndarray
    avg_grad_norm_sq: float
    final_grad_norm_sq: float
    diverged_at: int | None = None

    @property
    def rounds(self) -> int:
        return len(self.loss)

    @property
    def any_diverged(self) -> bool:
        return bool(self.diverged.any())

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "diverged": self.any_diverged,
            "diverged_at": self.diverged_at,
            "final_loss": _json_real(self.loss[-1]),
            "final_grad_norm_sq": _json_real(self.final_grad_norm_sq),
            "avg_grad_norm_sq": _json_real(self.avg_grad_norm_sq),
            "final_x": [_json_real(v) for v in self.final_x],
            "avg_x": [_json_real(v) for v in self.avg_x],
        }


def _json_real(v):
    v = float(v)
    return v if np.isfinite(v) else None


def local_update(x, objective, client: int, steps: int, lr: float,
                 rngs: Callable[[int], np.random.Generator]):
    """Run ``steps`` sequential stochastic gradient steps on client ``client``.

    ``rngs`` maps the step index to that step's Generator, valid only inside
    that ``stochastic_grad`` call. Returns (x_out, visited) where visited[k]
    is the iterate before step k.

    Overflow and invalid operations inside a step are silenced: a
    non-finite iterate is the divergence signal, raised as Divergence
    carrying the last finite iterate.
    """
    x = np.array(x, dtype=float)
    visited = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            visited.append(x)  # never written in place, only rebound
            nxt = x - lr * objective.stochastic_grad(client, x, rngs(k))
            if not np.isfinite(nxt).all():
                raise Divergence(x, k)
            x = nxt
    return x, visited


def _round_order(config: TrainConfig, r: int) -> list[int]:
    if config.order_policy == "fixed":
        return list(range(config.participants))
    g = stream(config.seed, ORDER, r)
    return list(g.permutation(config.n_clients)[: config.participants])


def step_rngs(config: TrainConfig, r0: int, r1: int) -> list:
    """Per round r0 .. r1-1, ``rngs(i, k)``: client i's step-k Generator, one
    generator (``rng.rekeyer``) re-keyed per step; a round rule called
    without ``rngs`` derives its round's the same way."""
    shape = (r1 - r0, config.n_clients, config.local_steps)
    paths = np.indices((1, *shape)).reshape(4, -1).T + [STEP, r0, 0, 0]
    rekey = rekeyer()
    return [lambda i, k, t=t: rekey(t[i][k])
            for t in keys(config.seed, paths).reshape(*shape, 2).tolist()]


def _client_pass(start, x, objective, config: TrainConfig, r: int, i: int, rngs):
    """Client i's local update from ``start`` in round r, plus its drift from x."""
    try:
        out, visited = local_update(start, objective, i, config.local_steps,
                                    config.lr, lambda k: rngs(i, k))
    except Divergence as d:
        d.round_index = r
        raise
    # per-step sums added in step order: the bits of summing each step alone
    return out, sum(np.sum((np.array(visited) - x) ** 2, axis=1).tolist())


def sl_round(x, objective, config: TrainConfig, r: int, rngs=None):
    """One sequential split-learning round.

    Clients in the sampled order each run local_update seeded from the
    previous client's output; the returned iterate interpolates between x
    and the raw relay output with the global learning rate. Drift is the
    summed squared distance of every visited iterate from x.
    """
    x = np.asarray(x, dtype=float)
    rngs = rngs or step_rngs(config, r, r + 1)[0]
    order = _round_order(config, r)
    cur = x  # local_update copies its start
    drift = 0.0
    for i in order:
        cur, drift_i = _client_pass(cur, x, objective, config, r, i, rngs)
        drift += drift_i
    # eta_g = 1 must reproduce the vanilla relay output bit-for-bit
    out = cur if config.global_lr == 1.0 else x + config.global_lr * (cur - x)
    return out, drift, order


def fl_round(x, objective, config: TrainConfig, r: int, rngs=None):
    """One FedAvg round: parallel local updates from x, weighted averaging."""
    x = np.asarray(x, dtype=float)
    rngs = rngs or step_rngs(config, r, r + 1)[0]
    order = _round_order(config, r)
    sizes = getattr(objective, "client_sizes", None)
    weights = np.array([1.0 if sizes is None else sizes[i] for i in order], dtype=float)
    weights /= weights.sum()
    avg = np.zeros_like(x)
    drift = 0.0
    for w, i in zip(weights, order):
        out, drift_i = _client_pass(x, x, objective, config, r, i, rngs)
        avg += w * out
        drift += drift_i
    out = avg if config.global_lr == 1.0 else x + config.global_lr * (avg - x)
    return out, drift


def minibatch_round(x, objective, config: TrainConfig, r: int, rngs=None):
    """All N*K stochastic gradients evaluated at x, averaged, one step."""
    x = np.asarray(x, dtype=float)
    rngs = rngs or step_rngs(config, r, r + 1)[0]
    total = np.zeros_like(x)
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):  # as in local_update
        for i in range(config.n_clients):
            for k in range(config.local_steps):
                total += objective.stochastic_grad(i, x, rngs(i, k))
                count += 1
        nxt = x - config.lr * total / count
    if not np.isfinite(nxt).all():
        raise Divergence(x, 0, r)
    return nxt


def run_training(objective, config: TrainConfig) -> RunTrace:
    """Run R rounds of the configured algorithm, fully deterministically.

    Divergence (non-finite iterate, or round loss exceeding
    divergence_factor times the initial loss) marks the offending and all
    later rounds; earlier records stay valid.
    """
    d = objective.dim
    x = (np.zeros(d) if config.x0 is None
         else np.asarray(config.x0, dtype=float).copy())
    if x.shape != (d,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({d},)")

    R = config.rounds
    loss = np.full(R, np.nan)
    gnorm = np.full(R, np.nan)
    drift = np.zeros(R)
    steps = np.zeros(R, dtype=int)
    diverged = np.zeros(R, dtype=bool)
    iterates = np.full((R, d), np.nan)
    diverged_at = None
    init_loss = None

    per_block = max(1, KEY_BLOCK // (config.n_clients * config.local_steps))
    # overflow is silenced as in local_update: a non-finite loss or iterate
    # is the divergence signal
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(R):
            if r % per_block == 0:
                block = step_rngs(config, r, min(R, r + per_block))
            iterates[r] = x
            loss[r], grad = obj.global_loss_grad(objective, x)
            gnorm[r] = float(np.sum(grad ** 2))
            if init_loss is None:
                init_loss = loss[r]
            # loss-blowup check is meaningless from an exact optimum (init loss 0)
            blowup = (init_loss > 0
                      and loss[r] > config.divergence_factor * init_loss)
            if not np.isfinite(loss[r]) or blowup:
                diverged_at = r
                diverged[r:] = True
                break
            try:
                rngs = block[r % per_block]
                if config.algorithm == "sl":
                    x, drift[r], _ = sl_round(x, objective, config, r, rngs)
                elif config.algorithm == "fl":
                    x, drift[r] = fl_round(x, objective, config, r, rngs)
                else:
                    x = minibatch_round(x, objective, config, r, rngs)
                steps[r] = config.participants * config.local_steps
            except Divergence as d_exc:
                diverged_at = r
                diverged[r:] = True
                x = d_exc.last_finite
                break

        valid = ~np.isnan(iterates).any(axis=1)
        avg_x = iterates[valid].mean(axis=0) if valid.any() else np.full(d, np.nan)
        if diverged_at is None:
            avg_grad = float(np.sum(obj.global_grad(objective, avg_x) ** 2))
            final_grad = float(np.sum(obj.global_grad(objective, x) ** 2))
        else:
            avg_grad = float("nan")
            final_grad = float("nan")

    return RunTrace(loss=loss, grad_norm_sq=gnorm, drift=drift, steps=steps,
                    diverged=diverged, iterates=iterates, final_x=x, avg_x=avg_x,
                    avg_grad_norm_sq=avg_grad, final_grad_norm_sq=final_grad,
                    diverged_at=diverged_at)

