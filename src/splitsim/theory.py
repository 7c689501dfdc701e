"""Closed-form evaluation of every convergence bound and constraint.

All functions are exact arithmetic on the stated expressions; the
order-of-magnitude round complexities set the swallowed constants to 1 and
are meant for ratio/ordering comparisons only, never as tight numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .objectives import HeterogeneityConstants


class ConstraintViolation(ValueError):
    pass


@dataclass(frozen=True)
class BoundInputs:
    constants: HeterogeneityConstants
    n_clients: int
    local_steps: int
    rounds: int
    eta: float
    eta_g: float = 1.0
    init_gap: float = 0.0  # f(x^0) - f(x*)

    def __post_init__(self):
        if self.n_clients < 1 or self.local_steps < 1 or self.rounds < 1:
            raise ValueError("counts must be >= 1")
        if self.eta <= 0 or self.eta_g <= 0:
            raise ValueError("learning rates must be positive")
        if self.init_gap < 0:
            raise ValueError("initialization gap must be >= 0")


@dataclass(frozen=True)
class BoundReport:
    t1_init: float
    t2_drift: float
    t3_variance: float
    lr_ok: bool
    lr_max: float

    @property
    def total(self) -> float:
        return self.t1_init + self.t2_drift + self.t3_variance

    def to_dict(self) -> dict:
        return {"t1_init": self.t1_init, "t2_drift": self.t2_drift,
                "t3_variance": self.t3_variance, "total": self.total,
                "lr_ok": self.lr_ok, "lr_max": self.lr_max}


def max_lr_sl(constants: HeterogeneityConstants, n_clients: int, local_steps: int) -> float:
    """Largest admissible split-learning rate: 1 / (2NKL sqrt(2B^2+1))."""
    return 1.0 / (2 * n_clients * local_steps * constants.L
                  * math.sqrt(2 * constants.B**2 + 1))


def max_lr_fl(constants: HeterogeneityConstants, local_steps: int, eta_g: float = 1.0) -> float:
    """Largest admissible FedAvg local rate:
    (1 / 2KL) * min(1/sqrt(2B^2+1), 1/eta_g)."""
    return (1.0 / (2 * local_steps * constants.L)
            * min(1.0 / math.sqrt(2 * constants.B**2 + 1), 1.0 / eta_g))


def drift_bound(constants: HeterogeneityConstants, n_clients: int, local_steps: int,
                eta: float, grad_norm_sq: float) -> float:
    """Upper bound on the round drift sum_{i,k} E||x_i^{(r,k)} - x^r||^2."""
    n, k = n_clients, local_steps
    d = 4 * n**2 * k**2 * eta**2 * constants.L**2
    if d >= 1:
        raise ConstraintViolation("requires 4 N^2 K^2 eta^2 L^2 < 1")
    num = (2 * n**3 * k**2 * eta**2 * constants.sigma2
           + 4 * n**3 * k**3 * eta**2
           * (constants.B**2 * grad_norm_sq + constants.G**2))
    return num / (1 - d)


def sl_bound(inputs: BoundInputs) -> BoundReport:
    """Split-learning bound on E||grad f(x_bar^R)||^2 (three labeled terms)."""
    c = inputs.constants
    n, k, r, eta = inputs.n_clients, inputs.local_steps, inputs.rounds, inputs.eta
    t1 = 4 * inputs.init_gap / (eta * n * k * r)
    t2 = (12 * eta**2 * n**2 * k**2 * c.L**2 * c.G**2
          + 6 * eta**2 * n**2 * k * c.L**2 * c.sigma2)
    t3 = 4 * eta * n * c.L * c.sigma2
    lrmax = max_lr_sl(c, n, k)
    return BoundReport(t1, t2, t3, lr_ok=eta <= lrmax, lr_max=lrmax)


def sl_corollary_rate(init_gap: float, constants: HeterogeneityConstants,
                      n_clients: int, local_steps: int, rounds: int) -> float:
    """The split-learning bound with eta = 1/(NK sqrt(R)) substituted:
    4F/sqrt(R) + 12 L^2 G^2 / R + 6 L^2 sigma^2 / (KR) + 4 L sigma^2 / (K sqrt(R))."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    c = constants
    k, r = local_steps, rounds
    return (4 * init_gap / math.sqrt(r)
            + 12 * c.L**2 * c.G**2 / r
            + 6 * c.L**2 * c.sigma2 / (k * r)
            + 4 * c.L * c.sigma2 / (k * math.sqrt(r)))


def fl_bound(inputs: BoundInputs) -> BoundReport:
    """FedAvg bound on E||grad f(x_bar^R)||^2 with global rate eta_g."""
    c = inputs.constants
    n, k, r = inputs.n_clients, inputs.local_steps, inputs.rounds
    eta_l, eta_g = inputs.eta, inputs.eta_g
    t1 = 4 * inputs.init_gap / (k * eta_g * eta_l * r)
    t2 = (12 * k * (k - 1) * eta_l**2 * c.L**2 * c.G**2
          + 6 * (k - 1) * eta_l**2 * c.L**2 * c.sigma2)
    t3 = 4 * eta_g * eta_l * c.L * c.sigma2 / n
    lrmax = max_lr_fl(c, k, eta_g)
    return BoundReport(t1, t2, t3, lr_ok=eta_l <= lrmax, lr_max=lrmax)


def one_client_bound(inputs: BoundInputs) -> float:
    """Single-client-progress bound; the 4G^2 term survives eta -> 0, which
    is the neighborhood-convergence floor of the biased-gradient route."""
    c = inputs.constants
    n, k, r, eta = inputs.n_clients, inputs.local_steps, inputs.rounds, inputs.eta
    return (4 * inputs.init_gap / (n * k * eta * r)
            + 40 * k**2 * c.L**2 * eta**2 * c.G**2
            + 10 * k * c.L**2 * eta**2 * c.sigma2
            + 4 * c.L * eta * c.sigma2
            + 4 * c.G**2)


def round_complexity(algorithm: str, init_gap: float, constants: HeterogeneityConstants,
                     n_clients: int, local_steps: int, epsilon: float) -> float:
    """Rounds-to-epsilon with all swallowed constants set to 1.

    FL: F^2/e^2 + sigma^4/(N^2 K^2 e^2) + (K G^2 + sigma^2)/(K e)
    SL: F^2/e^2 + sigma^4/(K^2 e^2)     + (K G^2 + sigma^2)/(K e)
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    c = constants
    n, k, e = n_clients, local_steps, epsilon
    common = init_gap**2 / e**2 + (k * c.G**2 + c.sigma2) / (k * e)
    if algorithm == "fl":
        return common + c.sigma2**2 / (n**2 * k**2 * e**2)
    if algorithm == "sl":
        return common + c.sigma2**2 / (k**2 * e**2)
    raise ValueError("round complexity is defined for 'sl' and 'fl' only")
