"""splitsim: deterministic split-learning / FedAvg / minibatch-SGD lab.

The package simulates the three update rules exactly, evaluates every
convergence bound in closed form, and checks measured behavior against the
bounds on objectives whose constants are analytic.
"""

from .harness import (ExperimentSpec, SpecError, cmd_bounds, cmd_compare,
                      cmd_partition, cmd_run, cmd_sweep)
from .engine import (Divergence, RunTrace, TrainConfig, fl_round, local_update,
                     minibatch_round, run_training, sl_round)
from .metrics import (DEFAULT_LR_GRID, SweepResult, check_drift_lemma,
                      fit_rate_exponent, lr_sweep, rounds_to_epsilon)
from .objectives import (HeterogeneityConstants, LogisticClient, LogisticFamily,
                         MlpObjective, QuadraticClient, QuadraticFamily,
                         SplitMlp, analytic_constants, global_grad, global_loss,
                         global_loss_grad, logistic_family,
                         monolithic_loss_grad, quadratic_family, scalar_pair,
                         split_forward_backward)
from .partition import (Partition, partition_classes, partition_dirichlet,
                        partition_stats)
from .theory import (BoundInputs, BoundReport, ConstraintViolation, drift_bound,
                     fl_bound, max_lr_fl, max_lr_sl, one_client_bound,
                     round_complexity, sl_bound, sl_corollary_rate)

__version__ = "0.1.0"
