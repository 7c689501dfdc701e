"""Objective families with exact and stochastic gradient oracles.

Three families are provided:

* quadratic clients with closed-form smoothness/heterogeneity constants,
* logistic-regression clients over small datasets,
* a two-layer MLP that can be evaluated either monolithically or through
  the client/server split protocol.

All instances are immutable after construction; every evaluation is a pure
function of (x, rng), so objectives can be shared across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class EstimationError(ValueError):
    """Raised when constants cannot be estimated from the given probes."""


def _as_param(x, dim: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"parameter vector has shape {x.shape}, expected ({dim},)")
    return x


@dataclass(frozen=True)
class HeterogeneityConstants:
    """Constants of the smoothness / variance / dissimilarity assumptions."""

    L: float
    sigma2: float
    B: float
    G: float

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.B < 1:
            raise ValueError("B must be >= 1")
        if self.sigma2 < 0 or self.G < 0:
            raise ValueError("sigma2 and G must be nonnegative")


@dataclass(frozen=True)
class QuadraticClient:
    """Client objective f_i(x) = 0.5 (x-c_i)' A_i (x-c_i).

    ``curvature`` may be a full symmetric PSD matrix, a diagonal vector or a
    scalar. Stochastic gradients add isotropic Gaussian noise of total power
    noise_sigma**2, so the bounded-variance assumption holds by construction.
    """

    curvature: np.ndarray
    center: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        curv = np.asarray(self.curvature, dtype=float)
        if curv.ndim == 0:
            curv = np.full(center.shape, float(curv))
        if curv.ndim == 2 and not np.allclose(curv, curv.T):
            raise ValueError("curvature matrix must be symmetric")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "curvature", curv)
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _apply(self, v: np.ndarray) -> np.ndarray:
        if self.curvature.ndim == 2:
            return self.curvature @ v
        return self.curvature * v

    def loss(self, x: np.ndarray) -> float:
        d = x - self.center
        return 0.5 * float(d @ self._apply(d))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x - self.center)

    def lmax(self) -> float:
        if self.curvature.ndim == 2:
            return float(np.linalg.eigvalsh(self.curvature)[-1])
        return float(np.max(self.curvature))


class QuadraticFamily:
    """A collection of quadratic clients sharing one parameter space."""

    def __init__(self, clients: Sequence[QuadraticClient]):
        if not clients:
            raise ValueError("family needs at least one client")
        dims = {c.dim for c in clients}
        if len(dims) != 1:
            raise ValueError("all clients must share one dimension")
        self.clients = tuple(clients)
        self.dim = clients[0].dim
        self.n_clients = len(clients)
        self.client_sizes = None  # uniform weights

    def local_loss(self, client: int, x) -> float:
        return self.clients[client].loss(_as_param(x, self.dim))

    def local_grad(self, client: int, x) -> np.ndarray:
        return self.clients[client].grad(_as_param(x, self.dim))

    def stochastic_grad(self, client: int, x, rng: np.random.Generator) -> np.ndarray:
        c = self.clients[client]
        g = c.grad(_as_param(x, self.dim))
        if c.noise_sigma == 0.0:
            return g
        # isotropic noise with E||eps||^2 = sigma^2
        scale = c.noise_sigma / np.sqrt(self.dim)
        return g + rng.normal(0.0, scale, size=self.dim)

    def shares_curvature(self) -> bool:
        first = self.clients[0].curvature
        return all(
            c.curvature.shape == first.shape and np.array_equal(c.curvature, first)
            for c in self.clients[1:]
        )

    def optimum(self) -> np.ndarray:
        """Minimizer of the global objective (shared curvature: mean center)."""
        if self.shares_curvature():
            return np.mean([c.center for c in self.clients], axis=0)
        # general PSD case: solve (mean A_i) x = mean A_i c_i
        mats, rhs = [], np.zeros(self.dim)
        for c in self.clients:
            a = c.curvature if c.curvature.ndim == 2 else np.diag(c.curvature)
            mats.append(a)
            rhs += a @ c.center
        return np.linalg.solve(np.mean(mats, axis=0) * self.n_clients, rhs)

    def min_loss(self) -> float:
        return global_loss(self, self.optimum())


@dataclass(frozen=True)
class LogisticClient:
    """Mean logistic loss over the client's samples, labels in {0, 1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=float)
        if feats.shape[0] != labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticFamily:
    """Logistic-regression clients with an optional ridge term."""

    def __init__(self, clients: Sequence[LogisticClient], regularization: float = 0.0,
                 batch_size: int = 1):
        if not clients:
            raise ValueError("family needs at least one client")
        dims = {c.features.shape[1] for c in clients}
        if len(dims) != 1:
            raise ValueError("all clients must share one feature dimension")
        if regularization < 0:
            raise ValueError("regularization must be nonnegative")
        self.clients = tuple(clients)
        self.dim = dims.pop()
        self.n_clients = len(clients)
        self.regularization = regularization
        self.batch_size = batch_size
        self.client_sizes = tuple(c.n_samples for c in clients)

    def _loss_grad(self, client: int, x: np.ndarray, idx=None):
        c = self.clients[client]
        feats = c.features if idx is None else c.features[idx]
        labels = c.labels if idx is None else c.labels[idx]
        z = feats @ x
        p = _sigmoid(z)
        # numerically safe mean cross-entropy
        loss = float(np.mean(np.logaddexp(0.0, z) - labels * z))
        grad = feats.T @ (p - labels) / feats.shape[0]
        loss += 0.5 * self.regularization * float(x @ x)
        grad = grad + self.regularization * x
        return loss, grad

    def local_loss(self, client: int, x) -> float:
        return self._loss_grad(client, _as_param(x, self.dim))[0]

    def local_grad(self, client: int, x) -> np.ndarray:
        return self._loss_grad(client, _as_param(x, self.dim))[1]

    def stochastic_grad(self, client: int, x, rng: np.random.Generator) -> np.ndarray:
        c = self.clients[client]
        b = min(self.batch_size, c.n_samples)
        idx = rng.choice(c.n_samples, size=b, replace=False)
        return self._loss_grad(client, _as_param(x, self.dim), idx)[1]


# ---------------------------------------------------------------------------
# split two-layer MLP


class ProtocolError(ValueError):
    """Raised when the split protocol is violated (e.g. cut-width mismatch)."""


class SplitMlp:
    """Two-layer MLP split at the hidden (tanh) layer.

    Client side: affine map + tanh producing the cut activations.
    Server side: affine map + squared-error loss head.
    The concatenation [client_params; server_params] is the monolithic
    parameter vector; tanh keeps every f_i smooth.
    """

    def __init__(self, in_dim: int, cut_width: int, out_dim: int,
                 client_params: np.ndarray | None = None,
                 server_params: np.ndarray | None = None):
        if cut_width < 1:
            raise ProtocolError("cut_width must be positive")
        self.in_dim = in_dim
        self.cut_width = cut_width
        self.out_dim = out_dim
        self.n_client = cut_width * in_dim + cut_width
        self.n_server = out_dim * cut_width + out_dim
        self.client_params = (np.zeros(self.n_client) if client_params is None
                              else _as_param(client_params, self.n_client).copy())
        self.server_params = (np.zeros(self.n_server) if server_params is None
                              else _as_param(server_params, self.n_server).copy())

    @classmethod
    def random(cls, in_dim: int, cut_width: int, out_dim: int,
               rng: np.random.Generator, scale: float = 0.5) -> "SplitMlp":
        m = cls(in_dim, cut_width, out_dim)
        m.client_params = rng.normal(0.0, scale, m.n_client)
        m.server_params = rng.normal(0.0, scale, m.n_server)
        return m

    # flat <-> shaped views
    def _client_shapes(self, p: np.ndarray):
        w1 = p[: self.cut_width * self.in_dim].reshape(self.cut_width, self.in_dim)
        b1 = p[self.cut_width * self.in_dim:]
        return w1, b1

    def _server_shapes(self, p: np.ndarray):
        w2 = p[: self.out_dim * self.cut_width].reshape(self.out_dim, self.cut_width)
        b2 = p[self.out_dim * self.cut_width:]
        return w2, b2

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([self.client_params, self.server_params])

    def with_params(self, flat: np.ndarray) -> "SplitMlp":
        flat = _as_param(flat, self.n_client + self.n_server)
        return SplitMlp(self.in_dim, self.cut_width, self.out_dim,
                        flat[: self.n_client], flat[self.n_client:])

    def copy(self) -> "SplitMlp":
        return self.with_params(self.params)


def split_forward_backward(model: SplitMlp, batch):
    """Run the four-message split protocol on one batch.

    Messages: (1) client forward to cut activations, (2) server forward to
    the loss, (3) server backward returning the activation gradient plus the
    server-side parameter gradient, (4) client backward to the client-side
    parameter gradient. Returns (loss, client_grad, server_grad, activations).
    """
    inputs, targets = batch
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if inputs.shape[0] == 0:
        raise ProtocolError("batch must be nonempty")
    if inputs.shape[1] != model.in_dim:
        raise ProtocolError(
            f"input width {inputs.shape[1]} does not match model in_dim {model.in_dim}")
    n = inputs.shape[0]

    # message 1: client forward
    w1, b1 = model._client_shapes(model.client_params)
    pre = inputs @ w1.T + b1
    activations = np.tanh(pre)
    if activations.shape[1] != model.cut_width:
        raise ProtocolError("cut-width mismatch between client and server")

    # message 2: server forward
    w2, b2 = model._server_shapes(model.server_params)
    out = activations @ w2.T + b2
    resid = out - targets
    loss = 0.5 * float(np.sum(resid**2)) / n

    # message 3: server backward
    d_out = resid / n
    grad_w2 = d_out.T @ activations
    grad_b2 = d_out.sum(axis=0)
    d_act = d_out @ w2  # gradient of the loss wrt the cut activations

    # message 4: client backward
    d_pre = d_act * (1.0 - activations**2)
    grad_w1 = d_pre.T @ inputs
    grad_b1 = d_pre.sum(axis=0)

    client_grad = np.concatenate([grad_w1.ravel(), grad_b1])
    server_grad = np.concatenate([grad_w2.ravel(), grad_b2])
    return loss, client_grad, server_grad, activations


def monolithic_loss_grad(model: SplitMlp, batch):
    """Full-model forward/backward in one pass (oracle for the split path)."""
    inputs, targets = batch
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n = inputs.shape[0]
    w1, b1 = model._client_shapes(model.client_params)
    w2, b2 = model._server_shapes(model.server_params)
    h = np.tanh(inputs @ w1.T + b1)
    resid = h @ w2.T + b2 - targets
    loss = 0.5 * float(np.sum(resid**2)) / n
    d_out = resid / n
    d_h = d_out @ w2
    d_pre = d_h * (1.0 - h**2)
    grad = np.concatenate([
        (d_pre.T @ inputs).ravel(), d_pre.sum(axis=0),
        (d_out.T @ h).ravel(), d_out.sum(axis=0),
    ])
    return loss, grad


class MlpObjective:
    """Single- or multi-client objective over a shared SplitMlp architecture.

    Parameters are the flat monolithic vector; gradients use the one-pass
    monolithic backprop, independent of the split protocol.
    """

    def __init__(self, template: SplitMlp, datasets: Sequence[tuple], batch_size: int = 0):
        self.template = template
        self.datasets = [(np.atleast_2d(np.asarray(x, dtype=float)),
                          np.atleast_2d(np.asarray(y, dtype=float)))
                         for x, y in datasets]
        self.n_clients = len(self.datasets)
        self.dim = template.n_client + template.n_server
        self.batch_size = batch_size  # 0 means full batch
        self.client_sizes = tuple(x.shape[0] for x, _ in self.datasets)

    def local_loss(self, client: int, x) -> float:
        m = self.template.with_params(x)
        return monolithic_loss_grad(m, self.datasets[client])[0]

    def local_grad(self, client: int, x) -> np.ndarray:
        m = self.template.with_params(x)
        return monolithic_loss_grad(m, self.datasets[client])[1]

    def stochastic_grad(self, client: int, x, rng: np.random.Generator) -> np.ndarray:
        feats, targets = self.datasets[client]
        n = feats.shape[0]
        if self.batch_size and self.batch_size < n:
            idx = rng.choice(n, size=self.batch_size, replace=False)
            feats, targets = feats[idx], targets[idx]
        m = self.template.with_params(x)
        return monolithic_loss_grad(m, (feats, targets))[1]


# ---------------------------------------------------------------------------
# module-level oracles


def local_grad(objective, client: int, x) -> np.ndarray:
    """Exact gradient of the client objective at x."""
    return objective.local_grad(client, x)


def stochastic_grad(objective, client: int, x, rng: np.random.Generator) -> np.ndarray:
    """Unbiased stochastic gradient of the client objective at x."""
    return objective.stochastic_grad(client, x, rng)


def global_grad(objective, x) -> np.ndarray:
    """Unweighted mean of the per-client exact gradients."""
    grads = [objective.local_grad(i, x) for i in range(objective.n_clients)]
    return np.mean(grads, axis=0)


def global_loss(objective, x) -> float:
    """Unweighted mean of the per-client losses."""
    return float(np.mean([objective.local_loss(i, x)
                          for i in range(objective.n_clients)]))


def analytic_constants(objective: QuadraticFamily) -> HeterogeneityConstants:
    """Closed-form constants for a shared-curvature quadratic family.

    With shared curvature A the dissimilarity inequality holds with B = 1 and
    G^2 = lmax(A)^2 * mean ||c_i - c_bar||^2, since the per-client gradient
    spread around the global gradient is exactly A(c_bar - c_i).
    """
    if not isinstance(objective, QuadraticFamily):
        raise TypeError("analytic constants are only available for quadratic families")
    if not objective.shares_curvature():
        raise ValueError("clients have differing curvatures; use estimate_constants")
    lmax = objective.clients[0].lmax()
    sigma2 = max(c.noise_sigma**2 for c in objective.clients)
    centers = np.array([c.center for c in objective.clients])
    spread = float(np.mean(np.sum((centers - centers.mean(axis=0))**2, axis=1)))
    return HeterogeneityConstants(L=lmax, sigma2=float(sigma2), B=1.0,
                                  G=float(lmax * np.sqrt(spread)))


def estimate_constants(objective, probe_points: Sequence, samples_per_point: int,
                       rng: np.random.Generator) -> HeterogeneityConstants:
    """Empirical (L, sigma^2, B, G) from gradient probes.

    sigma^2: worst mean squared deviation of stochastic from exact gradients.
    (B^2, G^2): least-squares fit of mean ||grad_i||^2 against ||grad||^2
    with intercept, clamped to B >= 1 and G^2 >= 0.
    L: largest per-client gradient Lipschitz ratio over probe pairs.
    """
    probes = [_as_param(p, objective.dim) for p in probe_points]
    if len(probes) < 10:
        raise EstimationError("need at least 10 probe points")
    if all(np.array_equal(p, probes[0]) for p in probes[1:]):
        raise EstimationError("probe points are all identical")

    n = objective.n_clients
    local = np.array([[objective.local_grad(i, p) for i in range(n)] for p in probes])
    mean_sq = np.mean(np.sum(local**2, axis=2), axis=1)          # (1/N) sum ||grad_i||^2
    global_sq = np.sum(np.mean(local, axis=1)**2, axis=1)        # ||grad f||^2

    design = np.column_stack([global_sq, np.ones_like(global_sq)])
    (slope, intercept), *_ = np.linalg.lstsq(design, mean_sq, rcond=None)
    b = np.sqrt(max(float(slope), 1.0))
    g2 = max(float(intercept), 0.0)

    # worst-probe empirical variance
    sigma2 = 0.0
    for pi, p in enumerate(probes):
        dev = 0.0
        for i in range(n):
            exact = local[pi, i]
            sq = [np.sum((objective.stochastic_grad(i, p, rng) - exact)**2)
                  for _ in range(samples_per_point)]
            dev += float(np.mean(sq))
        sigma2 = max(sigma2, dev / n)

    lhat = 0.0
    for a in range(len(probes)):
        for bidx in range(a + 1, len(probes)):
            gap = np.linalg.norm(probes[a] - probes[bidx])
            if gap == 0:
                continue
            for i in range(n):
                ratio = np.linalg.norm(local[a, i] - local[bidx, i]) / gap
                lhat = max(lhat, float(ratio))
    if lhat <= 0:
        raise EstimationError("probes produced no gradient variation")
    return HeterogeneityConstants(L=lhat, sigma2=sigma2, B=b, G=np.sqrt(g2))


# ---------------------------------------------------------------------------
# family generators


def quadratic_family(n_clients: int, dim: int = 1, curvature: float = 1.0,
                     heterogeneity: float = 0.0, sigma: float = 0.0,
                     seed: int = 0) -> QuadraticFamily:
    """Shared-curvature family with analytic G equal to ``heterogeneity``.

    Centers are drawn at random, recentred and rescaled so that
    lmax * rms(c_i - c_bar) hits the requested G exactly; heterogeneity 0
    gives identical clients (the IID case).
    """
    from .rng import stream

    if heterogeneity == 0.0 or n_clients == 1:
        centers = np.zeros((n_clients, dim))
    else:
        g = stream(seed, 4)
        centers = g.normal(0.0, 1.0, (n_clients, dim))
        centers -= centers.mean(axis=0)
        rms = np.sqrt(np.mean(np.sum(centers**2, axis=1)))
        if rms == 0:
            centers[0, 0], centers[-1, 0] = 1.0, -1.0
            centers -= centers.mean(axis=0)
            rms = np.sqrt(np.mean(np.sum(centers**2, axis=1)))
        centers *= heterogeneity / (curvature * rms)
    return QuadraticFamily([
        QuadraticClient(curvature=np.full(dim, curvature), center=c, noise_sigma=sigma)
        for c in centers
    ])


def scalar_pair(centers=(1.0, -1.0), curvature: float = 1.0,
                sigma: float = 0.0) -> QuadraticFamily:
    """The two-client scalar family used throughout the worked examples."""
    return QuadraticFamily([
        QuadraticClient(curvature=np.array([curvature]),
                        center=np.array([c]), noise_sigma=sigma)
        for c in centers
    ])


def logistic_family(n_clients: int, dim: int, samples_per_client: int,
                    batch_size: int = 4, regularization: float = 1e-3,
                    seed: int = 0, label_skew: float = 0.0) -> LogisticFamily:
    """Synthetic logistic clients; label_skew > 0 shifts per-client means."""
    from .rng import stream

    g = stream(seed, 5)
    clients = []
    for i in range(n_clients):
        shift = label_skew * g.normal(0.0, 1.0, dim)
        feats = g.normal(0.0, 1.0, (samples_per_client, dim)) + shift
        truth = g.normal(0.0, 1.0, dim)
        labels = (_sigmoid(feats @ truth) > g.uniform(size=samples_per_client)).astype(float)
        clients.append(LogisticClient(feats, labels))
    return LogisticFamily(clients, regularization=regularization, batch_size=batch_size)
