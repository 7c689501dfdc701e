"""Objective families with exact and stochastic gradient oracles.

Three families are provided:

* quadratic clients with closed-form smoothness/heterogeneity constants,
* logistic-regression clients over small datasets,
* a two-layer MLP that can be evaluated either monolithically or through
  the client/server split protocol.

All instances are immutable after construction; every evaluation is a pure
function of (x, rng), so objectives can be shared across runs.

Each family's stochastic oracle is ``pass_oracle(clients, rng)``: for a
(K, B) array of client indices and ``rng(k, b)``, the Generator of step k
of row b, it draws the whole pass's randomness up front and returns
``grad(X, k, out)``, which writes client ``clients[k, b]``'s stochastic
gradient at ``X[b]`` into ``out[b]``. ``stochastic_grad`` is its one-row
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _as_param(x, dim: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"parameter vector has shape {x.shape}, expected ({dim},)")
    return x


def _one_row(family, client: int, x, rng: np.random.Generator) -> np.ndarray:
    """``family.stochastic_grad``: a one-step, one-row ``pass_oracle`` call."""
    x = _as_param(x, family.dim)
    out = np.empty((1, family.dim))
    family.pass_oracle(np.array([[client]]), lambda k, b: rng)(x[None], 0, out)
    return out[0]


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
    """Client objective f_i(x) = 0.5 (x-c_i)' diag(a_i) (x-c_i).

    Constructor input to ``QuadraticFamily`` only. ``curvature`` a_i is a
    diagonal vector or a scalar, broadcast to the shape of the center c_i;
    it must be finite and nonnegative, and c_i and noise_sigma finite.
    Stochastic gradients add isotropic Gaussian noise of total power
    noise_sigma**2, so the bounded-variance assumption holds by construction.
    """

    curvature: np.ndarray
    center: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if not np.isfinite(center).all():
            raise ValueError("center must be finite")
        # a (d, d) matrix or a vector of another length raises ValueError here
        curv = np.broadcast_to(np.asarray(self.curvature, dtype=float),
                               center.shape).copy()
        if not ((0 <= curv) & (curv < np.inf)).all():
            raise ValueError("curvature must be finite and nonnegative")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "curvature", curv)


class QuadraticFamily:
    """Quadratic clients stacked as arrays, row i being client i: ``centers``
    and diagonal ``curvature`` (N, d), noise levels ``sigma`` (N,)."""

    def __init__(self, clients: Sequence[QuadraticClient]):
        if not clients:
            raise ValueError("family needs at least one client")
        if len({c.center.shape for c in clients}) != 1:
            raise ValueError("all clients must share one dimension")
        self.centers = np.array([c.center for c in clients])
        self.curvature = np.array([c.curvature for c in clients])
        self.sigma = np.array([c.noise_sigma for c in clients], dtype=float)
        self.n_clients, self.dim = self.centers.shape
        self.client_sizes = None  # uniform weights

    def local_loss_grad(self, client: int, x):
        d = _as_param(x, self.dim) - self.centers[client]
        grad = self.curvature[client] * d
        return 0.5 * float(d @ grad), grad

    def local_loss(self, client: int, x) -> float:
        return self.local_loss_grad(client, x)[0]

    def local_grad(self, client: int, x) -> np.ndarray:
        return self.local_loss_grad(client, x)[1]

    def stochastic_grad(self, client: int, x, rng: np.random.Generator) -> np.ndarray:
        return _one_row(self, client, x, rng)

    def pass_oracle(self, clients: np.ndarray, rng):
        curv, centers = self.curvature[clients], self.centers[clients]
        sigma = self.sigma[clients]
        noisy = sigma != 0.0
        # isotropic noise with E||eps||^2 = sigma^2, drawn in (k, b) order;
        # 0.0 + scale * z is what Generator.normal(0.0, scale) computes
        noise = np.zeros(curv.shape)
        for k, b in np.argwhere(noisy).tolist():
            rng(k, b).standard_normal(out=noise[k, b])
        noise = 0.0 + (sigma / np.sqrt(self.dim))[:, :, None] * noise
        # a noiseless row gets nothing added: g + 0.0 would turn -0.0 into +0.0
        where = [True] * len(noisy) if noisy.all() else list(noisy[:, :, None])

        def grad(X, k, out):
            np.subtract(X, centers[k], out=out)
            out *= curv[k]
            np.add(out, noise[k], out=out, where=where[k])
        return grad

    def shares_curvature(self) -> bool:
        return bool((self.curvature == self.curvature[0]).all())

    def optimum(self) -> np.ndarray:
        """Minimizer of the global objective: the curvature-weighted mean center
        (the plain mean under shared curvature or where no client curves)."""
        if self.shares_curvature():
            return self.centers.mean(axis=0)
        total = self.curvature.sum(axis=0)
        return np.divide((self.curvature * self.centers).sum(axis=0), total,
                         out=self.centers.mean(axis=0), where=total > 0)

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
        if labels.shape[0] == 0:
            raise ValueError("a logistic client needs at least one sample")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; where() rather than -abs() keeps a nan's sign
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


class LogisticFamily:
    """Logistic-regression clients with an optional ridge term."""

    def __init__(self, clients: Sequence[LogisticClient], regularization: float = 0.0,
                 batch_size: int = 1):
        if not clients:
            raise ValueError("family needs at least one client")
        dims = {c.features.shape[1] for c in clients}
        if len(dims) != 1:
            raise ValueError("all clients must share one feature dimension")
        if not 0 <= regularization < np.inf:
            raise ValueError("regularization must be finite and nonnegative")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.clients = tuple(clients)
        self.dim = dims.pop()
        self.n_clients = len(clients)
        self.regularization = regularization
        self.batch_size = batch_size
        self.client_sizes = tuple(c.n_samples for c in clients)

    def _grad(self, feats, labels, z, x) -> np.ndarray:
        return (feats.T @ (_sigmoid(z) - labels) / feats.shape[0]
                + self.regularization * x)

    def local_loss_grad(self, client: int, x):
        c = self.clients[client]
        x = _as_param(x, self.dim)
        z = c.features @ x
        # numerically safe mean cross-entropy
        loss = (float(np.mean(np.logaddexp(0.0, z) - c.labels * z))
                + 0.5 * self.regularization * float(x @ x))
        return loss, self._grad(c.features, c.labels, z, x)

    def local_loss(self, client: int, x) -> float:
        return self.local_loss_grad(client, x)[0]

    def local_grad(self, client: int, x) -> np.ndarray:
        return self.local_loss_grad(client, x)[1]

    def stochastic_grad(self, client: int, x, rng: np.random.Generator) -> np.ndarray:
        return _one_row(self, client, x, rng)

    def pass_oracle(self, clients: np.ndarray, rng):
        rows = [[self.clients[c] for c in row] for row in clients.tolist()]
        # each step's minibatch indices, drawn in (k, b) order
        idx = [[rng(k, b).choice(c.n_samples, size=min(self.batch_size, c.n_samples),
                                 replace=False) for b, c in enumerate(row)]
               for k, row in enumerate(rows)]

        def grad(X, k, out):
            for b, (c, i) in enumerate(zip(rows[k], idx[k])):
                feats = c.features[i]
                out[b] = self._grad(feats, c.labels[i], feats @ X[b], X[b])
        return grad


# ---------------------------------------------------------------------------
# split two-layer MLP


class ProtocolError(ValueError):
    """Raised when a model or batch cannot run the split protocol: a cut
    width below one, an empty batch or an input width other than in_dim."""


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


def split_forward_backward(model: SplitMlp, batch, params=None):
    """Run the four-message split protocol on one batch.

    Messages: (1) client forward to cut activations, (2) server forward to
    the loss, (3) server backward returning the activation gradient plus the
    server-side parameter gradient, (4) client backward to the client-side
    parameter gradient. Returns (loss, client_grad, server_grad, activations).
    ``params`` is as in ``monolithic_loss_grad``.
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
    flat = model.params if params is None else params

    # message 1: client forward
    w1, b1 = model._client_shapes(flat[: model.n_client])
    pre = inputs @ w1.T + b1
    activations = np.tanh(pre)

    # message 2: server forward
    w2, b2 = model._server_shapes(flat[model.n_client:])
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


def monolithic_loss_grad(model: SplitMlp, batch, params=None):
    """Full-model forward/backward in one pass (oracle for the split path).

    ``params``, a flat monolithic vector, is evaluated in place of the
    model's own parameters, through views of it.
    """
    inputs, targets = batch
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n = inputs.shape[0]
    flat = model.params if params is None else params
    w1, b1 = model._client_shapes(flat[: model.n_client])
    w2, b2 = model._server_shapes(flat[model.n_client:])
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

    Parameters are the flat monolithic vector [client; server]. Every
    training step (``stochastic_grad``) runs the four-message split
    protocol; the exact full-data oracle (``local_loss_grad``) uses the
    one-pass monolithic backprop, so the two are independent computations
    of the same gradient.
    """

    def __init__(self, template: SplitMlp, datasets: Sequence[tuple], batch_size: int = 0):
        if batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 means full batch)")
        self.template = template
        self.datasets = [(np.atleast_2d(np.asarray(x, dtype=float)),
                          np.atleast_2d(np.asarray(y, dtype=float)))
                         for x, y in datasets]
        self.n_clients = len(self.datasets)
        self.dim = template.n_client + template.n_server
        self.batch_size = batch_size  # 0 means full batch
        self.client_sizes = tuple(x.shape[0] for x, _ in self.datasets)

    def local_loss_grad(self, client: int, x):
        return monolithic_loss_grad(self.template, self.datasets[client],
                                    _as_param(x, self.dim))

    def local_loss(self, client: int, x) -> float:
        return self.local_loss_grad(client, x)[0]

    def local_grad(self, client: int, x) -> np.ndarray:
        return self.local_loss_grad(client, x)[1]

    def stochastic_grad(self, client: int, x, rng: np.random.Generator) -> np.ndarray:
        return _one_row(self, client, x, rng)

    def pass_oracle(self, clients: np.ndarray, rng):
        rows = clients.tolist()
        # each step's minibatch indices (every sample for a full batch),
        # drawn in (k, b) order; the batches are gathered per step
        sizes = [len(feats) for feats, _ in self.datasets]
        idx = [[rng(k, b).choice(sizes[c], size=self.batch_size, replace=False)
                if 0 < self.batch_size < sizes[c] else slice(None)
                for b, c in enumerate(row)] for k, row in enumerate(rows)]

        def grad(X, k, out):
            for b, (c, i) in enumerate(zip(rows[k], idx[k])):
                feats, targets = self.datasets[c]
                _, client_grad, server_grad, _ = split_forward_backward(
                    self.template, (feats[i], targets[i]), X[b])
                np.concatenate([client_grad, server_grad], out=out[b])
        return grad


# ---------------------------------------------------------------------------
# module-level oracles


def global_loss_grad(objective, x):
    """Unweighted means of the per-client losses and exact gradients.

    One full-data pass per client; the only loop over clients.
    """
    losses, grads = zip(*(objective.local_loss_grad(i, x)
                          for i in range(objective.n_clients)))
    return float(np.mean(losses)), np.mean(grads, axis=0)


def global_grad(objective, x) -> np.ndarray:
    """Unweighted mean of the per-client exact gradients."""
    return global_loss_grad(objective, x)[1]


def global_loss(objective, x) -> float:
    """Unweighted mean of the per-client losses."""
    return global_loss_grad(objective, x)[0]


def analytic_constants(objective: QuadraticFamily) -> HeterogeneityConstants:
    """Closed-form constants for a shared-curvature quadratic family.

    With shared curvature A the dissimilarity inequality holds with B = 1 and
    G^2 = lmax(A)^2 * mean ||c_i - c_bar||^2, since the per-client gradient
    spread around the global gradient is exactly A(c_bar - c_i).
    """
    if not isinstance(objective, QuadraticFamily):
        raise TypeError("analytic constants are only available for quadratic families")
    if not objective.shares_curvature():
        raise ValueError("clients have differing curvatures")
    lmax = float(np.max(objective.curvature[0]))
    try:
        sigma2 = float(np.max(objective.sigma))**2
    except OverflowError:
        raise ValueError("sigma: its square overflows") from None
    centers = objective.centers
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(np.mean(np.sum((centers - centers.mean(axis=0))**2, axis=1)))
        G = float(lmax * np.sqrt(spread))
    if not np.isfinite(G):
        raise ValueError("heterogeneity: G, from the spread of the centers, overflows")
    return HeterogeneityConstants(L=lmax, sigma2=sigma2, B=1.0, G=G)


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

    if n_clients < 1:
        raise ValueError("family needs at least one client")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0 <= heterogeneity < np.inf:
        raise ValueError("heterogeneity must be finite and nonnegative")
    if heterogeneity > 0 and not curvature > 0:
        raise ValueError("curvature must be positive when heterogeneity > 0")
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
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            centers *= heterogeneity / (curvature * rms)
        if not np.isfinite(centers).all():
            raise ValueError(f"curvature: {curvature!r} is too small for heterogeneity "
                             f"{heterogeneity!r}: the centers overflow")
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

    if samples_per_client < 1:
        raise ValueError("samples_per_client must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not np.isfinite(label_skew):
        raise ValueError("label_skew must be finite")
    g = stream(seed, 5)
    clients = []
    for i in range(n_clients):
        shift = label_skew * g.normal(0.0, 1.0, dim)
        feats = g.normal(0.0, 1.0, (samples_per_client, dim)) + shift
        truth = g.normal(0.0, 1.0, dim)
        labels = (_sigmoid(feats @ truth) > g.uniform(size=samples_per_client)).astype(float)
        clients.append(LogisticClient(feats, labels))
    return LogisticFamily(clients, regularization=regularization, batch_size=batch_size)
