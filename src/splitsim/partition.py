"""Non-IID client data partitioning.

Two mechanisms: Dirichlet-proportion allocation (unbalanced, parameterized
by alpha) and balanced shard dealing where most clients see at most C
classes. Both are pure functions of (labels, params, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rng import stream


class InfeasiblePartition(RuntimeError):
    """Valid parameters that the labels cannot satisfy."""


@dataclass(frozen=True)
class Partition:
    assignments: tuple  # per-client tuples of sample indices
    class_counts: tuple  # per-client dicts {class: count}
    seed: int
    mechanism: str
    params: dict

    @property
    def n_clients(self) -> int:
        return len(self.assignments)

    def sizes(self) -> list[int]:
        return [len(a) for a in self.assignments]

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "mechanism": self.mechanism,
            "params": self.params,
            "assignments": [list(map(int, a)) for a in self.assignments],
        })


def _class_counts(assignments, labels) -> tuple:
    out = []
    for idxs in assignments:
        vals, counts = np.unique(labels[list(idxs)], return_counts=True) if idxs else ([], [])
        out.append({int(v): int(c) for v, c in zip(vals, counts)})
    return tuple(out)


def _repair_empty(buckets: list[list[int]]):
    # steal one sample from the currently largest client for each empty one
    for i, b in enumerate(buckets):
        if not b:
            donor = max(range(len(buckets)), key=lambda j: len(buckets[j]))
            if len(buckets[donor]) <= 1:
                raise InfeasiblePartition("not enough samples to cover all clients")
            b.append(buckets[donor].pop())


def _check(n_clients: int, seed: int):
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def partition_dirichlet(labels, n_clients: int, alpha: float,
                        seed: int = 0) -> Partition:
    """Allocate each class multinomially by Dirichlet(alpha) client proportions."""
    labels = np.asarray(labels)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    _check(n_clients, seed)
    if n_clients > labels.shape[0]:
        raise InfeasiblePartition("more clients than samples")

    rng = stream(seed, 6)
    buckets: list[list[int]] = [[] for _ in range(n_clients)]
    for cls in np.unique(labels):
        idxs = np.flatnonzero(labels == cls)
        rng.shuffle(idxs)
        props = rng.dirichlet(np.full(n_clients, alpha))
        # deal samples by cumulative proportion cuts (multinomial totals)
        cuts = np.floor(np.cumsum(props) * len(idxs)).astype(int)
        start = 0
        for client, stop in enumerate(cuts):
            buckets[client].extend(int(i) for i in idxs[start:stop])
            start = stop
        buckets[-1].extend(int(i) for i in idxs[start:])
    _repair_empty(buckets)

    assignments = tuple(tuple(sorted(b)) for b in buckets)
    return Partition(assignments, _class_counts(assignments, labels), seed,
                     "dirichlet", {"alpha": alpha, "n_clients": n_clients})


def partition_classes(labels, n_clients: int, classes_per_client: int,
                      seed: int = 0) -> Partition:
    """Balanced shard dealing: sort by class, cut into n_clients*C shards,
    deal C shards per client. Boundary shards may straddle two classes, so a
    client can touch at most C+1 classes."""
    labels = np.asarray(labels)
    n_classes = len(np.unique(labels))
    c = classes_per_client
    if not (1 <= c <= n_classes):
        raise ValueError("classes_per_client must be in [1, number of classes]")
    _check(n_clients, seed)
    n_shards = n_clients * c
    if n_shards > labels.shape[0]:
        raise InfeasiblePartition("n_clients * classes_per_client exceeds sample count")

    rng = stream(seed, 7)
    order = np.lexsort((rng.permutation(labels.shape[0]), labels))  # by class, shuffled within
    shards = np.array_split(order, n_shards)
    deal = rng.permutation(n_shards)
    buckets = [[] for _ in range(n_clients)]
    for client in range(n_clients):
        for s in deal[client * c:(client + 1) * c]:
            buckets[client].extend(int(i) for i in shards[s])
    _repair_empty(buckets)

    assignments = tuple(tuple(sorted(b)) for b in buckets)
    return Partition(assignments, _class_counts(assignments, labels), seed,
                     "classes", {"classes_per_client": c, "n_clients": n_clients})


def partition_stats(p: Partition) -> dict:
    """Per-client sizes, exact sample ratios and class entropies."""
    sizes = p.sizes()
    total = sum(sizes)
    ratios = [Fraction(s, total) for s in sizes]
    assert sum(ratios) == 1
    entropies = []
    for counts in p.class_counts:
        n = sum(counts.values())
        probs = np.array([v / n for v in counts.values()]) if n else np.array([1.0])
        entropies.append(float(-np.sum(probs * np.log(probs))))
    return {
        "sizes": sizes,
        "ratios": [float(r) for r in ratios],
        "ratios_exact": ratios,
        "entropy": entropies,
    }
