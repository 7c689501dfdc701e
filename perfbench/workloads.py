"""The benchmark's three workloads.

A workload builds its inputs from the benchmark seed when it is
constructed (the set-up), then ``job()`` runs its fixed job once: the
body that is timed.  ``outputs()`` reads back what the job produced
(outside the timed region), ``fingerprint()`` hashes it for the
bit-identity and determinism checks and ``check()`` applies the method
checks of checks.py.  The program only ever receives the generated inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from splitsim import engine, harness, objectives, partition

import checks


@dataclass
class JobResult:
    attempted: int
    failed: int
    traces: list          # RunTrace per run_training call (empty for sweeps)


def _inputs_rng(seed: int, workload_tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_tag])


class RunTrainingJob:
    """A job of plain ``run_training`` calls on one objective.

    Subclasses set ``objective`` and ``configs``; one call is one operation.
    """

    def reset(self):
        pass

    def job(self) -> JobResult:
        traces, failed = [], 0
        for cfg in self.configs:
            try:
                traces.append(engine.run_training(self.objective, cfg))
            except Exception as e:  # a raising run is a failed operation
                print(f"run_training failed: {e!r}", file=sys.stderr)
                failed += 1
        return JobResult(len(self.configs), failed, traces)

    @staticmethod
    def outputs(result: JobResult):
        return result.traces

    @staticmethod
    def fingerprint(traces) -> str:
        h = hashlib.sha256()
        for tr in traces:
            for arr in (tr.loss, tr.grad_norm_sq, tr.drift, tr.steps,
                        tr.diverged, tr.iterates, tr.final_x, tr.avg_x):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr((tr.avg_grad_norm_sq, tr.final_grad_norm_sq,
                           tr.diverged_at)).encode())
        return h.hexdigest()

    @staticmethod
    def bytes_written(_outputs) -> int:
        return 0


# ---------------------------------------------------------------------------


class SweepQuadratic:
    """``splitsim sweep`` on a quadratic family, one CLI command per algorithm.

    N=10, K=5, d=2, sigma>0, heterogeneity grid with G=0, the default
    6-point lr grid and several seeds.  Curvature 25 puts the top grid lr
    at lr*a = 2.5 > 2, so that point diverges; every other point has
    |1 - lr*a| < 1.
    """

    name = "sweep-quadratic"
    N_CLIENTS, LOCAL_STEPS, DIM = 10, 5, 2
    CURVATURE, SIGMA = 25.0, 1.0
    HETEROGENEITY = (0.0, 2.0)
    ROUNDS = 10
    N_SEEDS = 3
    X0_NORM = 2.0
    ALGORITHMS = ("sl", "fl", "minibatch")

    def __init__(self, seed: int, workdir: Path):
        rng = _inputs_rng(seed, 1)
        x0 = rng.normal(size=self.DIM)
        self.x0 = x0 * (self.X0_NORM / np.linalg.norm(x0))
        self.train_seeds = [int(s) for s in rng.integers(0, 2**31, self.N_SEEDS)]
        objective_seed = int(rng.integers(0, 2**31))
        self.out = workdir / "out"
        self.configs = {}
        for algo in self.ALGORITHMS:
            text = (
                "[objective]\nfamily = quadratic\n"
                f"n_clients = {self.N_CLIENTS}\ndim = {self.DIM}\n"
                f"curvature = {self.CURVATURE!r}\nsigma = {self.SIGMA!r}\n"
                f"seed = {objective_seed}\n\n"
                f"[train]\nalgorithm = {algo}\nrounds = {self.ROUNDS}\n"
                f"local_steps = {self.LOCAL_STEPS}\n"
                # the grid replaces lr, but the harness still requires it
                "lr = 0.01\n"
                f"seeds = {', '.join(map(str, self.train_seeds))}\n"
                f"x0 = {', '.join(repr(float(v)) for v in self.x0)}\n\n"
                "[sweep]\n"
                f"algorithms = {algo}\n"
                f"heterogeneity_grid = {' '.join(map(repr, self.HETEROGENEITY))}\n")
            path = workdir / f"sweep_{algo}.ini"
            path.write_text(text)
            self.configs[algo] = path

    def inputs_digest(self) -> str:
        return hashlib.sha256(b"".join(p.read_bytes()
                                       for p in self.configs.values())).hexdigest()

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def job(self) -> JobResult:
        failed = 0
        for algo, path in self.configs.items():
            code = harness.main(["sweep", "--config", str(path),
                                 "--out", str(self.out / algo)])
            failed += code != 0
        return JobResult(len(self.configs), failed, [])

    def outputs(self, result: JobResult) -> dict:
        """{relative path: bytes} of every file the sweep wrote."""
        return {str(p.relative_to(self.out)): p.read_bytes()
                for p in sorted(self.out.rglob("*")) if p.is_file()}

    @staticmethod
    def fingerprint(files: dict) -> str:
        h = hashlib.sha256()
        for name, data in sorted(files.items()):
            h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        return h.hexdigest()

    @staticmethod
    def bytes_written(files: dict) -> int:
        return sum(len(data) for data in files.values())

    def setup_params(self) -> checks.QuadraticSetup:
        return checks.QuadraticSetup(
            curvature=self.CURVATURE, sigma=self.SIGMA,
            n_clients=self.N_CLIENTS, local_steps=self.LOCAL_STEPS,
            dim=self.DIM, rounds=self.ROUNDS,
            x0_sq=float(self.x0 @ self.x0), n_seeds=self.N_SEEDS)

    def check(self, files: dict) -> list[str]:
        fails, points = [], []
        for algo in self.ALGORITHMS:
            names = sorted(n.split("/", 1)[1] for n in files
                           if n.startswith(algo + "/"))
            if "manifest.json" not in names:
                fails.append(f"{algo}: no manifest.json")
                continue
            listed = json.loads(files[f"{algo}/manifest.json"])["files"]
            fails += checks.check_manifest(listed, names)
            levels = set()
            for name in names:
                if name.startswith("sweep_") and name.endswith(".json"):
                    points += parse_sweep(files[f"{algo}/{name}"],
                                          files[f"{algo}/{name[:-5]}.csv"])
                    levels.add(points[-1].heterogeneity)
            if levels != set(self.HETEROGENEITY):
                fails.append(f"{algo}: heterogeneity levels {sorted(levels)}")
        fails += checks.check_iid_expectation(points, self.setup_params())
        fails += checks.check_heterogeneity_floor(points, self.CURVATURE)
        fails += checks.check_divergence_flags(points, self.CURVATURE)
        return fails


def parse_sweep(summary_json: bytes, rows_csv: bytes) -> list:
    """SweepPoints of one sweep_<algo>_G<g>.{json,csv} pair."""
    summary = json.loads(summary_json)
    lines = [ln for ln in rows_csv.decode().splitlines()
             if not ln.startswith("#")]
    return [checks.SweepPoint(summary["algorithm"],
                              float(summary["heterogeneity"]), float(row["lr"]),
                              float(row["metric"]), row["diverged"] == "1")
            for row in csv.DictReader(lines)]


# ---------------------------------------------------------------------------


class NoniidLogistic(RunTrainingJob):
    """Logistic clients from a Dirichlet split of a synthetic labelled pool.

    The pool has 10 Gaussian clusters in d=50; binary targets come from a
    logistic teacher.  A Dirichlet(0.3) split of the cluster labels gives
    strongly unequal, label-skewed clients.  SL and FL sample minibatch
    indices per step; the per-round full-data global loss and gradient
    pass over every sample is a large share of the time.
    """

    name = "noniid-logistic"
    N_CLIENTS, DIM, N_CLASSES, POOL = 10, 50, 10, 20000
    ALPHA = 0.3
    BATCH, LOCAL_STEPS, ROUNDS, LR = 16, 5, 10, 0.05
    REGULARIZATION = 1e-3
    N_SEEDS = 5
    ALGORITHMS = ("sl", "fl")

    def __init__(self, seed: int, workdir: Path):
        rng = _inputs_rng(seed, 2)
        centers = rng.normal(0.0, 1.0, (self.N_CLASSES, self.DIM))
        self.classes = rng.integers(0, self.N_CLASSES, self.POOL)
        feats = centers[self.classes] + rng.normal(size=(self.POOL, self.DIM))
        feats /= np.sqrt(self.DIM)
        teacher = rng.normal(0.0, 3.0, self.DIM)
        p = 1.0 / (1.0 + np.exp(-(feats @ teacher)))
        targets = (rng.uniform(size=self.POOL) < p).astype(float)
        split_seed = int(rng.integers(0, 2**31))
        run_seeds = [int(s) for s in rng.integers(0, 2**31, self.N_SEEDS)]

        self.partition = partition.partition_dirichlet(
            self.classes, self.N_CLIENTS, self.ALPHA, split_seed)
        clients = [objectives.LogisticClient(feats[list(a)], targets[list(a)])
                   for a in self.partition.assignments]
        self.objective = objectives.LogisticFamily(
            clients, regularization=self.REGULARIZATION, batch_size=self.BATCH)
        self.configs = [engine.TrainConfig(
            algorithm=algo, n_clients=self.N_CLIENTS, rounds=self.ROUNDS,
            local_steps=self.LOCAL_STEPS, lr=self.LR, seed=s)
            for algo in self.ALGORITHMS for s in run_seeds]
        self.seed = seed

    def inputs_digest(self) -> str:
        return hashlib.sha256(self.partition.to_json().encode()).hexdigest()

    def check(self, traces) -> list[str]:
        fails = checks.check_partition(self.partition.assignments,
                                       self.partition.class_counts, self.classes)
        return fails + checks.check_logistic_runs(
            self.objective, traces, np.random.default_rng((self.seed, 92)))


# ---------------------------------------------------------------------------


class MlpRelay(RunTrainingJob):
    """The split two-layer MLP over non-IID regression clients.

    Each client's inputs are shifted by its own random offset and its
    targets come from a tanh teacher network plus noise.  SL and FL call
    run_training with a per-step minibatch; every step is real matrix work
    in monolithic_loss_grad and SplitMlp.with_params.
    """

    name = "mlp-relay"
    N_CLIENTS, IN_DIM, CUT_WIDTH, OUT_DIM = 8, 32, 64, 8
    TEACHER_WIDTH, SAMPLES, SHIFT, TARGET_NOISE = 16, 256, 1.0, 0.05
    BATCH, LOCAL_STEPS, ROUNDS, LR = 64, 5, 10, 0.02
    N_SEEDS = 5
    ALGORITHMS = ("sl", "fl")

    def __init__(self, seed: int, workdir: Path):
        rng = _inputs_rng(seed, 3)
        w1 = rng.normal(0.0, 1.0 / np.sqrt(self.IN_DIM),
                        (self.TEACHER_WIDTH, self.IN_DIM))
        b1 = rng.normal(0.0, 0.1, self.TEACHER_WIDTH)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(self.TEACHER_WIDTH),
                        (self.OUT_DIM, self.TEACHER_WIDTH))
        datasets = []
        for _ in range(self.N_CLIENTS):
            shift = rng.normal(0.0, self.SHIFT, self.IN_DIM)
            x = rng.normal(size=(self.SAMPLES, self.IN_DIM)) + shift
            y = np.tanh(x @ w1.T + b1) @ w2.T
            y += rng.normal(0.0, self.TARGET_NOISE, y.shape)
            datasets.append((x, y))
        template = objectives.SplitMlp(self.IN_DIM, self.CUT_WIDTH, self.OUT_DIM)
        self.objective = objectives.MlpObjective(template, datasets,
                                                 batch_size=self.BATCH)
        x0 = objectives.SplitMlp.random(self.IN_DIM, self.CUT_WIDTH,
                                        self.OUT_DIM, rng, scale=0.1).params
        run_seeds = [int(s) for s in rng.integers(0, 2**31, self.N_SEEDS)]
        self.configs = [engine.TrainConfig(
            algorithm=algo, n_clients=self.N_CLIENTS, rounds=self.ROUNDS,
            local_steps=self.LOCAL_STEPS, lr=self.LR, seed=s, x0=x0)
            for algo in self.ALGORITHMS for s in run_seeds]
        self.seed = seed

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for x, y in self.objective.datasets:
            h.update(x.tobytes() + y.tobytes())
        return h.hexdigest()

    def check(self, traces) -> list[str]:
        return checks.check_mlp_runs(
            self.objective, traces, np.random.default_rng((self.seed, 93)))


WORKLOADS = {w.name: w for w in (SweepQuadratic, NoniidLogistic, MlpRelay)}
