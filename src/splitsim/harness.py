"""Experiment orchestration: config files, CLI subcommands, reproducible outputs.

A config file (INI-style sections or a JSON object of sections) fully
determines every run. Each output file embeds a hash of the parsed config,
and a manifest written last lists every file produced, so re-running a
command with an unchanged config never changes hashed content.

Exit codes: 0 success (including all-diverged sweeps), 1 usage or input
error (flags, config, labels file), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import objectives as obj
from .engine import ALGORITHMS, RunTrace, TrainConfig, run_training
from .metrics import DEFAULT_LR_GRID, lr_sweep
from .objectives import (analytic_constants, logistic_family, quadratic_family)
from .partition import partition_classes, partition_dirichlet, partition_stats
from .theory import (BoundInputs, fl_bound, max_lr_fl, max_lr_sl,
                     one_client_bound, sl_bound)

OUT_ENV_VAR = "SPLITSIM_OUT"
_REQUIRED = object()


class SpecError(ValueError):
    """Invalid or incomplete experiment configuration."""


# ---------------------------------------------------------------------------
# experiment specification


class ExperimentSpec:
    """Parsed config: a mapping of sections to string key/value pairs.

    Typed access goes through get(); every error message names the section
    and key so a bad config is diagnosable from the message alone.
    """

    def __init__(self, sections: dict):
        self.sections = {
            str(s): {str(k): str(v) for k, v in kv.items()}
            for s, kv in sections.items()
        }

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as e:
            raise SpecError(f"cannot read config {path}: {e}") from e
        if path.suffix == ".json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as e:
                raise SpecError(f"config parse error: {e}") from e
            if not isinstance(data, dict) or not all(
                    isinstance(v, dict) for v in data.values()):
                raise SpecError("JSON config must be an object of sections")
            return cls(data)
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text, source=str(path))
        except configparser.Error as e:
            raise SpecError(f"config parse error: {e}") from e
        return cls({s: dict(cp[s]) for s in cp.sections()})

    def to_dict(self) -> dict:
        return {s: dict(kv) for s, kv in sorted(self.sections.items())}

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def get(self, section: str, key: str, cast=str, default=_REQUIRED):
        raw = self.sections.get(section, {}).get(key)
        if raw is None:
            if default is _REQUIRED:
                raise SpecError(f"[{section}] {key}: required field missing")
            return default
        try:
            if cast is bool:
                if raw.lower() in ("1", "true", "yes", "on"):
                    return True
                if raw.lower() in ("0", "false", "no", "off"):
                    return False
                raise ValueError(raw)
            return cast(raw)
        except (TypeError, ValueError) as e:
            raise SpecError(f"[{section}] {key}: invalid value {raw!r}") from e


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.replace(",", " ").split()]


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.replace(",", " ").split()]


def build_objective(spec: ExperimentSpec):
    family = spec.get("objective", "family", default="quadratic")
    if family == "quadratic":
        make, kwargs = quadratic_family, dict(
            n_clients=spec.get("objective", "n_clients", int),
            dim=spec.get("objective", "dim", int, 1),
            curvature=spec.get("objective", "curvature", float, 1.0),
            heterogeneity=spec.get("objective", "heterogeneity", float, 0.0),
            sigma=spec.get("objective", "sigma", float, 0.0),
            seed=spec.get("objective", "seed", int, 0))
    elif family == "logistic":
        make, kwargs = logistic_family, dict(
            n_clients=spec.get("objective", "n_clients", int),
            dim=spec.get("objective", "dim", int),
            samples_per_client=spec.get("objective", "samples_per_client", int),
            batch_size=spec.get("objective", "batch_size", int, 4),
            regularization=spec.get("objective", "regularization", float, 1e-3),
            seed=spec.get("objective", "seed", int, 0),
            label_skew=spec.get("objective", "label_skew", float, 0.0))
    else:
        raise SpecError(f"[objective] family: unknown family {family!r}")
    try:
        return make(**kwargs)
    except ValueError as e:
        raise SpecError(f"[objective] {e}") from e


def build_train_config(spec: ExperimentSpec, objective, *, seed=None,
                       **overrides) -> TrainConfig:
    x0_raw = spec.get("train", "x0", default=None)
    if x0_raw is None or x0_raw == "zeros":
        x0 = None
    elif x0_raw == "optimum":
        if not hasattr(objective, "optimum"):
            raise SpecError("[train] x0: 'optimum' needs an objective with a "
                            "closed-form optimum")
        x0 = objective.optimum()
    else:
        x0 = spec.get("train", "x0", _float_list)
    kwargs = dict(
        algorithm=spec.get("train", "algorithm", default="sl"),
        n_clients=spec.get("objective", "n_clients", int),
        rounds=spec.get("train", "rounds", int),
        local_steps=spec.get("train", "local_steps", int, 1),
        # an lr override (the sweep grid) makes [train] lr optional
        lr=None if "lr" in overrides else spec.get("train", "lr", float),
        global_lr=spec.get("train", "global_lr", float, 1.0),
        clients_per_round=spec.get("train", "clients_per_round", int, None),
        seed=spec.get("train", "seed", int, 0) if seed is None else seed,
        order_policy=spec.get("train", "order_policy", default="random"),
        divergence_factor=spec.get("train", "divergence_factor", float, 10.0),
        x0=x0)
    kwargs.update(overrides)
    try:
        return TrainConfig(**kwargs)
    except ValueError as e:
        raise SpecError(f"[train] {e}") from e


def spec_seeds(spec: ExperimentSpec, cli_seeds) -> list[int]:
    if cli_seeds is not None:
        return list(cli_seeds)
    seeds = spec.get("train", "seeds", _int_list, None)
    return [spec.get("train", "seed", int, 0)] if seeds is None else seeds


# ---------------------------------------------------------------------------
# output plumbing


def _out_dir(spec: ExperimentSpec, cli_out) -> Path:
    out = (cli_out or spec.get("output", "dir", default=None)
           or os.environ.get(OUT_ENV_VAR) or "out")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, config_hash: str, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, config_hash: str, payload: dict):
    with open(path, "w") as fh:
        json.dump({"config_hash": config_hash, **payload}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def _versions() -> dict:
    try:
        from importlib.metadata import version
        pkg = version("splitsim")
    except Exception:
        pkg = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "splitsim": pkg}


def _listed(manifest: Path) -> list:
    """File names an existing manifest lists; [] if there is none."""
    try:
        return json.loads(manifest.read_text())["files"]
    except (OSError, ValueError, KeyError, TypeError):
        return []


def write_manifest(out: Path, spec: ExperimentSpec, files: list[Path]):
    """List ``files``, plus the files of an earlier manifest still in ``out``."""
    path = out / "manifest.json"
    names = [f.name for f in files] + [path.name]
    names += [n for n in _listed(path)
              if isinstance(n, str) and n not in names and (out / n).is_file()]
    _write_json(path, spec.config_hash(), {
        "versions": _versions(),
        "spec": spec.to_dict(),
        "files": sorted(names),
    })


def _fmt17(v) -> str:
    return format(float(v), ".17g")


def _trace_rows(trace: RunTrace):
    for r in range(trace.rounds):
        yield [r, _fmt17(trace.loss[r]), _fmt17(trace.grad_norm_sq[r]),
               _fmt17(trace.drift[r]), int(trace.diverged[r])]


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(spec: ExperimentSpec, out_dir=None, seeds=None, fmt="csv") -> int:
    """Execute one run per seed; one trace file each plus a manifest."""
    out = _out_dir(spec, out_dir)
    objective = build_objective(spec)
    h = spec.config_hash()
    seeds = spec_seeds(spec, seeds)
    configs = [build_train_config(spec, objective, seed=s) for s in seeds]

    traces = [run_training(objective, c) for c in configs]
    files = []
    for s, trace in zip(seeds, traces):
        if fmt == "json":
            path = out / f"run_seed{s}.json"
            _write_json(path, h, {"seed": s, **trace.summary()})
        else:
            path = out / f"run_seed{s}.csv"
            _write_csv(path, h,
                       ["round", "loss", "grad_norm_sq", "drift", "diverged"],
                       _trace_rows(trace))
        files.append(path)
    write_manifest(out, spec, files)
    return 0


def cmd_bounds(spec: ExperimentSpec, out_dir=None) -> int:
    """Evaluate the convergence bounds and step-size caps for the config."""
    out = _out_dir(spec, out_dir)
    objective = build_objective(spec)
    config = build_train_config(spec, objective)
    if config.participants != config.n_clients:
        raise SpecError("[train] clients_per_round: bounds assume full "
                        "participation (S = N)")
    try:
        constants = analytic_constants(objective)
    except ValueError as e:
        raise SpecError(f"[objective] {e}") from e

    x0 = np.zeros(objective.dim) if config.x0 is None else np.asarray(config.x0)
    init_gap = float(obj.global_loss(objective, x0) - objective.min_loss())
    inputs = BoundInputs(constants, config.n_clients, config.local_steps,
                         config.rounds, config.lr, eta_g=config.global_lr,
                         init_gap=init_gap)
    sl = sl_bound(inputs)
    fl = fl_bound(inputs)
    path = out / "bounds.json"
    _write_json(path, spec.config_hash(), {
        "constants": {"L": constants.L, "sigma2": constants.sigma2,
                      "B": constants.B, "G": constants.G},
        "init_gap": init_gap,
        "lr": config.lr,
        "lr_max_sl": max_lr_sl(constants, config.n_clients, config.local_steps),
        "lr_max_fl": max_lr_fl(constants, config.local_steps, config.global_lr),
        "sl": json.loads(sl.to_json()),
        "fl": json.loads(fl.to_json()),
        "one_client": one_client_bound(inputs),
    })
    write_manifest(out, spec, [path])
    return 0


def _sweep_grid(spec: ExperimentSpec):
    grid = tuple(spec.get("sweep", "grid", _float_list, DEFAULT_LR_GRID))
    if list(grid) != sorted(grid):
        raise SpecError("[sweep] grid: must be sorted ascending")
    return grid


def _heterogeneity_grid(spec: ExperimentSpec) -> list[float]:
    grid = spec.get("sweep", "heterogeneity_grid", _float_list, None)
    if grid is not None:
        return grid
    return [spec.get("objective", "heterogeneity", float, 0.0)]


def _objective_at(spec: ExperimentSpec, g: float):
    patched = ExperimentSpec(spec.to_dict())
    patched.sections.setdefault("objective", {})["heterogeneity"] = repr(g)
    return build_objective(patched)


def _sweeps(spec: ExperimentSpec, algos, seeds) -> list[tuple]:
    """(g, algo, objective, SweepResult) per heterogeneity level and algorithm.

    Each level's objective is built once and shared by its algorithms.
    The lr grid replaces [train] lr, so the base config's lr is a stand-in.
    """
    grid = _sweep_grid(spec)
    results = []
    for g in _heterogeneity_grid(spec):
        objective = _objective_at(spec, g)
        for algo in algos:
            base = build_train_config(spec, objective, algorithm=algo, lr=0.0)
            results.append((g, algo, objective,
                            lr_sweep(objective, base, grid=grid, seeds=seeds)))
    return results


def cmd_compare(spec: ExperimentSpec, out_dir=None, seeds=None) -> int:
    """Paired FL/SL sweeps per heterogeneity level, Best metric / Threshold lr.

    The best-metric and threshold columns mirror the usual accuracy-table
    shape, except the metric is the last-10%-rounds mean loss (synthetic
    objectives have no held-out accuracy). With equal_effective_lr on, both
    algorithms are also run once at the step size that equates their
    per-round effective rates to 1/sqrt(R): lr = 1/(K sqrt(R)) for FL and
    1/(NK sqrt(R)) for SL.
    """
    out = _out_dir(spec, out_dir)
    h = spec.config_hash()
    seeds = spec_seeds(spec, seeds)
    matched = spec.get("compare", "equal_effective_lr", bool, False)
    n = spec.get("objective", "n_clients", int)
    k = spec.get("train", "local_steps", int, 1)
    rounds = spec.get("train", "rounds", int)

    rows = []
    for g, algo, objective, res in _sweeps(spec, ("fl", "sl"), seeds):
        row = {"heterogeneity": g, "algorithm": algo,
               "best_metric": res.summary()["best_metric"],
               "best_lr": res.best_lr,
               "threshold_lr": res.threshold_label()}
        if matched:
            lr = 1.0 / (k * np.sqrt(rounds))
            if algo == "sl":
                lr /= n
            losses = [run_training(objective,
                                   build_train_config(spec, objective,
                                                      algorithm=algo, lr=lr,
                                                      seed=s)).loss[-1]
                      for s in seeds]
            row["matched_lr"] = lr
            row["matched_final_loss"] = float(np.mean(losses))
        rows.append(row)
    header = ["heterogeneity", "algorithm", "best_metric", "best_lr",
              "threshold_lr"] + (["matched_lr", "matched_final_loss"]
                                 if matched else [])
    path = out / "compare.csv"
    _write_csv(path, h, header,
               ([("" if r[c] is None else
                  (_fmt17(r[c]) if isinstance(r[c], float) else r[c]))
                 for c in header] for r in rows))
    jpath = out / "compare.json"
    _write_json(jpath, h, {"rows": rows, "seeds": list(seeds)})
    write_manifest(out, spec, [path, jpath])
    return 0


def cmd_partition(spec: ExperimentSpec, out_dir=None) -> int:
    """Partition a labels file and write the assignment plus per-client stats."""
    out = _out_dir(spec, out_dir)
    h = spec.config_hash()
    labels_path = spec.get("partition", "labels")
    try:
        labels = np.loadtxt(labels_path, dtype=int, ndmin=1)
    except (OSError, ValueError) as e:
        raise SpecError(f"[partition] labels: cannot read {labels_path}: "
                        f"{e}") from e
    mechanism = spec.get("partition", "mechanism")
    seed = spec.get("partition", "seed", int, 0)
    n = spec.get("partition", "n_clients", int)
    if mechanism == "dirichlet":
        p = partition_dirichlet(labels, n, spec.get("partition", "alpha", float),
                                seed)
    elif mechanism == "classes":
        p = partition_classes(labels, n,
                              spec.get("partition", "classes_per_client", int),
                              seed)
    else:
        raise SpecError(f"[partition] mechanism: unknown mechanism {mechanism!r}")

    jpath = out / "partition.json"
    _write_json(jpath, h, {"partition": json.loads(p.to_json())})
    stats = partition_stats(p)
    rows = []
    for i in range(n):
        counts = ";".join(f"{c}:{v}" for c, v in sorted(p.class_counts[i].items()))
        rows.append([i, stats["sizes"][i], _fmt17(stats["ratios"][i]),
                     _fmt17(stats["entropy"][i]), counts])
    cpath = out / "partition_stats.csv"
    _write_csv(cpath, h, ["client", "n_i", "p_i", "entropy", "class_counts"],
               rows)
    write_manifest(out, spec, [jpath, cpath])
    return 0


def cmd_sweep(spec: ExperimentSpec, out_dir=None, seeds=None) -> int:
    """Learning-rate sweep per (algorithm, heterogeneity level).

    An all-diverged grid is a valid scientific result: the summary carries
    all_diverged=true and the exit code stays 0.
    """
    out = _out_dir(spec, out_dir)
    h = spec.config_hash()
    seeds = spec_seeds(spec, seeds)
    algos_raw = spec.get("sweep", "algorithms",
                         default=spec.get("train", "algorithm", default="sl"))
    algos = algos_raw.replace(",", " ").split()
    for a in algos:
        if a not in ALGORITHMS:
            raise SpecError(f"[sweep] algorithms: unknown algorithm {a!r}")

    files = []
    for g, algo, _, res in _sweeps(spec, algos, seeds):
        stem = f"sweep_{algo}_G{g:g}"
        cpath = out / f"{stem}.csv"
        _write_csv(cpath, h, ["lr", "metric", "diverged"],
                   ([_fmt17(lr), _fmt17(m), int(d)]
                    for lr, m, d in zip(res.grid, res.metric, res.diverged)))
        jpath = out / f"{stem}.json"
        _write_json(jpath, h, {"heterogeneity": g, "algorithm": algo,
                               **res.summary()})
        files += [cpath, jpath]
    write_manifest(out, spec, files)
    return 0


# ---------------------------------------------------------------------------
# CLI


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splitsim",
                     description="Deterministic split-learning / FedAvg "
                                 "experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "execute training runs"),
                        ("bounds", "evaluate convergence bounds"),
                        ("compare", "paired FL/SL comparison table"),
                        ("partition", "partition a labels file"),
                        ("sweep", "learning-rate sweep")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, metavar="PATH")
        p.add_argument("--out", metavar="DIR",
                       help=f"output directory (default ${OUT_ENV_VAR} or ./out)")
        p.add_argument("--seeds", metavar="LIST",
                       help="comma-separated seed list overriding the config")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        spec = ExperimentSpec.load(args.config)
        seeds = None
        if args.seeds:
            try:
                seeds = _int_list(args.seeds)
            except ValueError as e:
                raise SpecError(f"--seeds: invalid list {args.seeds!r}") from e
        if args.command == "run":
            return cmd_run(spec, args.out, seeds, args.format)
        if args.command == "bounds":
            return cmd_bounds(spec, args.out)
        if args.command == "compare":
            return cmd_compare(spec, args.out, seeds)
        if args.command == "partition":
            return cmd_partition(spec, args.out)
        return cmd_sweep(spec, args.out, seeds)
    except SpecError as e:
        print(f"splitsim: config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"splitsim: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
