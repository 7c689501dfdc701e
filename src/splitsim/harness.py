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
import contextlib
import csv
import hashlib
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import objectives as obj
from .engine import ALGORITHMS, RunTrace, TrainConfig, run_training
from .metrics import lr_sweep
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


def _words(raw: str) -> list[str]:
    words = raw.replace(",", " ").split()
    if not words:
        raise ValueError("empty list")
    return words


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in _words(raw)]


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in _words(raw)]


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _x0(raw: str):
    return raw if raw in ("zeros", "optimum") else _float_list(raw)


# Every config key, with the parser of its raw string, per section. A key
# left out is not passed on, so its default is the one of the code taking it.
SCHEMA = {
    "objective": dict(family=str, n_clients=int, dim=int, curvature=float,
                      heterogeneity=float, sigma=float, seed=int,
                      samples_per_client=int, batch_size=int,
                      regularization=float, label_skew=float),
    "train": dict(algorithm=str, rounds=int, local_steps=int, lr=float,
                  global_lr=float, clients_per_round=int, seed=int,
                  order_policy=str, divergence_factor=float, x0=_x0,
                  seeds=_int_list),
    "sweep": dict(grid=_float_list, heterogeneity_grid=_float_list,
                  algorithms=_words),
    "compare": dict(equal_effective_lr=_bool),
    "partition": dict(labels=str, mechanism=str, n_clients=int, seed=int,
                      alpha=float, classes_per_client=int),
    "output": dict(dir=str),
}
FAMILIES = {"quadratic": quadratic_family, "logistic": logistic_family}
PARTITIONS = {"dirichlet": partition_dirichlet, "classes": partition_classes}


class ExperimentSpec:
    """A config, parsed by SCHEMA once, on construction, into ``values``.

    ``sections`` keeps the raw strings the config hash covers. An unknown
    section or key, or a value its parser rejects, is a SpecError naming it.
    """

    def __init__(self, sections: dict):
        self.sections = {
            str(s): {str(k): str(v) for k, v in kv.items()}
            for s, kv in sections.items()
        }
        self.values = {s: {} for s in SCHEMA}
        for s, kv in self.sections.items():
            if s not in SCHEMA:
                raise SpecError(f"[{s}]: unknown section")
            for k, raw in kv.items():
                if k not in SCHEMA[s]:
                    raise SpecError(f"[{s}] {k}: unknown key")
                try:
                    self.values[s][k] = SCHEMA[s][k](raw)
                except (KeyError, ValueError) as e:
                    raise SpecError(f"[{s}] {k}: invalid value {raw!r}") from e

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

    def get(self, section: str, key: str, default=_REQUIRED):
        value = self.values[section].get(key, default)
        if value is _REQUIRED:
            raise SpecError(f"[{section}] {key}: required field missing")
        return value


def _call(section: str, fn, kwargs: dict, required=()):
    """``fn(**kwargs)``, the keys coming from ``[section]``.

    A key ``fn`` does not take, a required key left out (one ``fn`` gives no
    default, or one named in ``required``) and a ValueError from ``fn`` each
    become a SpecError naming the section.
    """
    params = inspect.signature(fn).parameters
    for key in kwargs:
        if key not in params:
            raise SpecError(f"[{section}] {key}: not taken by {fn.__name__}")
    no_default = [k for k, p in params.items() if p.default is p.empty]
    for key in no_default + list(required):
        if key not in kwargs:
            raise SpecError(f"[{section}] {key}: required field missing")
    try:
        return fn(**kwargs)
    except ValueError as e:
        raise SpecError(f"[{section}] {e}") from e


def _family(spec: ExperimentSpec):
    family = spec.get("objective", "family", "quadratic")
    if family not in FAMILIES:
        raise SpecError(f"[objective] family: unknown family {family!r}")
    return FAMILIES[family]


def build_objective(spec: ExperimentSpec, **overrides):
    kwargs = {**spec.values["objective"], **overrides}
    kwargs.pop("family", None)
    return _call("objective", _family(spec), kwargs)


def build_train_config(spec: ExperimentSpec, objective,
                       **overrides) -> TrainConfig:
    """The [train] config; an override (say the sweep's lr) replaces a key."""
    kwargs = {**spec.values["train"], "n_clients": objective.n_clients,
              **overrides}
    kwargs.pop("seeds", None)
    if kwargs.get("x0") == "zeros":
        del kwargs["x0"]
    elif kwargs.get("x0") == "optimum":
        if not hasattr(objective, "optimum"):
            raise SpecError("[train] x0: 'optimum' needs an objective with a "
                            "closed-form optimum")
        kwargs["x0"] = objective.optimum()
    elif "x0" in kwargs and len(kwargs["x0"]) != objective.dim:
        raise SpecError(f"[train] x0: {len(kwargs['x0'])} values, the objective "
                        f"has dim {objective.dim}")
    return _call("train", TrainConfig, kwargs, required=("rounds", "lr"))


def spec_seeds(spec: ExperimentSpec, cli_seeds) -> list[int]:
    if {"seed", "seeds"} <= spec.values["train"].keys():
        raise SpecError("[train] seed: has no effect next to [train] seeds")
    if cli_seeds is not None:
        return list(cli_seeds)
    return spec.get("train", "seeds",
                    [spec.get("train", "seed", TrainConfig.seed)])


# ---------------------------------------------------------------------------
# output plumbing


def _out_dir(spec: ExperimentSpec, cli_out) -> Path:
    """The output directory, created; called once the inputs are built, so
    a rejected config leaves no directory behind."""
    out = (cli_out or spec.get("output", "dir", None)
           or os.environ.get(OUT_ENV_VAR) or "out")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _replacing(path: Path, **kwargs):
    """A text file that replaces ``path`` only once it is written in full."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, config_hash: str, header: list[str], rows):
    with _replacing(path, newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, config_hash: str, payload: dict):
    with _replacing(path) as fh:
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
    objective = build_objective(spec)
    h = spec.config_hash()
    seeds = spec_seeds(spec, seeds)
    configs = [build_train_config(spec, objective, seed=s) for s in seeds]

    traces = [run_training(objective, c) for c in configs]
    out = _out_dir(spec, out_dir)
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
    objective = build_objective(spec)
    config = build_train_config(spec, objective)
    if config.participants != config.n_clients:
        raise SpecError("[train] clients_per_round: bounds assume full "
                        "participation (S = N)")
    constants = _call("objective", analytic_constants, {"objective": objective})

    x0 = np.zeros(objective.dim) if config.x0 is None else np.asarray(config.x0)
    # clamped: f(x*) can round above f(x0) when x0 is the optimum
    init_gap = max(0.0, float(obj.global_loss(objective, x0)
                              - objective.min_loss()))
    inputs = _call("train", BoundInputs, dict(
        constants=constants, n_clients=config.n_clients,
        local_steps=config.local_steps, rounds=config.rounds, eta=config.lr,
        eta_g=config.global_lr, init_gap=init_gap))
    try:
        payload = {
            "constants": {"L": constants.L, "sigma2": constants.sigma2,
                          "B": constants.B, "G": constants.G},
            "init_gap": init_gap,
            "lr": config.lr,
            "lr_max_sl": max_lr_sl(constants, config.n_clients, config.local_steps),
            "lr_max_fl": max_lr_fl(constants, config.local_steps, config.global_lr),
            "sl": sl_bound(inputs).to_dict(),
            "fl": fl_bound(inputs).to_dict(),
            "one_client": one_client_bound(inputs),
        }
        json.dumps(payload, allow_nan=False)  # raises on inf and nan
    except (OverflowError, ValueError) as e:
        raise SpecError(f"[train] bounds: not finite at this lr and x0 ({e})") from e
    out = _out_dir(spec, out_dir)
    path = out / "bounds.json"
    _write_json(path, spec.config_hash(), payload)
    write_manifest(out, spec, [path])
    return 0


def _levels(spec: ExperimentSpec) -> list[tuple]:
    """(G, objective) per heterogeneity level of a sweep; without a grid,
    the objective's own (G0 for a family that takes no heterogeneity)."""
    make = _family(spec)
    param = inspect.signature(make).parameters.get("heterogeneity")
    grid = spec.get("sweep", "heterogeneity_grid", None)
    if grid is not None and "heterogeneity" in spec.values["objective"]:
        raise SpecError("[sweep] heterogeneity_grid: replaces [objective] heterogeneity")
    if grid is None:
        g = spec.get("objective", "heterogeneity", getattr(param, "default", 0.0))
        return [(g, build_objective(spec))]
    if param is None:
        raise SpecError(f"[sweep] heterogeneity_grid: {make.__name__} takes "
                        "no heterogeneity")
    return [(g, build_objective(spec, heterogeneity=g)) for g in grid]


def _sweeps(spec: ExperimentSpec, algos, seeds) -> list[tuple]:
    """(g, algo, objective, base config, SweepResult) per level and algorithm.

    Each level's objective is built once and shared by its algorithms.
    The lr grid replaces [train] lr, so the base config's lr is a stand-in.
    """
    grid = spec.get("sweep", "grid", None)
    if grid is not None and grid != sorted(grid):
        raise SpecError("[sweep] grid: must be sorted ascending")
    grid = {} if grid is None else {"grid": grid}
    # every config is built, and so checked, before the first run
    bases = [(g, algo, objective,
              build_train_config(spec, objective, algorithm=algo, lr=0.0))
             for g, objective in _levels(spec) for algo in algos]
    return [(g, algo, objective, base,
             lr_sweep(objective, base, seeds=seeds, **grid))
            for g, algo, objective, base in bases]


def cmd_compare(spec: ExperimentSpec, out_dir=None, seeds=None) -> int:
    """Paired FL/SL sweeps per heterogeneity level, Best metric / Threshold lr.

    The best-metric and threshold columns mirror the usual accuracy-table
    shape, except the metric is the last-10%-rounds mean loss (synthetic
    objectives have no held-out accuracy). With equal_effective_lr on, both
    algorithms are also run once at the step size that equates their
    per-round effective rates to 1/sqrt(R): lr = 1/(K sqrt(R)) for FL and
    1/(NK sqrt(R)) for SL.
    """
    h = spec.config_hash()
    seeds = spec_seeds(spec, seeds)
    matched = spec.get("compare", "equal_effective_lr", False)

    rows = []
    for g, algo, objective, base, res in _sweeps(spec, ("fl", "sl"), seeds):
        row = {"heterogeneity": g, "algorithm": algo,
               "best_metric": res.summary()["best_metric"],
               "best_lr": res.best_lr,
               "threshold_lr": res.threshold_label()}
        if matched:
            lr = 1.0 / (base.local_steps * np.sqrt(base.rounds))
            if algo == "sl":
                lr /= base.n_clients
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
    out = _out_dir(spec, out_dir)
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
    h = spec.config_hash()
    labels_path = spec.get("partition", "labels")
    try:
        labels = np.loadtxt(labels_path, dtype=int, ndmin=1)
    except (OSError, ValueError) as e:
        raise SpecError(f"[partition] labels: cannot read {labels_path}: "
                        f"{e}") from e
    mechanism = spec.get("partition", "mechanism")
    if mechanism not in PARTITIONS:
        raise SpecError(f"[partition] mechanism: unknown mechanism {mechanism!r}")
    kwargs = {**spec.values["partition"], "labels": labels}
    del kwargs["mechanism"]
    p = _call("partition", PARTITIONS[mechanism], kwargs)

    out = _out_dir(spec, out_dir)
    jpath = out / "partition.json"
    _write_json(jpath, h, {"partition": json.loads(p.to_json())})
    stats = partition_stats(p)
    rows = []
    for i in range(p.n_clients):
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
    h = spec.config_hash()
    seeds = spec_seeds(spec, seeds)
    algos = spec.get("sweep", "algorithms",
                     [spec.get("train", "algorithm", TrainConfig.algorithm)])
    for a in algos:
        if a not in ALGORITHMS:
            raise SpecError(f"[sweep] algorithms: unknown algorithm {a!r}")

    sweeps = _sweeps(spec, algos, seeds)
    out = _out_dir(spec, out_dir)
    files = []
    for g, algo, _, _, res in sweeps:
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
    # each command declares only the flags it reads
    for name, help_ in (("run", "execute training runs"),
                        ("bounds", "evaluate convergence bounds"),
                        ("compare", "paired FL/SL comparison table"),
                        ("partition", "partition a labels file"),
                        ("sweep", "learning-rate sweep")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, metavar="PATH")
        p.add_argument("--out", metavar="DIR",
                       help=f"output directory (default ${OUT_ENV_VAR} or ./out)")
        if name in ("run", "compare", "sweep"):
            p.add_argument("--seeds", metavar="LIST",
                           help="comma-separated seed list overriding the config")
        if name == "run":
            p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        spec = ExperimentSpec.load(args.config)
        seeds = None
        if getattr(args, "seeds", None):
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
