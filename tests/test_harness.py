import ast
import configparser
import contextlib
import csv
import importlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import splitsim as ss
from splitsim import harness
from splitsim.harness import (SCHEMA, ExperimentSpec, build_objective,
                              build_train_config, main)

BASE_INI = """
[objective]
family = quadratic
n_clients = 4
dim = 2
curvature = 2.0
heterogeneity = 1.0
sigma = 0.5
seed = 1

[train]
algorithm = sl
rounds = 15
local_steps = 2
lr = 0.01
seeds = 0,1,2
x0 = 1.0, -1.0
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI)
    return path


ROOT = Path(__file__).resolve().parents[1]


def read_names(out):
    return sorted(p.name for p in out.iterdir())


def demo_config() -> str:
    """The CONFIG string of demos/experiment_harness.py."""
    tree = ast.parse((ROOT / "demos" / "experiment_harness.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "CONFIG")


class TestAcceptedConfigs:
    """Configs other code writes keep running."""

    def test_demo_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(demo_config())
        for command in ("run", "bounds", "sweep", "compare"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 0

    def test_benchmark_sweep_configs(self, tmp_path, monkeypatch):
        # every key the benchmark's sweep workload writes, [train] lr and
        # seeds included
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workload = importlib.import_module("workloads").SweepQuadratic(0, tmp_path)
        for algo, path in workload.configs.items():
            assert main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / algo)]) == 0


class TestBenchmarkNames:
    def test_every_traced_name_exists(self, monkeypatch):
        # the benchmark's traced run wraps these names where its callers
        # look them up; a name that is gone drops its metrics from the result
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        layers = importlib.import_module("layers")
        with importlib.import_module("tracer").Tracer(layers.targets()) as tracer:
            assert tracer.missing == []


class TestSpec:
    def test_ini_and_json_equivalent(self, tmp_path, config):
        spec = ExperimentSpec.load(config)
        jpath = tmp_path / "exp.json"
        jpath.write_text(json.dumps(spec.to_dict()))
        assert ExperimentSpec.load(jpath).config_hash() == spec.config_hash()

    def test_roundtrip(self, config):
        spec = ExperimentSpec.load(config)
        assert ExperimentSpec(spec.to_dict()).to_dict() == spec.to_dict()

    def test_hash_sensitive_to_values(self, config):
        spec = ExperimentSpec.load(config)
        other = ExperimentSpec(spec.to_dict())
        other.sections["train"]["lr"] = "0.02"
        assert other.config_hash() != spec.config_hash()

    def test_missing_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[objective]\nfamily = quadratic\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "n_clients" in err

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["run"]) == 1

    @pytest.mark.parametrize("command,flag", [
        ("bounds", ["--seeds", "7"]), ("sweep", ["--format", "json"]),
        ("partition", ["--seeds", "1"])])
    def test_flag_the_command_ignores_is_exit_1(self, tmp_path, config,
                                                command, flag, capsys):
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]
                    + flag) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_json_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"objective": {"family": "quadratic",')
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "config parse error" in capsys.readouterr().err

    def test_bad_seeds_flag_is_exit_1(self, tmp_path, config, capsys):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--seeds", "a,b"]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_no_clients_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_INI.replace("n_clients = 4", "n_clients = 0"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: [objective]" in err and "client" in err

    def test_logistic_empty_batch_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[objective]\nfamily = logistic\nn_clients = 2\ndim = 2\n"
            "samples_per_client = 5\nbatch_size = 0\n\n"
            "[train]\nrounds = 3\nlr = 0.1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "[objective] batch_size" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("run_*"))


LOGISTIC_INI = """
[objective]
family = logistic
n_clients = 2
dim = 2
samples_per_client = 5

[train]
rounds = 3
lr = 0.1
"""

LABELS = "\n".join(str(i % 4) for i in range(40))

# (command, config text, the "[section] key" the error must name)
REJECTED = {
    "unknown key": ("run", BASE_INI + "bogus = 1\n", "[train] bogus"),
    "misspelt key": ("run", BASE_INI + "local_step = 5\n",
                     "[train] local_step"),
    "unknown section": ("run", BASE_INI + "[trian]\nrounds = 3\n", "[trian]"),
    "key the family does not take": (
        "run", BASE_INI.replace("seed = 1\n", "seed = 1\nbatch_size = 4\n", 1),
        "[objective] batch_size"),
    "heterogeneity grid on a logistic family": (
        "sweep", LOGISTIC_INI + "[sweep]\nheterogeneity_grid = 0 1\n",
        "[sweep] heterogeneity_grid"),
    "heterogeneity next to the sweep's grid": (
        "sweep", BASE_INI + "[sweep]\nheterogeneity_grid = 0\n",
        "[sweep] heterogeneity_grid"),
    "heterogeneity next to the compare grid": (
        "compare", BASE_INI + "[sweep]\nheterogeneity_grid = 0 1\n",
        "[sweep] heterogeneity_grid"),
    "no samples": ("run", LOGISTIC_INI.replace("= 5", "= 0"),
                   "[objective] samples_per_client"),
    "negative seed": ("run", BASE_INI.replace("seeds = 0,1,2", "seed = -1"),
                      "[train] seed"),
    "nan lr": ("run", BASE_INI.replace("lr = 0.01", "lr = nan"), "[train] lr"),
    "minibatch global lr": (
        "run", BASE_INI.replace("algorithm = sl", "algorithm = minibatch")
        + "global_lr = 7\n", "[train] global_lr"),
    "minibatch in a sweep with partial participation": (
        "sweep", BASE_INI + "clients_per_round = 2\n\n[sweep]\n"
        "algorithms = sl, minibatch\ngrid = 0.01\n",
        "[train] clients_per_round"),
    "empty seed list": ("run", BASE_INI.replace("seeds = 0,1,2", "seeds ="),
                        "[train] seeds"),
    "seed next to seeds": ("run", BASE_INI + "seed = 3\n", "[train] seed"),
    "fixed order with partial participation": (
        "run", BASE_INI + "clients_per_round = 2\norder_policy = fixed\n",
        "[train] order_policy"),
    "x0 of the wrong length": (
        "run", BASE_INI.replace("x0 = 1.0, -1.0", "x0 = 1.0"), "[train] x0"),
    "zero lr in bounds": ("bounds", BASE_INI.replace("lr = 0.01", "lr = 0"),
                          "[train] learning rates"),
    "zero dim": ("run", BASE_INI.replace("dim = 2", "dim = 0"),
                 "[objective] dim"),
    "negative heterogeneity": (
        "run", BASE_INI.replace("heterogeneity = 1.0", "heterogeneity = -1"),
        "[objective] heterogeneity"),
    "nan heterogeneity": (
        "run", BASE_INI.replace("heterogeneity = 1.0", "heterogeneity = nan"),
        "[objective] heterogeneity"),
    "inf heterogeneity": (
        "bounds", BASE_INI.replace("heterogeneity = 1.0", "heterogeneity = inf"),
        "[objective] heterogeneity"),
    "zero curvature with heterogeneity": (
        "run", BASE_INI.replace("curvature = 2.0", "curvature = 0"),
        "[objective] curvature"),
    "negative curvature": (
        "run", BASE_INI.replace("curvature = 2.0", "curvature = -1")
        .replace("heterogeneity = 1.0", "heterogeneity = 0"),
        "[objective] curvature"),
    "nan curvature": (
        "run", BASE_INI.replace("curvature = 2.0", "curvature = nan")
        .replace("heterogeneity = 1.0", "heterogeneity = 0"),
        "[objective] curvature"),
    "inf curvature": ("run", BASE_INI.replace("curvature = 2.0", "curvature = inf"),
                      "[objective] curvature"),
    "nan sigma": ("run", BASE_INI.replace("sigma = 0.5", "sigma = nan"),
                  "[objective] noise_sigma"),
    "inf sigma": ("run", BASE_INI.replace("sigma = 0.5", "sigma = inf"),
                  "[objective] noise_sigma"),
    "zero logistic dim": ("run", LOGISTIC_INI.replace("dim = 2", "dim = 0"),
                          "[objective] dim"),
    "nan regularization": (
        "run", LOGISTIC_INI.replace("= 5", "= 5\nregularization = nan"),
        "[objective] regularization"),
    "inf regularization": (
        "run", LOGISTIC_INI.replace("= 5", "= 5\nregularization = inf"),
        "[objective] regularization"),
    "nan label skew": (
        "run", LOGISTIC_INI.replace("= 5", "= 5\nlabel_skew = nan"),
        "[objective] label_skew"),
    "nan x0": ("run", BASE_INI.replace("x0 = 1.0, -1.0", "x0 = nan, 0"),
               "[train] x0"),
    "inf x0 in bounds": (
        "bounds", BASE_INI.replace("x0 = 1.0, -1.0", "x0 = 0, inf"), "[train] x0"),
    "lr whose bounds overflow": (
        "bounds", BASE_INI.replace("lr = 0.01", "lr = 1e308"), "[train] bounds"),
    "lr whose bounds are infinite": (
        "bounds", BASE_INI.replace("lr = 0.01", "lr = 1e154"), "[train] bounds"),
    "divergence factor below one": (
        "run", BASE_INI + "divergence_factor = 0.5\n",
        "[train] divergence_factor"),
    "zero alpha": ("partition", "[partition]\nlabels = {labels}\n"
                   "mechanism = dirichlet\nn_clients = 4\nalpha = 0\n",
                   "[partition] alpha"),
    "zero classes per client": (
        "partition", "[partition]\nlabels = {labels}\nmechanism = classes\n"
        "n_clients = 4\nclasses_per_client = 0\n",
        "[partition] classes_per_client"),
    "no partition clients": (
        "partition", "[partition]\nlabels = {labels}\nmechanism = dirichlet\n"
        "n_clients = 0\nalpha = 1\n", "[partition] n_clients"),
    "negative partition seed": (
        "partition", "[partition]\nlabels = {labels}\nmechanism = dirichlet\n"
        "n_clients = 4\nalpha = 1\nseed = -1\n", "[partition] seed"),
    "key the mechanism does not take": (
        "partition", "[partition]\nlabels = {labels}\nmechanism = dirichlet\n"
        "n_clients = 4\nalpha = 1\nclasses_per_client = 2\n",
        "[partition] classes_per_client"),
}


def run_quietly(command, text, workdir):
    """(exit code, stderr, whether the output directory was made) of one
    command on config ``text``."""
    (workdir / "labels.txt").write_text(LABELS)
    config = workdir / "exp.ini"
    config.write_text(text.format(labels=workdir / "labels.txt"))
    out = workdir / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config), "--out", str(out)])
    return code, err.getvalue(), out.exists()


class TestRejected:
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_exit_1_names_key_writes_nothing(self, case, tmp_path):
        command, text, key = REJECTED[case]
        code, err, made = run_quietly(command, text, tmp_path)
        assert code == 1 and f"config error: {key}" in err and not made

    @settings(max_examples=40, deadline=None)
    @given(section=st.sampled_from(sorted(SCHEMA) + [None]),
           name=st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True))
    def test_unknown_key_or_section(self, section, name):
        # a key added to a section (None: a new section named ``name``)
        cp = configparser.ConfigParser()
        cp.read_string(BASE_INI)
        sections = {s: dict(cp[s]) for s in cp.sections()}
        if section is None:
            assume(name not in SCHEMA)
            sections[name], named = {"x": "1"}, f"[{name}]"
        else:
            assume(name not in SCHEMA[section])
            sections.setdefault(section, {})[name] = "1"
            named = f"[{section}] {name}"
        text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                       for s, kv in sections.items())
        with tempfile.TemporaryDirectory() as tmp:
            code, err, made = run_quietly("run", text, Path(tmp))
        assert code == 1 and f"config error: {named}" in err and not made


class TestRun:
    def test_three_seeds_three_traces_one_manifest(self, tmp_path, config):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert read_names(out) == ["manifest.json", "run_seed0.csv",
                                   "run_seed1.csv", "run_seed2.csv"]

    def test_manifest_lists_every_file(self, tmp_path, config):
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == read_names(out)
        assert manifest["config_hash"] == ExperimentSpec.load(config).config_hash()

    def test_rerun_byte_identical(self, tmp_path, config):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config), "--out", str(a)])
        main(["run", "--config", str(config), "--out", str(b)])
        for name in ("run_seed0.csv", "run_seed1.csv", "run_seed2.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_keeps_earlier_files(self, tmp_path, config):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert main(["bounds", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == read_names(out)
        assert "run_seed0.csv" in manifest["files"]

    def test_csv_roundtrip(self, tmp_path, config):
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--seeds", "0"])
        lines = (out / "run_seed0.csv").read_text().splitlines()
        assert lines[1] == "round,loss,grad_norm_sq,drift,diverged"
        rows = list(csv.DictReader(lines[1:]))
        spec = ExperimentSpec.load(config)
        objective = build_objective(spec)
        trace = ss.run_training(objective,
                                build_train_config(spec, objective, seed=0))
        assert len(rows) == trace.rounds
        # 17 significant digits round-trip doubles exactly
        for r, row in enumerate(rows):
            assert float(row["loss"]) == trace.loss[r]
            assert float(row["grad_norm_sq"]) == trace.grad_norm_sq[r]
            assert float(row["drift"]) == trace.drift[r]

    def test_hash_embedded_in_csv(self, tmp_path, config):
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out)])
        h = ExperimentSpec.load(config).config_hash()
        first = (out / "run_seed0.csv").read_text().splitlines()[0]
        assert first == f"# config_hash={h}"

    def test_json_format(self, tmp_path, config):
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out),
              "--format", "json", "--seeds", "7"])
        data = json.loads((out / "run_seed7.json").read_text())
        assert data["seed"] == 7 and data["rounds"] == 15

    def test_seeds_flag_overrides(self, tmp_path, config):
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out),
              "--seeds", "5,6"])
        assert read_names(out) == ["manifest.json", "run_seed5.csv",
                                   "run_seed6.csv"]

    def test_env_var_default_out(self, tmp_path, config, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("SPLITSIM_OUT", str(out))
        assert main(["run", "--config", str(config)]) == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_interrupted_write_keeps_the_old_file(self, tmp_path, config,
                                                  monkeypatch, fmt):
        """A writer that raises mid-write leaves the earlier file whole and
        no temporary file, so the manifest still lists the directory."""
        out = tmp_path / "out"
        command = ["run", "--config", str(config), "--out", str(out),
                   "--format", fmt]
        assert main(command) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def rows_then_fail(trace):
            yield [0, "0.5", "0.5", "0", 0]
            raise OSError("interrupted")
        monkeypatch.setattr(harness, "_trace_rows", rows_then_fail)
        # json.dump has written the keys before "zz" when it meets the object
        monkeypatch.setattr(ss.RunTrace, "summary", lambda self: {"zz": object()})
        assert main(command) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == sorted(before)

    def test_unwritable_out_is_runtime_failure(self, tmp_path, config):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["run", "--config", str(config), "--out", str(blocker)]) == 2


class TestBounds:
    def worked_config(self, tmp_path):
        # two unit-curvature clients at +-1 (G=1), start at 2 so the
        # optimality gap is exactly 2
        path = tmp_path / "b.ini"
        path.write_text("""
[objective]
family = quadratic
n_clients = 2
dim = 1
curvature = 1.0
heterogeneity = 1.0
seed = 0

[train]
rounds = 100
local_steps = 1
lr = 0.001
x0 = 2.0
""")
        return path

    def test_worked_total(self, tmp_path):
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(self.worked_config(tmp_path)),
                     "--out", str(out)]) == 0
        data = json.loads((out / "bounds.json").read_text())
        assert data["init_gap"] == pytest.approx(2.0, rel=1e-12)
        assert data["sl"]["total"] == pytest.approx(40.000048, rel=1e-12)
        assert data["sl"]["lr_ok"]

    def test_lr_max_ratio_is_n(self, tmp_path):
        out = tmp_path / "out"
        main(["bounds", "--config", str(self.worked_config(tmp_path)),
              "--out", str(out)])
        data = json.loads((out / "bounds.json").read_text())
        assert data["lr_max_fl"] / data["lr_max_sl"] == pytest.approx(2.0,
                                                                      rel=1e-12)

    def test_too_large_lr_still_reports(self, tmp_path):
        path = self.worked_config(tmp_path)
        path.write_text(path.read_text().replace("lr = 0.001", "lr = 5.0"))
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
        data = json.loads((out / "bounds.json").read_text())
        assert not data["sl"]["lr_ok"]
        assert data["sl"]["total"] > 0

    def test_default_x0_at_optimum(self, tmp_path):
        # the recentred centres average to ~1e-17, not 0, so f(0) - f(x*)
        # rounds below zero; the gap is clamped, not rejected
        path = tmp_path / "b.ini"
        path.write_text("[objective]\nn_clients = 4\ndim = 2\n"
                        "heterogeneity = 1.0\n\n[train]\nrounds = 10\n"
                        "lr = 0.01\n")
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "bounds.json").read_text())["init_gap"] == 0.0

    def test_partial_participation_refused(self, tmp_path, capsys):
        path = self.worked_config(tmp_path)
        path.write_text(path.read_text() + "clients_per_round = 1\n")
        assert main(["bounds", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "full participation" in capsys.readouterr().err


class TestCompare:
    def test_equal_effective_lr_rule(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("""
[objective]
family = quadratic
n_clients = 10
dim = 1
heterogeneity = 1.0
seed = 0

[train]
rounds = 100
local_steps = 5
lr = 0.001
x0 = 1.0

[sweep]
grid = 0.001 0.01

[compare]
equal_effective_lr = true
""")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out),
                     "--seeds", "0"]) == 0
        rows = json.loads((out / "compare.json").read_text())["rows"]
        by_algo = {r["algorithm"]: r for r in rows}
        assert by_algo["fl"]["matched_lr"] == pytest.approx(1 / (5 * 10))
        assert by_algo["sl"]["matched_lr"] == pytest.approx(1 / (50 * 10))

    def test_table_shape(self, tmp_path, config):
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config), "--out", str(out),
                     "--seeds", "0,1"]) == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert lines[1] == "heterogeneity,algorithm,best_metric,best_lr,threshold_lr"
        assert len(lines) == 4  # hash comment + header + fl row + sl row


class TestPartition:
    def write_config(self, tmp_path, mechanism, extra, labels):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("\n".join(str(v) for v in labels))
        path = tmp_path / "p.ini"
        path.write_text(f"[partition]\nlabels = {lpath}\n"
                        f"mechanism = {mechanism}\nn_clients = 10\n"
                        f"seed = 3\n{extra}")
        return path

    def test_stats_rows_equal_n(self, tmp_path):
        labels = [i % 10 for i in range(1000)]
        path = self.write_config(tmp_path, "dirichlet", "alpha = 0.2\n", labels)
        out = tmp_path / "out"
        assert main(["partition", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "partition_stats.csv").read_text().strip().splitlines()
        assert len(lines) == 12  # hash + header + 10 clients

    def test_class_budget(self, tmp_path):
        labels = [i % 10 for i in range(1000)]
        path = self.write_config(tmp_path, "classes",
                                 "classes_per_client = 2\n", labels)
        out = tmp_path / "out"
        main(["partition", "--config", str(path), "--out", str(out)])
        for line in (out / "partition_stats.csv").read_text().strip().splitlines()[2:]:
            counts = line.rsplit(",", 1)[1]
            assert len(counts.split(";")) <= 3

    def test_same_seed_identical_json(self, tmp_path):
        labels = [i % 5 for i in range(200)]
        path = self.write_config(tmp_path, "dirichlet", "alpha = 0.5\n", labels)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["partition", "--config", str(path), "--out", str(a)])
        main(["partition", "--config", str(path), "--out", str(b)])
        assert (a / "partition.json").read_bytes() == (b / "partition.json").read_bytes()

    def test_non_integer_labels_is_exit_1(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "dirichlet", "alpha = 1.0\n",
                                 ["cat", "dog"])
        assert main(["partition", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "[partition] labels" in capsys.readouterr().err

    def test_infeasible_reported(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "dirichlet", "alpha = 1.0\n",
                                 [0, 1, 0])
        assert main(["partition", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2


class TestSweep:
    def test_file_count(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("""
[objective]
family = quadratic
n_clients = 3
dim = 1
seed = 0

[train]
rounds = 10
local_steps = 1
lr = 0.01
x0 = 1.0

[sweep]
algorithms = sl, fl
grid = 0.001 0.01 0.1
heterogeneity_grid = 0.0 1.0 2.0
""")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        names = read_names(out)
        assert len([n for n in names if n.endswith(".csv")]) == 6
        assert len([n for n in names if n.startswith("sweep") and
                    n.endswith(".json")]) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == names

    def test_csv_and_summary(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("""
[objective]
family = quadratic
n_clients = 2
dim = 1
heterogeneity = 1.0
seed = 0

[train]
algorithm = fl
rounds = 10
local_steps = 1
lr = 0.01
x0 = 1.0
""")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep_fl_G1.csv").read_text().strip().splitlines()
        assert lines[1] == "lr,metric,diverged"
        assert len(lines) == 2 + len(ss.DEFAULT_LR_GRID)
        data = json.loads((out / "sweep_fl_G1.json").read_text())
        assert {"best_lr", "best_metric", "threshold_lr",
                "all_diverged"} <= set(data)

    def test_lr_not_required(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text("""
[objective]
family = quadratic
n_clients = 2
dim = 1
seed = 0

[train]
rounds = 5
x0 = 1.0

[sweep]
grid = 0.01 0.1
""")
        for command in ("sweep", "compare"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 0
        for command in ("run", "bounds"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 1
            assert "[train] lr: required" in capsys.readouterr().err

    def test_unsorted_grid_is_exit_1(self, tmp_path, config, capsys):
        config.write_text(BASE_INI + "\n[sweep]\ngrid = 0.1 0.01\n")
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 1
        assert "[sweep] grid" in capsys.readouterr().err

    def test_all_diverged_exit_zero(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("""
[objective]
family = quadratic
n_clients = 2
dim = 1
curvature = 10.0
seed = 0

[train]
rounds = 30
local_steps = 5
lr = 0.3
x0 = 2.0

[sweep]
algorithms = sl
grid = 0.3 0.5
""")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        data = json.loads((out / "sweep_sl_G0.json").read_text())
        assert data["all_diverged"] is True

    def test_threshold_shrinks_with_heterogeneity(self, tmp_path):
        fam0 = ss.quadratic_family(10, dim=1, curvature=15.0, heterogeneity=0.0,
                                   sigma=3.0, seed=0)
        fam2 = ss.quadratic_family(10, dim=1, curvature=15.0, heterogeneity=2.0,
                                   sigma=3.0, seed=0)
        seeds = range(3)
        res = {}
        for name, fam in (("g0", fam0), ("g2", fam2)):
            cfg = ss.TrainConfig(algorithm="sl", n_clients=10, rounds=60,
                                 local_steps=5, lr=0.01, x0=fam.optimum())
            res[name] = ss.lr_sweep(fam, cfg, seeds=seeds)
        t0 = res["g0"].threshold_lr or float("inf")
        t2 = res["g2"].threshold_lr or float("inf")
        assert t2 <= t0
