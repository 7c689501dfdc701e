"""Golden outputs: SHA-256 of the CLI files a fixed small config produces,
and of the ``RunTrace`` arrays of in-process runs the CLI cannot reach.

Any change to a run's numbers or to the writers' formatting changes these
digests. A change that alters outputs on purpose (say, a new RNG scheme)
recomputes them with ``PYTHONPATH=src python tests/test_golden.py`` and
says so. ``manifest.json`` is left out because it records the Python and
numpy versions.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from splitsim import engine, objectives
from splitsim.harness import main
from splitsim.rng import stream

QUADRATIC = """
[objective]
family = quadratic
n_clients = 4
dim = 2
curvature = 2.0
heterogeneity = 1.0
sigma = 0.5
seed = 3

[train]
algorithm = {algo}
rounds = 12
local_steps = 3
lr = 0.05
seeds = 0, 1
x0 = 1.0, -1.0
"""

LOGISTIC = """
[objective]
family = logistic
n_clients = 3
dim = 3
samples_per_client = 12
batch_size = 4
label_skew = 0.5
seed = 5

[train]
algorithm = {algo}
rounds = 10
local_steps = 2
lr = 0.2
seeds = 0, 1
"""

# the heterogeneity grid replaces [objective] heterogeneity, so a sweep
# config leaves that key out
SWEEP = QUADRATIC.format(algo="sl").replace("heterogeneity = 1.0\n", "") + """
[sweep]
algorithms = sl, fl, minibatch
grid = 0.01 0.1 0.5 1.2
heterogeneity_grid = 0.0 1.5
"""

# (command, config text, extra CLI arguments) per case
CASES = {f"run-{family}-{algo}": ("run", text.format(algo=algo), [])
         for family, text in (("quadratic", QUADRATIC), ("logistic", LOGISTIC))
         for algo in ("sl", "fl", "minibatch")}
CASES["run-quadratic-sl-json"] = ("run", QUADRATIC.format(algo="sl"),
                                  ["--format", "json"])
CASES["sweep-quadratic"] = ("sweep", SWEEP, [])
# a family without a heterogeneity knob: one level, labelled G0
LOGISTIC_SWEEP = LOGISTIC.format(algo="sl") + """
[sweep]
algorithms = sl, fl, minibatch
grid = 0.05 0.2 0.8

[compare]
equal_effective_lr = true
"""
CASES["sweep-logistic"] = ("sweep", LOGISTIC_SWEEP, [])
CASES["compare-logistic"] = ("compare", LOGISTIC_SWEEP, [])

GOLDEN = {
    'compare-logistic': {
        'compare.csv':
            'e10b04b6b28e1efb9f13de94e9c847cf302fcac81e0d15f8cc9cbbd102ca2773',
        'compare.json':
            '851b1728ac70e060d612a73a98712d461117f1af4885972ba90d0b3d976ca14f',
    },
    'run-logistic-fl': {
        'run_seed0.csv':
            'a9960b1cc85c43c4a011e0bdf660c6b8feebba7e5b375861afc81a1574322ba2',
        'run_seed1.csv':
            '534a11e6dfaf54829fed5f22634c12b1c259604b36240fba6e033761190c1cb9',
    },
    'run-logistic-minibatch': {
        'run_seed0.csv':
            '539125166b579402d8c688f8b1fc68dc88ad630758bacf012db20cd2aa9af990',
        'run_seed1.csv':
            'f01cf8ccca96125d586ec46439c863112fe685fa589f4a2b11a55af843c02a9b',
    },
    'run-logistic-sl': {
        'run_seed0.csv':
            '415687c11597a4f201a7f8aa68d5588589864ae13ec3cd565941b00dc8369fd1',
        'run_seed1.csv':
            'beaa2f31757592ef9e5719ed58f37d677d955f814d33577b5347519a1de2e904',
    },
    'run-quadratic-fl': {
        'run_seed0.csv':
            '04589da554f809019a61649f1399982030f7f804978765dfc04585d11dd21987',
        'run_seed1.csv':
            '319cc265f5d79280405b04552446ff77fea5adc59b1d3ee15c85a5cf8e40f93a',
    },
    'run-quadratic-minibatch': {
        'run_seed0.csv':
            'f7e1562ff259d2051ace2cd0f0fef651625e46468fb3a556b1c21698d862fa1f',
        'run_seed1.csv':
            '5e62dedb1a63d3018a52f9be1dd8aab99c42f8719b40fac22d6485a884aafb0f',
    },
    'run-quadratic-sl': {
        'run_seed0.csv':
            'ecb7fd9e1f7da3970aafd6931d2a5dbc58333776a3270524e46d592da06b8c85',
        'run_seed1.csv':
            '5872d2f40dda432da44cf6af490ff869edf56232c7341be87182344bef100026',
    },
    'run-quadratic-sl-json': {
        'run_seed0.json':
            'c6741c635c06f871d6302113607a0729d0bac09602d04fca917629cb69b12f9c',
        'run_seed1.json':
            '2820938957aa1f3619418ccb59e7412fee83f82eb82bc97a99c3487eebce838a',
    },
    'sweep-logistic': {
        'sweep_fl_G0.csv':
            'a060f0619716c9caee4ae40394c06226d57a52e46766216d80d8ec91bd0bea61',
        'sweep_fl_G0.json':
            '5d9464a269c6c5ee7610a5dedb5e2703ac82157fb8ecaeb82a52a46618d929c7',
        'sweep_minibatch_G0.csv':
            '3ec60c13167d2e9622dbcf0b624e654f99edc044d5efcde65f8b2db0879ce80f',
        'sweep_minibatch_G0.json':
            'f0420e2f952c6a2693b8f155f01ca2afc73ff767e73d6e82a0ab0104c782ff4c',
        'sweep_sl_G0.csv':
            '1e0056aa80a6a60ade4ec25547aa1d6ef67706689411b4b8189d9cd0665d0f39',
        'sweep_sl_G0.json':
            '25b103059ff2951c14a21a6e1c0eb5ff2a7268dbd0d94661babf64023f473a99',
    },
    'sweep-quadratic': {
        'sweep_fl_G0.csv':
            'fcf20d4974f7e5db7f32f627b32cf74a682fb596fa786b59fa468c1f2648f2cf',
        'sweep_fl_G0.json':
            'a08c470766b977c1ccc15721bb534eaf1a4f9b973e536581cfd0deabaa3df321',
        'sweep_fl_G1.5.csv':
            '576566519cd848bf8f0914a1a00b2606d7907eb199ddb94b51c818148c8e8ede',
        'sweep_fl_G1.5.json':
            '9b7fec268842023c5d81a31f0b481325871f0adfd931ada73b319b941a1ebb26',
        'sweep_minibatch_G0.csv':
            'ebcbd14e7486c2ef96c40fcc2dab35bf771c30d1a76ceab59fed705711fd89db',
        'sweep_minibatch_G0.json':
            '27456f2db5614285b1687259c254ba4742e27a450ad2f6e7ee6ff63748916b2b',
        'sweep_minibatch_G1.5.csv':
            '0b83dbd0abbb3323b56587fde6c293b296642c33e04b88ba3634173e4c4d20a3',
        'sweep_minibatch_G1.5.json':
            '4dce82b73b58d06afa1e54e03c3160500ee64c2c2a4436b37c3d1157b8d7234f',
        'sweep_sl_G0.csv':
            '135ed988e9dfbb73723574fbd54914de41f47ba7dbf0a88d5cfbc9ae381f5b60',
        'sweep_sl_G0.json':
            '9260373dd74e6bdc125386c8707b2298286d4f15357cbf5214e854edf1dbddc6',
        'sweep_sl_G1.5.csv':
            'bfc2a3997c13bc828c89e8588f0714e600e313ec890753f931fc49daea731f7c',
        'sweep_sl_G1.5.json':
            '2f91aceb3212725d217654c021a5de3775b653ec536f18a9c5fe90c8b5ed27d4',
    },
}



# ---------------------------------------------------------------------------
# in-process runs: a split MLP with a minibatch and with the full batch,
# logistic clients of unequal size (which FedAvg weights by sample count),
# and noisy runs at seeds the CLI configs do not reach


def mlp_objective(batch_size=4):
    g = stream(11, 0)
    template = objectives.SplitMlp(3, 4, 2)
    datasets = [(g.normal(size=(10, 3)), g.normal(size=(10, 2)))
                for _ in range(3)]
    x0 = objectives.SplitMlp.random(3, 4, 2, g, scale=0.5).params
    return objectives.MlpObjective(template, datasets, batch_size=batch_size), x0


def unequal_logistic(batch_size):
    g = stream(12, 0)
    clients = []
    for n in (5, 12, 30):
        feats = g.normal(size=(n, 4))
        clients.append(objectives.LogisticClient(
            feats, (feats @ np.ones(4) + g.normal(size=n) > 0).astype(float)))
    return objectives.LogisticFamily(clients, regularization=1e-2,
                                     batch_size=batch_size), None


def noisy_quadratic():
    return objectives.quadratic_family(4, dim=2, curvature=2.0, heterogeneity=1.0,
                                       sigma=0.5, seed=3), [1.0, -1.0]


# seeds of 2**32 and above take SeedSequence more than one 32-bit word
LARGE_SEEDS = (2**32 + 5, 2**64 + 3)
ALL = ("sl", "fl", "minibatch")

# name: (makes the objective and x0, algorithms, rounds, local steps, lr, seeds)
TRAIN_CASES = {
    "train-mlp": (mlp_objective, ("sl", "fl"), 6, 3, 0.1, (0, 1)),
    "train-mlp-fullbatch": (lambda: mlp_objective(0), ALL, 6, 3, 0.1, (0, 1)),
    "train-mlp-minibatch": (mlp_objective, ("minibatch",), 6, 3, 0.1, (0, 1)),
    "train-logistic-unequal-minibatch": (lambda: unequal_logistic(4),
                                         ALL, 8, 3, 0.3, (0, 1)),
    "train-logistic-unequal-fullbatch": (lambda: unequal_logistic(64),
                                         ALL, 8, 3, 0.3, (0, 1)),
    "train-quadratic-noisy-large-seed": (noisy_quadratic, ALL, 8, 3, 0.05,
                                         LARGE_SEEDS),
    "train-logistic-unequal-minibatch-large-seed": (
        lambda: unequal_logistic(4), ALL, 8, 3, 0.3, LARGE_SEEDS),
}

TRAIN_GOLDEN = {
    'train-logistic-unequal-fullbatch':
        'cf0841fa2b9b24ee5728409e4f4a96c5002d4aabcd8477d7ade406fd07e4fe90',
    'train-logistic-unequal-minibatch':
        '46cee5d038d8a2ea5b389d92cdff27a73e175aaff1e1ba1350bb4319f4a4cf00',
    'train-logistic-unequal-minibatch-large-seed':
        'b2f038be857d28b4d409be69c4c5bd142b49f70eacc152f6d0758e558378e8f6',
    'train-mlp':
        'fad6de821efca2e19d7665fda96b9c1aaae000e1e2ba2b5924be4ef83b08b26a',
    'train-mlp-fullbatch':
        '60a9530fd2c04c072249b0ec566a62e0f8db4538ac9ea013e659d1fb671b52d7',
    'train-mlp-minibatch':
        'f16a717a11f7a67161c282d7dbee5df084d3c96b921bee91c99932931a0089ce',
    'train-quadratic-noisy-large-seed':
        'ba290eed5edf2d2d00e57a6f31d7b56df6ea95470b9d7e029aa47c7aa2c42ab6',
}


def train_digest(case: str) -> str:
    """SHA-256 over the RunTrace arrays of every run of ``case``.

    Hashed like perfbench's ``RunTrainingJob.fingerprint``.
    """
    build, algorithms, rounds, local_steps, lr, seeds = TRAIN_CASES[case]
    objective, x0 = build()
    h = hashlib.sha256()
    for algorithm in algorithms:
        for seed in seeds:
            tr = engine.run_training(objective, engine.TrainConfig(
                algorithm=algorithm, n_clients=objective.n_clients,
                rounds=rounds, local_steps=local_steps, lr=lr, seed=seed,
                x0=x0))
            for arr in (tr.loss, tr.grad_norm_sq, tr.drift, tr.steps,
                        tr.diverged, tr.iterates, tr.final_x, tr.avg_x):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr((tr.avg_grad_norm_sq, tr.final_grad_norm_sq,
                           tr.diverged_at)).encode())
    return h.hexdigest()


def digests(case: str, workdir: Path) -> dict:
    """{file name: sha256} of every output file of ``case`` but the manifest."""
    command, text, extra = CASES[case]
    config = workdir / f"{case}.ini"
    config.write_text(text)
    out = workdir / case
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    assert digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_train_golden(case):
    assert train_digest(case) == TRAIN_GOLDEN[case]


if __name__ == "__main__":
    # print a fresh GOLDEN table for pasting above
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for case in sorted(CASES):
            print(f"    {case!r}: {{")
            for name, digest in digests(case, Path(tmp)).items():
                print(f"        {name!r}:\n            {digest!r},")
            print("    },")
        print("}")
    print("TRAIN_GOLDEN = {")
    for case in sorted(TRAIN_CASES):
        print(f"    {case!r}:\n        {train_digest(case)!r},")
    print("}")
