"""Golden outputs: SHA-256 of the CLI files a fixed small config produces.

Any change to a run's numbers or to the writers' formatting changes these
digests. A change that alters outputs on purpose (say, a new RNG scheme)
recomputes them with ``PYTHONPATH=src python tests/test_golden.py`` and
says so. ``manifest.json`` is left out because it records the Python and
numpy versions.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from splitsim.harness import main

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

SWEEP = QUADRATIC.format(algo="sl") + """
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

GOLDEN = {
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
    'sweep-quadratic': {
        'sweep_fl_G0.csv':
            'de0a116ae389513cf8e89fd63f12be87cc91aed64371eb8fc2aaa8cd9c9d5f14',
        'sweep_fl_G0.json':
            '44dce7d1300f323774664c798cc968c7a64ba40c8c914d1dc33f0f7819dcbc1e',
        'sweep_fl_G1.5.csv':
            'c531ee048a7ec465ae025470958ba7aa608052b02009b5048c6eb8495d3fad3e',
        'sweep_fl_G1.5.json':
            'ede62f53e78c759992dfc0934102abf507a77c99677a1fa83b6099febca3020d',
        'sweep_minibatch_G0.csv':
            '2e143920de56388855c935fbbc9c19f30ea70b05095dba18580469d6cc0e0efb',
        'sweep_minibatch_G0.json':
            'c2d6cafeab6597539433f2932269d09c656892df2dcbfe6d1bfddfc5b265568a',
        'sweep_minibatch_G1.5.csv':
            '11acf889c6ae7ea92b391064e937c0fda810920c4ec4bdbba21b01ba510d59d4',
        'sweep_minibatch_G1.5.json':
            '803613d5a95e91d858288075d5adc941f03614a96368c3ad6918f084b07e8993',
        'sweep_sl_G0.csv':
            '0eb324f172cc37fe4c1427288e1c2cd67804f7f455838e8bdd5123a4c7e31ba0',
        'sweep_sl_G0.json':
            'c75c38dd4d7110caadc986386156399adfb4988115863b483f0816f9a0c8e97c',
        'sweep_sl_G1.5.csv':
            'f910ff4fbc1509e8f6fe9378f480e1ac62fa67631fcd8b3879fada73a4d0b38a',
        'sweep_sl_G1.5.json':
            '583b2035a919b50e386ea48feecb06269609e453fe979ebbdc940b8d478659a1',
    },
}


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
