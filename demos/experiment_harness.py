"""Driving a full reproducible experiment from one config file.

The same config can be consumed by the `splitsim` CLI (`splitsim run
--config exp.ini`) or programmatically, as below. Every output embeds a
hash of the parsed config and the manifest lists every file written, so a
rerun is byte-identical and auditable.
"""

import json
import pathlib
import tempfile

from splitsim.harness import ExperimentSpec, cmd_bounds, cmd_run, cmd_sweep

CONFIG = """
[objective]
family = quadratic
n_clients = 5
dim = 2
curvature = 1.0
heterogeneity = 1.0
sigma = 0.5
seed = 0

[train]
algorithm = sl
rounds = 50
local_steps = 3
lr = 0.01
seeds = 0, 1, 2
x0 = 2.0, -1.0

[sweep]
algorithms = sl, fl
grid = 0.001 0.01 0.1
"""

workdir = pathlib.Path(tempfile.mkdtemp(prefix="splitsim_demo_"))
cfg = workdir / "exp.ini"
cfg.write_text(CONFIG)
spec = ExperimentSpec.load(cfg)
print(f"config hash: {spec.config_hash()}\n")

cmd_run(spec, out_dir=workdir / "runs")
cmd_bounds(spec, out_dir=workdir / "bounds")
cmd_sweep(spec, out_dir=workdir / "sweep")

for sub in ("runs", "bounds", "sweep"):
    manifest = json.loads((workdir / sub / "manifest.json").read_text())
    print(f"{sub}: {manifest['files']}")

bounds = json.loads((workdir / "bounds" / "bounds.json").read_text())
print(f"\nstep-size caps: relay {bounds['lr_max_sl']:.5f}, "
      f"averaging {bounds['lr_max_fl']:.5f} "
      f"(ratio {bounds['lr_max_fl'] / bounds['lr_max_sl']:.1f} = N)")
print(f"guarantee at configured lr: {bounds['sl']['total']:.4f} "
      f"(lr_ok={bounds['sl']['lr_ok']})")
print(f"\nall outputs under {workdir}")
