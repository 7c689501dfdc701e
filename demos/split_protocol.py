"""The cut-layer message protocol computes the exact monolithic gradient.

A tiny MLP is split at its hidden layer: the client owns the input-side
weights, the server owns the output-side head. Training exchanges four
messages per step (activations up, loss + activation-gradients down):
``local_update`` on an ``MlpObjective``, a one-row pass of the step loop
every engine round rule runs, sends them on each step. The resulting parameter trajectory is
identical -- to floating-point round-off -- to ordinary SGD on the
concatenated parameter vector through the monolithic oracle.
"""

import numpy as np

import splitsim as ss
from splitsim.rng import stream

rng = stream(42, 9)
model = ss.SplitMlp.random(in_dim=3, cut_width=4, out_dim=2, rng=rng)
data = (rng.normal(size=(8, 3)), rng.normal(size=(8, 2)))

loss, cgrad, sgrad, activations = ss.split_forward_backward(model, data)
print(f"one protocol step: loss={loss:.6f}")
print(f"  client grad norm {np.linalg.norm(cgrad):.6f} "
      f"({cgrad.size} params stay on the client)")
print(f"  server grad norm {np.linalg.norm(sgrad):.6f} "
      f"({sgrad.size} params stay on the server)")
print(f"  only the {activations.shape} activation block crosses the wire")

mono_loss, mono_grad = ss.monolithic_loss_grad(model, data)
both = np.concatenate([cgrad, sgrad])
print(f"\nmonolithic oracle: loss={mono_loss:.6f}, "
      f"max grad deviation {np.max(np.abs(both - mono_grad)):.2e}")

objective = ss.MlpObjective(model, [data])
split, _ = ss.local_update(model.params, objective, 0, 10, 0.05, lambda k: rng)
mono = model.params
for _ in range(10):
    mono = mono - 0.05 * ss.monolithic_loss_grad(model, data, mono)[1]
print(f"after 10 SGD steps, split vs monolithic parameter deviation: "
      f"{np.max(np.abs(split - mono)):.2e}")
