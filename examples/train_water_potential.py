"""Train a MACE potential on water clusters with the balanced sampler.

Reproduces the paper's training recipe end to end at laptop scale:

* a labeled dataset of water clusters and small crystals (synthetic
  reference potential standing in for DFT);
* the multi-objective bin-packing batch sampler (Algorithm 1);
* Adam at lr 0.005 + EMA + exponential LR decay + weighted loss (§5.2);
* final evaluation: energy RMSE per atom and force quality on held-out
  structures.

Run:  python examples/train_water_potential.py
"""

import numpy as np

from repro import MACE, MACEConfig, Trainer, collate
from repro.data import attach_labels, build_training_set
from repro.distribution import BalancedDistributedSampler, evaluate_bins

SEED = 3
N_TRAIN, N_VAL = 24, 6
N_EPOCHS = 16

# -- data -----------------------------------------------------------------------
graphs = attach_labels(
    build_training_set(
        N_TRAIN + N_VAL,
        systems=["Water clusters"],
        seed=SEED,
        max_atoms=40,
    )
)
train, val = graphs[:N_TRAIN], graphs[N_TRAIN:]
print(f"dataset: {len(train)} train / {len(val)} val graphs, "
      f"{sum(g.n_atoms for g in graphs)} atoms total")

# -- balanced batches (the paper's Algorithm 1, via the batch sampler) ------------
sizes = [g.n_atoms for g in train]
sampler = BalancedDistributedSampler(sizes, capacity=128, num_replicas=1, seed=SEED)
bins = sampler.plan_epoch(0)
m = evaluate_bins(bins, np.asarray(sizes))
print(f"balanced plan: {m.num_bins} bins, straggler ratio {m.straggler_ratio:.3f}, "
      f"padding {m.padding_fraction:.1%}")

# -- model + training (§5.2 recipe) ------------------------------------------------
config = MACEConfig(num_channels=8, lmax_sh=2, l_atomic_basis=2, correlation=2)
model = MACE(config, seed=SEED)
trainer = Trainer(model, train, lr=5e-3, lr_gamma=0.98, ema_decay=0.99)

def per_atom_rmse(model, graphs_):
    batch_ = collate(graphs_)
    n_ = np.array([g.n_atoms for g in graphs_], dtype=float)
    pred_ = model.predict_energy(batch_)
    target_ = np.array([g.energy for g in graphs_])
    return float(np.sqrt(np.mean(((pred_ - target_) / n_) ** 2)))


rmse_before = per_atom_rmse(model, val)
print(f"\nuntrained per-atom energy RMSE: {rmse_before:.3f} eV/atom")
print("\nepoch  train-loss  val RMSE (eV/atom)")
for epoch in range(N_EPOCHS):
    loss = float(np.mean(trainer.train_epoch_bins(sampler.plan_rank_bins(epoch, 0))))
    trainer.scheduler.step()
    print(f"{epoch:5d}  {loss:10.4f}  {per_atom_rmse(model, val):18.3f}")

# -- evaluation ---------------------------------------------------------------------
rmse = per_atom_rmse(model, val)
print(f"\nper-atom energy RMSE on validation: {rmse:.3f} eV/atom "
      f"({rmse_before / rmse:.1f}x better than untrained)")

forces = model.forces(collate([val[0]]))
print(f"forces on first validation graph: max |F| = {np.abs(forces).max():.3f} "
      f"eV/A, net force {np.abs(forces.sum(0)).max():.1e}")
