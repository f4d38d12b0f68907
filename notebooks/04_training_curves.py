# %% [markdown]
# # Training the network: loss curves and early stopping
#
# Training is full batch: every update computes the RMSE-plus-L2 gradient
# over all 136 training windows and takes one Adam step.  The trace records
# train and validation RMSE after every update, which is the data behind a
# classic two-curve convergence plot.

# %%
import numpy as np

from clockpred import TrainConfig, default_maser_spec, generate, init_weights, prepare, train
from clockpred.training import make_windows, predict_dataset, rmse_loss, trace_to_csv

prepared = prepare(generate(default_maser_spec()), fit_on_full=True)
train_ds = make_windows(prepared.residual_norm, prepared.split.train_range)
val_ds = make_windows(prepared.residual_norm, prepared.split.val_range)
print(f"training pairs: {len(train_ds)}, validation pairs: {len(val_ds)}")

model0 = init_weights(56934)
initial = rmse_loss(predict_dataset(model0, train_ds), train_ds.targets)
model, trace = train(model0, train_ds, val_ds, TrainConfig())

print(f"initial train RMSE : {initial:.4f} (normalized units)")
for u in (1, 10, 25, 50, 100, 200, 500, 1000, len(trace)):
    print(f"  update {u:4d}: train {trace.train_rmse[u-1]:.4f}  val {trace.val_rmse[u-1]:.4f}")
print(f"stop reason : {trace.stop_reason} after {len(trace)} updates")
print(f"best update : {trace.best_update + 1} "
      f"(val {trace.val_rmse[trace.best_update]:.4f}); that snapshot is returned")

# %% [markdown]
# Most of the improvement lands in the first ~50 updates and the curve then
# flattens, with validation tracking train closely: no overfitting here,
# thanks to the L2 penalty, the tiny parameter count, and best-snapshot
# restoration.

# %%
fall = initial / trace.train_rmse[:200].min()
tail = trace.train_rmse[-20:]
print(f"fall within 200 updates : {fall:.1f}x")
print(f"final-20-update swing   : {(tail.max() - tail.min()) / tail.min():.3%}")

# %% [markdown]
# The trace exports as a plain CSV, one row per update:

# %%
print("\n".join(trace_to_csv(trace).splitlines()[:4]))

# %% [markdown]
# To see early stopping trigger, give the trainer a validation set that is
# actively misleading: the training targets sit at +0.5 but validation
# demands -0.5, so validation RMSE rises as the fit improves and training
# halts after `patience` non-improving updates, restoring the best
# snapshot.

# %%
from clockpred.training import WindowDataset

windows = np.full((8, 5), 0.5)
adversarial = train(
    init_weights(0),
    WindowDataset(windows, np.full(8, 0.5)),
    WindowDataset(windows.copy(), np.full(8, -0.5)),
    TrainConfig(max_updates=500, patience=5, lr=0.01),
)[1]
print(f"stop reason: {adversarial.stop_reason} after {len(adversarial)} updates, "
      f"best update {adversarial.best_update + 1}")
