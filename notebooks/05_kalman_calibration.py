# %% [markdown]
# # Calibrating the Kalman baseline
#
# The baseline is a two-state (phase, frequency) Kalman filter fed the same
# 5-point windows as the network.  Its three noise parameters are not
# taken from any publication; they were frozen by exactly the grid search
# below: one-step-ahead RMSE on the validation partition of the bundled
# synthetic experiment, minimized over a coarse log-spaced grid.
#
# Rerunning this script reproduces the frozen defaults in
# clockpred.kalman (q1=0.1, q2=1e-4, r=1e-6).

# %%
import numpy as np

from clockpred import KalmanParams, default_maser_spec, generate, prepare, rmse_loss
from clockpred.kalman import kf_one_ahead_batch
from clockpred.predictor import eligible_indices, window_matrix

prepared = prepare(generate(default_maser_spec()), fit_on_full=True)
val_range = prepared.split.val_range
windows = window_matrix(prepared.residual_norm, val_range)
actual = prepared.residual_norm.values[eligible_indices(val_range)]
interval = prepared.series.interval

grid_q = [0.0] + [10.0**e for e in range(-7, 0)]
grid_r = [10.0**e for e in range(-6, 0)]
results = []
for q1 in grid_q:
    for q2 in grid_q:
        for r in grid_r:
            preds = kf_one_ahead_batch(windows, interval, KalmanParams(q1=q1, q2=q2, r=r))
            results.append((rmse_loss(preds, actual), q1, q2, r))
results.sort()

print("top five grid points (validation RMSE, q1, q2, r):")
for rmse, q1, q2, r in results[:5]:
    print(f"  {rmse:.5f}  q1={q1:<8g} q2={q2:<8g} r={r:g}")

best_rmse, q1, q2, r = results[0]
print(f"\nfrozen winner: q1={q1:g}, q2={q2:g}, r={r:g} "
      f"(validation RMSE {best_rmse:.5f} in normalized units)")

# %% [markdown]
# The winning corner wants a lot of white-FM process noise and almost no
# measurement noise: with five samples per window the filter can afford to
# trust each point and mostly extrapolate the local slope.  A sanity
# anchor: with zero process noise the filter collapses onto ordinary
# least-squares line extrapolation.

# %%
window = prepared.residual_norm.values[60:65]
from clockpred import kf_one_ahead

ls_like = kf_one_ahead(window, interval, KalmanParams(q1=0.0, q2=0.0, r=1e-3))
t = np.arange(5) * interval
slope = np.polyfit(t, window, 1)
print("zero-Q filter :", ls_like)
print("fitted line   :", np.polyval(slope, 5 * interval))
