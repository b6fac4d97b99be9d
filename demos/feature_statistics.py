"""Walk through the 10-operator statistics bank on a small sample.

Run: python3 demos/feature_statistics.py
"""

import numpy as np

from cloudgraph.statbox import STAT_NAMES, statbox_array, statbox_columns

rng = np.random.default_rng(0)

# a skewed sample: exponential noise around 1.0
values = 1.0 + rng.exponential(scale=0.5, size=40)
stats = statbox_array(values)

print("sample of", len(values), "values")
for name, v in zip(STAT_NAMES, stats):
    print(f"  {name:16s} {v: .6f}")

# the operators are order-free: a shuffled copy gives the same numbers bit for bit
shuffled = values.copy()
rng.shuffle(shuffled)
assert np.array_equal(stats, statbox_array(shuffled))
print("shuffle check: identical output")

# the bank reduces the last axis, so a batch of rows is one call, and each
# row's result equals a call on that row alone
batch = np.stack([values, shuffled, 2.0 * values])
rows = statbox_array(batch)
print("batched output shape:", rows.shape)  # 3 rows x 10 stats
assert all(np.array_equal(rows[i], statbox_array(batch[i])) for i in range(3))

# column-wise application, the building block of the 380D frame descriptor
matrix = rng.normal(size=(25, 3))
cols = statbox_columns(matrix)
print("per-column output shape:", cols.shape)  # 3 columns x 10 stats
print("column 0 mean =", cols[0], "vs numpy", matrix[:, 0].mean())
