"""The 2-D story: which training methods produce vertical boundaries.

The toy task has a simple nuisance coordinate (x2) that almost separates
the classes and an intended solution that only reads x1. Each method
trains the same 2-32-32-2 net; the flip fraction counts grid columns
whose predicted label changes along x2 (0 = perfectly vertical).

Writes boundary CSVs next to this script for offline plotting.

Run:  python demos/03_toy2d_boundaries.py          (~2 min)
"""

from pathlib import Path

from mlx import data, metrics, model, train

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

splits = data.gen_toy2d(600, seed=1)
spec = model.MlpSpec(2, (32, 32), 2)

RUNS = [
    ("erm", train.TrainingConfig(method="erm", epochs=300, batch_size=64, lr=5e-3, seed=5)),
    # without decay the penalty flattens saliency at the data but the
    # boundary still bends with x2 away from it
    ("grad-reg-heavy", train.TrainingConfig(method="grad-reg", lam=1000.0, epochs=300, batch_size=64, lr=5e-3, seed=5)),
    ("grad-reg-smoothed", train.TrainingConfig(method="grad-reg", lam=1.0, beta=1.0, epochs=300, batch_size=64, lr=5e-3, seed=5)),
    ("ibp", train.TrainingConfig(method="ibp-ex", eps_max=4.0, epochs=300, batch_size=64, lr=5e-3, seed=5)),
]

for name, cfg in RUNS:
    res = train.train(splits, cfg, spec=spec)
    params = res.final_params
    grid = metrics.boundary_grid(params, (-4, 4), (-2, 2), 81)
    acc = float((model.predict(params, splits.train.x) == splits.train.y).mean())
    print(f"{name:18s} train acc {acc:.3f}   x2-flip fraction {grid.flip_fraction:.3f}")
    rows = ["x1,x2,pred"]
    for i, a in enumerate(grid.x1):
        for j, b in enumerate(grid.x2):
            rows.append(f"{a},{b},{grid.pred[i, j]}")
    (OUT / f"boundary-{name}.csv").write_text("\n".join(rows) + "\n")

print(f"\nboundary grids written to {OUT}/")
