"""The benchmark's three workloads.

Each workload is a closed loop with one caller. It has a set-up, which
the runner repeats to time it, and a round: a fixed amount of work that
is the same on every commit. The runner repeats rounds for the run's
length. After the last round the workload checks the program's outputs
against the independent recomputations in ``checks``.

Inputs come from the run's seed only. The shapes and hyperparameters
are those of ``demos/configs/decoy_sweep.json`` and
``demos/configs/toy2d.json``, copied here so that an edit to a demo
does not change the benchmark; the number of examples and epochs is
cut so that a round takes seconds.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from checks import require
from mlx import autodiff, cli, data, intervals, metrics, model, perturb, rng, train
from mlx import config as cfgmod
from spans import rebind, unbind

# -- decoy workloads ----------------------------------------------------------

# digits drawn into the splits; the corpus renders exactly this many
DECOY_SPLIT = {"n_train": 1024, "n_val": 500, "n_test": 2000}
CORPUS = {"n_train": DECOY_SPLIT["n_train"] + DECOY_SPLIT["n_val"], "n_test": DECOY_SPLIT["n_test"]}
DECOY_HIDDEN = (512, 512)
# training block shared by every sweep entry of decoy_sweep.json; one epoch
DECOY_TRAINING = {
    "epochs": 1, "batch_size": 128, "lr": 0.001, "clamp": [0, 1],
    "perturb": {"kappa": 0.2, "steps": 7, "alpha": 1.0},
}
DECOY_RUNS = {
    "decoy-attack": {
        "pgd-ex": {"method": "pgd-ex"},
        "pgd+grad": {"method": "pgd+grad", "lam": 1.0},
    },
    "decoy-noattack": {
        "erm": {"method": "erm"},
        "grad-reg": {"method": "grad-reg", "lam": 100.0},
        "ibp-ex": {"method": "ibp-ex", "eps_max": 0.4, "ramp_fraction": 0.4},
    },
}
RCS_SIGMA = 0.25
HELD = 32  # test examples held for the PGD and IBP checks
FD_BATCH = 8  # training examples for the finite-difference check

# -- toy2d-cli ---------------------------------------------------------------

TOY_EPOCHS = 50


def toy_config(seed: int) -> dict:
    return {
        "seed": seed,
        "dataset": {"name": "toy2d", "n": 600, "seed": seed},
        "model": {"hidden": [32, 32]},
        "training": {"method": "ibp-ex", "eps_max": 4.0, "epochs": TOY_EPOCHS, "batch_size": 64, "lr": 0.005},
        "eval": {"rcs": True, "grid_range": [[-4, 4], [-2, 2]], "grid_resolution": 81},
    }


# the two saliency-penalty runs of acceptance criterion 6
TOY_SWEEP = [
    {"name": "grad-reg-b0", "training": {"method": "grad-reg", "lam": 1000.0}},
    {"name": "grad-reg-b1", "training": {"method": "grad-reg", "lam": 1.0, "beta": 1.0}},
]
# demos/configs/gp_verify.json. Its seed stays fixed: with seeds taken from
# the run seed, the coverage-bound check fails on some of them.
GP_CONFIG = {"seed": 0, "gp_verify": {"thm1_trials": 1000, "thm2_trials": 100, "psd_trials": 200}}
TOY_SUBCOMMANDS = ("gen-data", "train", "eval", "boundary-dump", "gp-verify", "sweep")


# -- run bookkeeping ---------------------------------------------------------


class Run:
    """State of one benchmark run: seed, scratch directory, operation counts,
    and the time and examples seen inside training and scoring calls."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.train_s = self.train_examples = 0.0
        self.score_s = self.score_examples = 0.0
        self._restore: list = []

    def op(self, fn, *args, **kwargs):
        """One operation; an exception or a non-zero exit counts as failed."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception:  # the run goes on and reports the failure
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if result is None or (isinstance(result, int) and result != 0):
            self.failed += 1
            return None
        return result

    def reset_clocks(self) -> None:
        self.train_s = self.train_examples = 0.0
        self.score_s = self.score_examples = 0.0

    def time_program(self) -> None:
        """Time every call into ``train.train`` and ``metrics.build_report``,
        wherever the program binds them (the CLI calls them internally)."""
        run = self
        inner_train, inner_report = train.train, metrics.build_report

        def timed_train(splits, cfg, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner_train(splits, cfg, *args, **kwargs)
            finally:
                run.train_s += time.perf_counter() - t0
                run.train_examples += len(splits.train.x) * cfg.epochs

        def timed_report(params, split, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner_report(params, split, *args, **kwargs)
            finally:
                run.score_s += time.perf_counter() - t0
                run.score_examples += len(split.x)

        rebind(inner_train, timed_train, self._restore)
        rebind(inner_report, timed_report, self._restore)

    def untime_program(self) -> None:
        unbind(self._restore)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def params_bytes(params) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for pair in zip(params.weights, params.biases) for a in pair)


# -- decoy ---------------------------------------------------------------------


class Decoy:
    """Training on the decoy-digit task at 2352-512-512-10, batch 128,
    then scoring each trained model on the test split."""

    setups = 3

    def __init__(self, name: str, run: Run):
        self.name = name
        self.run = run
        self.runs = DECOY_RUNS[name]
        self.splits = None
        self.results: dict = {}

    def setup(self, index: int) -> None:
        """Render the digit corpus, build the decoy splits and write the
        dataset cache, from an empty directory."""
        seed = self.run.seed
        d = self.run.workdir / f"setup{index}"
        paths = data.ensure_digit_corpus(d / "digits", seed=seed, **CORPUS)
        tri, trl = data.load_idx(paths["train_images"], paths["train_labels"])
        tei, tel = data.load_idx(paths["test_images"], paths["test_labels"])
        splits = data.build_decoy_mnist(tri, trl, tei, tel, seed=seed, **DECOY_SPLIT)
        block = {"name": "decoy", "seed": seed, **DECOY_SPLIT}
        data.save_cache(d / "dataset.bin", splits, seed=seed, config_hash=cfgmod.config_hash(block))

    def after_setups(self, count: int) -> None:
        self.splits, _ = data.load_cache(self.run.workdir / "setup0" / "dataset.bin")
        caches = [(self.run.workdir / f"setup{i}" / "dataset.bin").read_bytes() for i in range(count)]
        require(all(c == caches[0] for c in caches), "dataset caches differ between set-ups")

    def training_config(self, overrides: dict):
        block = copy.deepcopy(DECOY_TRAINING)
        block.update(overrides)
        return cfgmod.training_config({"training": block}, self.run.seed)

    def round(self) -> str:
        spec = model.MlpSpec(self.splits.train.x.shape[1], DECOY_HIDDEN, 10)
        parts = []
        for label, overrides in self.runs.items():
            result = self.run.op(train.train, self.splits, self.training_config(overrides), spec=spec)
            report = None
            if result is None:
                self.run.attempted += 1
                self.run.failed += 1
            else:
                report = self.run.op(
                    metrics.build_report, result.params, self.splits.test,
                    with_rcs=True, rcs_sigma=RCS_SIGMA, rng=rng.stream(self.run.seed, "rcs"), with_saliency=True,
                )
            self.results[label] = (result, report)
            if result is not None and report is not None:
                parts += [label, result.history, params_bytes(result.params), params_bytes(result.final_params),
                          _jsonable(report.as_dict())]
        return digest(*parts)

    def check(self) -> None:
        test = self.splits.test
        for label, (result, report) in self.results.items():
            if result is None or report is None:
                continue  # counted as a failed operation
            p = result.params
            checks.check_finite(f"{label} parameters", *p.weights, *p.biases, *result.final_params.weights)
            require(len(result.history) == DECOY_TRAINING["epochs"], f"{label}: history rows")
            for row in result.history:
                checks.check_finite(f"{label} history", list(row.values()))
                require(0 <= row["val_avg_acc"] <= 1 and 0 <= row["val_wg_acc"] <= 1, f"{label}: val accuracy range")
            checks.check_report(_jsonable(report.as_dict()), p.weights, p.biases, test, self.run.seed, RCS_SIGMA)
        held = slice(0, HELD)
        x, y, m = test.x[held], test.y[held], test.m[held]
        if self.name == "decoy-attack":
            for label, (result, _) in self.results.items():
                if result is None:
                    continue
                kappa = DECOY_TRAINING["perturb"]["kappa"]
                delta = perturb.pgd_attack(result.params, x, y, m, kappa, DECOY_TRAINING["perturb"]["steps"],
                                           clamp=tuple(DECOY_TRAINING["clamp"]))
                checks.check_pgd(delta, result.params.weights, result.params.biases, x, y, m, kappa,
                                 tuple(DECOY_TRAINING["clamp"]))
            return
        tr = self.splits.train
        fd = slice(0, FD_BATCH)
        direction_rng = np.random.default_rng([self.run.seed, 0xFD])
        for label in ("erm", "grad-reg"):
            result = self.results[label][0]
            if result is None:
                continue
            cfg = self.training_config(self.runs[label])
            p = result.params
            pt = model.param_tensors(p)
            loss, _ = train.total_loss_graph(pt, tr.x[fd], tr.y[fd], tr.m[fd], cfg, 0.0)
            grads = [g.data for g in autodiff.grad(loss, pt)]
            checks.check_finite(f"{label} loss", [loss.item()])
            checks.check_directional_grad(grads, loss.item(), p.weights, p.biases, tr.x[fd], tr.y[fd], tr.m[fd],
                                          cfg.lam, direction_rng)
        result = self.results["ibp-ex"][0]
        if result is not None:
            eps = self.runs["ibp-ex"]["eps_max"]
            clamp = tuple(DECOY_TRAINING["clamp"])
            bounds = intervals.propagate(result.params, intervals.input_box(x, m, eps, clamp=clamp))
            worst = intervals.worst_case_logits(bounds, y)
            checks.check_ibp(bounds.lower, bounds.upper, worst, result.params.weights, result.params.biases,
                             x, y, m, eps, clamp, np.random.default_rng([self.run.seed, 0x1B9]), samples=8)


def _jsonable(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


# -- toy2d-cli -------------------------------------------------------------------


class ToyCli:
    """The ``mlx`` round trip on the toy 2-D task, in-process."""

    name = "toy2d-cli"
    setups = 25

    def __init__(self, run: Run):
        self.run = run
        self.configs = run.workdir / "configs"
        self.configs.mkdir(parents=True)
        cfg = toy_config(run.seed)
        (self.configs / "toy2d.json").write_text(json.dumps(cfg))
        (self.configs / "sweep.json").write_text(json.dumps({**cfg, "sweep": TOY_SWEEP}))
        (self.configs / "gp_verify.json").write_text(json.dumps(GP_CONFIG))
        self.out = None
        self.codes: dict = {}

    def _mlx(self, subcommand: str, config: str, out: Path):
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main([subcommand, "--config", str(self.configs / config), "--out", str(out)])

    def setup(self, index: int) -> None:
        """Generate the toy dataset cache into an empty directory."""
        code = self._mlx("gen-data", "toy2d.json", self.run.workdir / f"setup{index}")
        require(code == 0, f"set-up gen-data exited {code}")

    def after_setups(self, count: int) -> None:
        caches = [sorted((self.run.workdir / f"setup{i}").glob("dataset-*.bin"))[0].read_bytes() for i in range(count)]
        require(all(c == caches[0] for c in caches), "dataset caches differ between set-ups")

    def round(self) -> str:
        self.out = self.run.workdir / f"round{time.perf_counter_ns()}"
        for sub in TOY_SUBCOMMANDS:
            config = {"gp-verify": "gp_verify.json", "sweep": "sweep.json"}.get(sub, "toy2d.json")
            out = self.out / "gp" if sub == "gp-verify" else self.out
            self.codes[sub] = self.run.op(self._mlx, sub, config, out) is not None
        files = sorted(p for p in self.out.rglob("*") if p.is_file())
        return digest(*[part for p in files for part in (str(p.relative_to(self.out)), p.read_bytes())])

    def check(self) -> None:
        out, seed = self.out, self.run.seed
        ok = self.codes
        if ok["train"]:
            weights, biases = checks.read_checkpoint(out / "checkpoint.bin")
            checks.check_finite("checkpoint", *weights, *biases)
            _, columns, rows = checks.read_csv(out / "history.csv")
            require(len(rows) == TOY_EPOCHS, f"history.csv has {len(rows)} rows")
            history = np.array([[float(v) for v in row] for row in rows])
            checks.check_finite("history.csv", history)
            accs = history[:, [columns.index("val_avg_acc"), columns.index("val_wg_acc")]]
            require(np.all((accs >= 0) & (accs <= 1)), "history.csv: val accuracy out of range")
            if ok["eval"] and ok["gen-data"]:
                splits, _ = data.load_cache(next(out.glob("dataset-*.bin")))
                report = json.loads((out / "metrics.json").read_text())
                checks.check_report(report, weights, biases, splits.test, seed, RCS_SIGMA)
            if ok["boundary-dump"]:
                checks.check_boundary(out / "boundary.csv", weights, biases)
        if ok["gp-verify"]:
            report = json.loads((out / "gp" / "gp_verify.json").read_text())
            require(report["all_passed"] is True, "gp_verify.json: all_passed is not true")
            for key in ("gap_lower_bound", "coverage_upper_bound", "kernel_psd", "mean_estimator_weights"):
                require(report[key]["passed"] is True, f"gp_verify.json: {key} did not pass")
        if ok["sweep"]:
            _, columns, rows = checks.read_csv(out / "sweep.csv")
            require([r[columns.index("name")] for r in rows] == [e["name"] for e in TOY_SWEEP], "sweep.csv names")
            for row, entry in zip(rows, TOY_SWEEP):
                values = dict(zip(columns, row))
                require(values["method"] == entry["training"]["method"], "sweep.csv method")
                require(float(values["lam"]) == entry["training"]["lam"], "sweep.csv lam")
                require(float(values["beta"]) == entry["training"].get("beta", 0.0), "sweep.csv beta")
                for key in ("avg_acc", "wg_acc"):
                    require(0 <= float(values[key]) <= 1, f"sweep.csv {key} out of range")
                for key in ("s1", "s2"):
                    require(math.isfinite(float(values[key])), f"sweep.csv {key} is not finite")


def make(name: str, run: Run):
    if name in DECOY_RUNS:
        return Decoy(name, run)
    if name == ToyCli.name:
        return ToyCli(run)
    raise KeyError(name)


NAMES = (*DECOY_RUNS, ToyCli.name)
