"""Benchmark entry point: one workload, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/`` of that checkout; scratch files go under ``.perfbench-runs/``.
The run times the workload's set-up several times, then repeats rounds
of the workload until ``--seconds`` have passed, then checks the
program's outputs. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it wraps every layer's public functions
and reports the per-layer metrics instead. The last line of standard
output is the result as one JSON object; everything else goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS uses at most two threads, the core count of the reference machine
BLAS_THREADS = str(min(2, os.cpu_count() or 1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mlx" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("MLX_DATA_DIR", None)  # dataset caches stay in the run's directory
    sys.path.insert(0, str(src))

    import checks
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.NAMES}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    run = workloads.Run(args.seed, workdir)
    workload = workloads.make(args.workload, run)
    problems: list[str] = []

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run.time_program()

    setup_s = []
    for i in range(workload.setups):
        if tracer:
            tracer.begin_pass("setup")
        t0 = time.perf_counter()
        workload.setup(i)
        setup_s.append(time.perf_counter() - t0)
    if tracer:
        tracer.begin_pass("prep")
    try:
        workload.after_setups(workload.setups)
    except checks.CheckFailed as err:
        problems.append(str(err))

    wall_s, train_rate, score_rate, digests = [], [], [], []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.begin_pass("round")
        run.reset_clocks()
        t0 = time.perf_counter()
        digests.append(workload.round())
        wall_s.append(time.perf_counter() - t0)
        train_rate.append(run.train_examples / run.train_s if run.train_s else 0.0)
        score_rate.append(run.score_examples / run.score_s if run.score_s else 0.0)
        if time.perf_counter() - start >= args.seconds:
            break
    run.untime_program()
    if tracer:
        tracer.uninstall()

    try:
        workload.check()
    except Exception as err:  # any failure here is a wrong or missing output
        problems.append(f"{type(err).__name__}: {err}")
    if len(set(digests)) != 1:
        problems.append("rounds of the same seed wrote different outputs")
    if tracer and len(set(tracer.round_counts())) != 1:
        problems.append("traced counts differ between rounds")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics()
        tracer.write(workdir / "spans.npz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "train_examples_per_s": {"value": statistics.median(train_rate), "unit": "examples/s"},
            "score_examples_per_s": {"value": statistics.median(score_rate), "unit": "examples/s"},
            "wall_s": {"value": statistics.median(wall_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "blas_threads": BLAS_THREADS,
        "setup_s": setup_s, "rounds": len(wall_s), "round_wall_s": wall_s,
        "round_train_rate": train_rate, "round_score_rate": score_rate,
        "output_sha256": digests[0], "problems": problems,
    }
    (workdir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for entry in workdir.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
