"""stegnet benchmark: one workload per process, seeded inputs, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train256 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones. Every run ends with an untimed
correctness gate. The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of build output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# BLAS thread cap per workload; it must be set before numpy is imported.
THREADS = {"train256": 1, "train64_aug": 1, "eval256": 2}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 10
MIN_ROUNDS = 2
E2E_UNITS = {"img_per_s": "img/s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment(wl, threads: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "threads": threads,
            **wl.describe()}


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    import resource
    import shutil
    import statistics
    import tempfile
    import traceback

    import stegnet
    from stegnet import zhunet

    if os.path.dirname(os.path.abspath(stegnet.__file__)) != os.path.join(SRC, "stegnet"):
        print(f"perfbench: imported stegnet from {stegnet.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import gate
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    env = environment(wl, THREADS[name])
    clock = time.perf_counter
    null = tracing.NullTracer()
    tracer = tracing.Tracer() if trace else null
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(OUT, "tmp"))
    try:
        covers = workloads.write_covers(wl, seed, tmp)
        prepared = workloads.prepare(wl, seed, covers, tmp)

        setup_s = []
        with tracer.installed():
            for _ in range(SETUP_REPS):
                with tracer.span("bench.setup"):
                    t0 = clock()
                    datasets, model = workloads.setup(wl, seed, covers, tmp, prepared)
                    setup_s.append(clock() - t0)
        images, batches = workloads.round_shape(wl, datasets)
        env["dataset_pairs"] = {split: len(ds.pairs) for split, ds in datasets.items()}

        # Rounds run while the next one, at the median round length so far,
        # still ends within --seconds (at least MIN_ROUNDS of them); in a
        # traced run every second round is traced.
        rates: dict[bool, list[float]] = {False: [], True: []}
        outcomes: dict[bool, list] = {False: [], True: []}
        attempted = failed = 0
        rounds = 0
        lengths = []
        best = b""
        start = clock()
        while True:
            round_start = clock()
            traced = trace and rounds % 2 == 1
            t = tracer if traced else null
            attempted += batches
            try:
                if wl.mode == "train":
                    model = zhunet.build_model(workloads.model_config(seed))
                t.bind_model(model)
                with t.installed(), t.span("bench.round"):
                    dt, outcome = workloads.run_round(wl, seed, datasets, model, clock)
            except Exception:  # the run reports the failure instead of dying
                traceback.print_exc(file=sys.stderr)
                failed += batches
                break
            if wl.mode == "train":
                # keep only what the gate needs, so rounds do not pile up memory
                best, outcome = outcome.best_checkpoint, tuple(outcome.history)
            rates[traced].append(images / dt)
            outcomes[traced].append(outcome)
            rounds += 1
            lengths.append(clock() - round_start)
            if rounds >= MIN_ROUNDS and clock() - start + statistics.median(lengths) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            failed += len(tracer.nonfinite_batches)

        checks = gate.suite_checks()
        everything = outcomes[False] + outcomes[True]
        if wl.mode == "train":
            pair = datasets["train"].pairs[0]
            checks.append(("directional_derivative", lambda: gate.directional_check(pair, seed)))
            checks += gate.train_checks(everything, best, 2 * len(datasets["validation"].pairs))
        else:
            checks += gate.eval_checks(everything, images, model, prepared["checkpoint"],
                                       datasets["test"])
        if trace:
            def traced_equal():
                plain, seen = set(outcomes[False]), set(outcomes[True])
                return bool(plain) and plain == seen, \
                    f"{len(outcomes[True])} traced, {len(outcomes[False])} untraced rounds"
            checks.append(("traced_equals_untraced", traced_equal))
        results = gate.run_checks(checks)
        attempted += len(results)
        failed += sum(1 for _, ok, _ in results if not ok)

        def med(xs) -> float:
            return float(statistics.median(xs)) if xs else 0.0

        if trace:
            values = tracer.metrics(wl.mode)
            values["data.dataset_mb"] = workloads.dataset_bytes(datasets) / tracing.MIB
            if wl.mode == "train":
                values["zhunet.checkpoint_bytes"] = float(len(best))
            else:
                values["zhunet.checkpoint_bytes"] = float(os.path.getsize(prepared["checkpoint"]))
            plain = med(rates[False])
            values["trace.throughput_ratio"] = med(rates[True]) / plain if plain else 0.0
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in tracing.METRIC_SPECS}
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            tracer.write(os.path.join(OUT, "traces", f"{name}-seed{seed}.jsonl"),
                         {"env": env, "metrics": values})
        else:
            values = {"img_per_s": med(rates[False]), "setup_s": med(setup_s),
                      "peak_rss_mb": peak_rss_mb}
            metrics = {n: {"value": values[n], "unit": u} for n, u in E2E_UNITS.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = failed == 0
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# rounds {rounds}: " + " ".join(
        f"{'traced' if k else 'untraced'}={[round(r, 4) for r in v]}" for k, v in rates.items() if v))
    for check, ok, detail in results:
        print(f"# check {check}: {'ok' if ok else 'FAIL'} ({detail})")
    for metric, mv in metrics.items():
        print(f"{metric} {mv['value']:.6g} {mv['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every line and a combined
    result keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in THREADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(f"## {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, mv in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = mv
        code = code or proc.returncode or (0 if result["correct"] else 1)
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*THREADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "stegnet", "__init__.py")):
        print(f"perfbench: no stegnet sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS[args.workload])
    sys.path.insert(0, SRC)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
