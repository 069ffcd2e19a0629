"""Run the benchmark: one workload or all of them, untraced or traced.

    python3 perfbench/run.py --workload infer-vgg16 --seed 1
    python3 perfbench/run.py --workload serve --seed 1 --trace 1
    python3 perfbench/run.py --all --seed 2

An untraced run prints every end-to-end metric of ``BENCHMARK.json`` with
its unit; a traced run (``--trace 1``) prints every per-layer metric.  Both
check the program's outputs, write ``bench_out/<workload>.json`` (or
``.trace.json``), append the same record to ``bench_out/<workload>.runs.jsonl``
(or ``.trace.runs.jsonl``) for ``compare.py``, and print one JSON object as
the last line:

    {"correct": true, "attempted": 101, "failed": 0, "metrics": {...}}

The exit code is 0 only when every operation and check passed.  ``--all``
runs each workload in its own fresh process, one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import harness

EXPECTED = Path(__file__).with_name("expected.json")


def _parse(argv, declaration):
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1, help="input seed (1: development, 2: held out)")
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=harness.ROOT / "bench_out")
    parser.add_argument(
        "--update-expected", action="store_true",
        help="record this run's output digest as the expected one for its seed",
    )
    # Internal: child processes for set-up samples and design rounds.
    parser.add_argument("--role", choices=("setup", "round"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _check_digest(name: str, seed: int, digest: str, update: bool):
    """(checked, error or None) against expected.json; ``update`` rewrites it."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if update:
        expected.setdefault(name, {})[str(seed)] = digest
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        return False, None
    want = expected.get(name, {}).get(str(seed))
    if want is None:
        return False, None
    return True, None if want == digest else f"output digest {digest} != expected {want}"


def _emit(declaration, workload, result, trace: bool, gemm: float):
    """The declared metrics of this mode, each with its unit."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declaration[kind]}
    produced = dict(result.metrics)
    if trace:
        if set(produced) != set(workload.layer_metrics):
            raise RuntimeError(
                f"{workload.name} measured {sorted(set(produced) ^ set(workload.layer_metrics))} "
                "differently from what it declares"
            )
        produced["host.gemm_peak_gflops"] = gemm
        # Layers this workload never calls read 0.
        produced = {**dict.fromkeys(units, 0.0), **produced}
    if set(produced) != set(units):
        raise RuntimeError(f"metrics {sorted(set(produced) ^ set(units))} are not declared")
    for name, value in produced.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is {value}")
    return {name: {"value": float(produced[name]), "unit": units[name]} for name in units}


def run_one(args, declaration, import_s: float) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run = workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        count=2 if args.trace else 1,  # a traced run needs one op of each kind
        import_s=import_s,
    )
    result = workload.run(run)
    gemm = harness.gemm_peak_gflops()
    checked, mismatch = _check_digest(args.workload, args.seed, result.digest, args.update_expected)
    attempted = result.attempted + checked
    failed = result.failed + (mismatch is not None)
    errors = result.errors + ([mismatch] if mismatch else [])
    metrics = _emit(declaration, workload, result, run.trace, gemm)
    correct = failed == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": harness.fingerprint(gemm),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "modeled": result.modeled,
        "samples": result.samples,
        "digest": result.digest,
        "trace_data": result.trace_data,
    }
    suffix = ".trace" if run.trace else ""
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{args.workload}{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")
    with open(args.out / f"{args.workload}{suffix}.runs.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} attempted, {failed} failed, digest {result.digest[:12]}"
    )
    for error in errors:
        print(f"  error: {error}")
    if "latency_s" in result.samples:
        latency = result.samples["latency_s"]
        print(
            f"  {latency['n']} timed operations, p90 {latency['p90'] * 1e3:.3f} ms "
            "(recorded, not a gated metric)"
        )
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, declaration) -> int:
    """Each workload in a fresh child process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in declaration["workloads"]:
        command = [
            sys.executable, __file__, "--workload", entry["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            summary["metrics"][f"{entry['name']}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    harness.pin_blas_threads()
    try:
        declaration = harness.load_declaration()
        args = _parse(argv, declaration)
        started = time.process_time()
        import workloads  # numpy and repro: this process's import cost
    except (OSError, RuntimeError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import_s = time.process_time() - started

    if args.all:
        return run_all(args, declaration)
    if args.role == "setup":
        print(json.dumps(workloads.setup_only(args.workload, args.seed, import_s)))
        return 0
    if args.role == "round":
        print(json.dumps(workloads.design_round(args.seed, bool(args.trace), import_s)))
        return 0
    return run_one(args, declaration, import_s)


if __name__ == "__main__":
    sys.exit(main())
