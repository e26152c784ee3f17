"""The benchmark's one command: run a workload, check it, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tincy-cpu --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  ``--workload all`` runs every workload in its own
process.  Lines starting with ``#`` are diagnostics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("tincy-cpu", "tincy-hybrid")


def log(message: str) -> None:
    """A diagnostic line (never the last line of the output)."""
    print(f"# {message}", flush=True)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--width",
        type=int,
        default=416,
        help="Tincy input width and height (a multiple of 32; tests use 64)",
    )
    return parser.parse_args(argv)


def _declared(trace: int):
    """(name, unit) of every metric this run must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def _result_line(result, declared, trace: int) -> dict:
    """The contract's JSON object; refuses undeclared or missing metrics."""
    measured = dict(result["metrics"])
    names = {name for name, _unit in declared}
    extra = sorted(set(measured) - names)
    if extra:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {extra}")
    metrics = {}
    for name, unit in declared:
        # Per-layer metrics of a layer the workload never runs read 0;
        # every end-to-end metric must have been measured.
        if name not in measured and trace:
            measured[name] = 0.0
        metrics[name] = {"value": float(measured[name]), "unit": unit}
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def _run_all(args) -> int:
    """Every workload in its own process; one summary line each."""
    status, summary = 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve())]
        cmd += ["--workload", workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--width", str(args.width)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            log(f"{workload}: exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[workload] = result
        log(
            f"{workload}: correct={result['correct']} attempted="
            f"{result['attempted']} failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            log(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        sys.stderr.write(
            f"perfbench: no program to measure: {ROOT} needs src/repro and "
            f"BENCHMARK.json\n"
        )
        return 2
    if args.workload == "all":
        return _run_all(args)
    declared = _declared(args.trace)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        import stream

        result = stream.run(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            args.width,
            T0,
            workdir,
            log,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in result["failures"]:
        log(f"check failed: {failure}")
    print(json.dumps(_result_line(result, declared, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
