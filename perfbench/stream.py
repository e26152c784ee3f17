"""Stream workloads: Tincy YOLO frames through the ``-O2`` PlanVM program.

``tincy-cpu`` runs the all-CPU network; ``tincy-hybrid`` runs the paper's
configuration, with the W1A3 hidden layers behind one ``[offload]`` on
the FINN backend.  The untraced run measures the end-to-end metrics: a
closed loop of batch-1 frames (one in flight) for latency, interleaved
with batches of :data:`THROUGHPUT_BATCH` frames for throughput.  The traced run times
every instruction through ``PlanVM``'s ``on_step`` hook, every fabric
stage by wrapping its ``forward_batch``, and the compiler's steps one by
one; the traced ``tincy-cpu`` run also runs the serve probe.
"""

from __future__ import annotations

import contextlib
import resource
import tempfile
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

from repro.core.tensor import FeatureMapBatch
from repro.engine.reference import legacy_forward_batch_all
from repro.isa import PlanVM, compile_network, weights_digest

import builders
import checks
import serving
from stats import median, samples_for_tail, tail_percentile

#: Distinct frames cycled through by a run (all made from ``--seed``).
POOL_FRAMES = 16
#: Frames per call in the throughput phase.
THROUGHPUT_BATCH = 4
#: Batch-1 frames per round; each round ends with one batched call,
#: so about 60% of the time goes to batch-1 latency.
ROUND_FRAMES = 8
#: Untimed calls before the timed phases: the first calls after the
#: cold frame still grow the arena and run slower.
WARMUP_CALLS = 3
#: Pool frames whose outputs are compared with the reference walk and
#: with the other Tincy network.
CHECKED_FRAMES = (0, 7, 13)
#: The traced run's share of ``--seconds`` spent on the ``-O0`` program.
O0_SHARE = 0.15
#: The traced ``tincy-cpu`` run's share of ``--seconds`` given to the
#: serve probe (:func:`serving.probe`).
SERVE_SHARE = 0.4


def make_frames(seed: int, width: int) -> List[FeatureMapBatch]:
    """The run's pool of batch-1 frames, uniform pixels in [0, 1)."""
    rng = np.random.default_rng(seed)
    return [
        FeatureMapBatch(
            rng.random((1, 3, width, width), dtype=np.float32)
        )
        for _ in range(POOL_FRAMES)
    ]


def _stack(frames: List[FeatureMapBatch]) -> FeatureMapBatch:
    return FeatureMapBatch(np.concatenate([f.data for f in frames]))


class _Networks:
    """Both Tincy networks of a run; the one not under test is built lazily."""

    def __init__(self, kind: str, width: int, workdir: str) -> None:
        self.kind = kind
        self.workdir = workdir
        self.cpu = builders.tincy_cpu(width)
        self._hybrid = None

    @property
    def hybrid(self):
        if self._hybrid is None:
            bundle = tempfile.mkdtemp(prefix="binparam-", dir=self.workdir)
            self._hybrid = builders.tincy_hybrid(self.cpu, bundle)
        return self._hybrid

    @property
    def under_test(self):
        return self.hybrid if self.kind == "tincy-hybrid" else self.cpu

    @property
    def other(self):
        return self.cpu if self.kind == "tincy-hybrid" else self.hybrid


class _Counter:
    """Operations attempted and failed; a failure keeps the run going."""

    def __init__(self, log) -> None:
        self.attempted = 0
        self.failed = 0
        self.log = log

    def run(self, vm, x):
        self.attempted += x.batch
        try:
            return vm.run(x)
        except Exception as exc:  # noqa: BLE001 — counted, the run goes on
            self.failed += x.batch
            if self.failed == 1:
                self.log(f"operation failed: {exc!r}")
            return None


def _consistent(first: Dict[int, np.ndarray], index: int, out, failures):
    """Every output of a pool frame equals the first one (batching too)."""
    if out is None:
        return
    data = np.asarray(out.data[:1])
    if index not in first:
        first[index] = data.copy()
    elif data.tobytes() != first[index].tobytes():
        failures.append(f"pool frame {index}: output changed between calls")


def _output_checks(nets: _Networks, first, frames, log) -> List[str]:
    """Reference walk, cross-network and region checks on sampled frames."""
    failures: List[str] = []
    network = nets.under_test
    region = network.layers[-1]
    for index in CHECKED_FRAMES:
        if index not in first:
            failures.append(f"pool frame {index}: no output to check")
            continue
        got = first[index]
        x = frames[index]
        failures += checks.bit_identical(
            f"frame {index} vs reference walk",
            got,
            legacy_forward_batch_all(network, x)[-1].data,
        )
        other = "tincy-cpu" if nets.kind == "tincy-hybrid" else "tincy-hybrid"
        failures += checks.bit_identical(
            f"frame {index} vs {other}", got, nets.other.forward_batch(x).data
        )
    for index, data in sorted(first.items()):
        failures += checks.region_properties(
            f"frame {index} region",
            data[0],
            region.num,
            region.coords,
            region.classes,
        )
    log(
        f"checked {len(CHECKED_FRAMES)} frames against the reference walk "
        f"and the other network, {len(first)} region outputs: "
        f"{'ok' if not failures else f'{len(failures)} failures'}"
    )
    return failures


def run(kind, seed, seconds, trace, width, t0, workdir, log) -> Dict:
    """Run one stream workload; returns the benchmark's result fields."""
    frames = make_frames(seed, width)
    nets = _Networks(kind, width, workdir)
    network = nets.under_test
    program, _stats = compile_network(network, name=kind, level=2)
    vm = PlanVM(program, network)
    counter = _Counter(log)
    first: Dict[int, np.ndarray] = {}
    _consistent(first, 0, counter.run(vm, frames[0]), [])
    setup_s = time.perf_counter() - t0
    failures: List[str] = []
    if trace:
        serve_s = SERVE_SHARE * seconds if kind == "tincy-cpu" else 0.0
        metrics = _traced(
            nets, vm, frames, seconds - serve_s, counter, first, failures, log
        )
        if serve_s:
            served = serving.probe(seed, serve_s, log)
            counter.attempted += served["attempted"]
            counter.failed += served["failed"]
            failures += served["failures"]
            metrics.update(served["metrics"])
    else:
        metrics = _untraced(
            vm, network, frames, seconds, counter, first, failures, log
        )
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    failures += _output_checks(nets, first, frames, log)
    return {
        "correct": not failures,
        "failures": failures,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": metrics,
    }


def _untraced(vm, network, frames, seconds, counter, first, failures, log) -> Dict:
    """Rounds of batch-1 frames and batched calls, for ``seconds``.

    Interleaving the two phases lets both metrics sample the whole run,
    so a slow spell on the host weighs on both alike.  The batched calls
    run on a second VM bound to the same program: each VM keeps its own
    arena, so neither phase inherits buffers sized for the other.
    """
    batch_vm = PlanVM(vm.program, network)
    batches = [
        _stack(frames[k : k + THROUGHPUT_BATCH])
        for k in range(0, POOL_FRAMES, THROUGHPUT_BATCH)
    ]
    for k in range(WARMUP_CALLS):
        counter.run(batch_vm, batches[k % len(batches)])
        _consistent(first, k, counter.run(vm, frames[k]), failures)
    latencies: List[float] = []
    batch_times: List[float] = []
    need = samples_for_tail(90)
    end = time.perf_counter() + seconds
    while len(latencies) < need or time.perf_counter() < end:
        for _ in range(ROUND_FRAMES):
            index = len(latencies) % POOL_FRAMES
            start = time.perf_counter()
            out = counter.run(vm, frames[index])
            latencies.append(time.perf_counter() - start)
            _consistent(first, index, out, failures)
        k = len(batch_times) % len(batches)
        start = time.perf_counter()
        out = counter.run(batch_vm, batches[k])
        batch_times.append(time.perf_counter() - start)
        if out is not None:
            for f in range(THROUGHPUT_BATCH):
                _consistent(
                    first,
                    k * THROUGHPUT_BATCH + f,
                    FeatureMapBatch(out.data[f : f + 1], out.scale),
                    failures,
                )
    log(
        f"latency over {len(latencies)} frames: p90 "
        f"{tail_percentile(latencies, 90) * 1e3:.2f} ms, p99 "
        f"{np.percentile(latencies, 99) * 1e3:.2f} ms; "
        f"{len(batch_times)} batched calls"
    )
    return {
        "latency_ms_p50": median(latencies) * 1e3,
        "throughput_fps": THROUGHPUT_BATCH / median(batch_times),
    }


@contextlib.contextmanager
def _timed_stages(accelerator, per_stage: List[List[float]]):
    """Time each fabric stage's ``forward_batch`` from the caller's side."""
    stages = accelerator.stages

    def wrap(index, call):
        def timed(fmb):
            start = time.perf_counter()
            out = call(fmb)
            per_stage[index].append(time.perf_counter() - start)
            return out

        return timed

    for index, stage in enumerate(stages):
        stage.forward_batch = wrap(index, stage.forward_batch)
    try:
        yield
    finally:
        for stage in stages:
            del stage.forward_batch


def _traced(nets, vm, frames, seconds, counter, first, failures, log) -> Dict:
    """Per-instruction, per-stage and compiler timings (tracing on)."""
    network = nets.under_test
    metrics: Dict[str, float] = {}
    start = time.perf_counter()
    weights_digest(network)
    metrics["isa.weights_digest_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    program, _stats = compile_network(network, name=nets.kind, level=2)
    metrics["isa.compile_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    PlanVM(program, network)
    metrics["isa.bind_ms"] = (time.perf_counter() - start) * 1e3
    metrics["isa.compute_instructions"] = sum(
        1 for instr in program.instructions if instr.is_compute
    )
    # The tincy-cpu layer index each instruction ends at: the hybrid
    # network's layers map onto the all-CPU network's indices.
    if nets.kind == "tincy-hybrid":
        layer_of = dict(enumerate(builders.HYBRID_TO_TINCY_LAYER))
    else:
        layer_of = {i: i for i in range(len(network.layers))}

    # The -O0 program: what the passes buy, and the unfused kernels.
    program0, _ = compile_network(network, name=nets.kind, level=0)
    maxpool_s: List[float] = []
    steps0: List = []
    vm0 = PlanVM(program0, network, on_step=steps0.append)
    o0_times: List[float] = []
    end = time.perf_counter() + O0_SHARE * seconds
    i = 0
    while len(o0_times) < 5 or time.perf_counter() < end:
        steps0.clear()
        index = i % POOL_FRAMES
        start = time.perf_counter()
        out = counter.run(vm0, frames[index])
        o0_times.append(time.perf_counter() - start)
        _consistent(first, index, out, failures)
        maxpool_s.append(sum(s.wall_s for s in steps0 if s.ltype == "maxpool"))
        i += 1
    metrics["isa.o0_frame_ms"] = median(o0_times) * 1e3
    metrics["core.maxpool_ms"] = median(maxpool_s) * 1e3

    # -O2, alternating untraced and traced frames.
    steps: List = []
    per_stage: List[List[float]] = []
    accelerator = None
    if nets.kind == "tincy-hybrid":
        accelerator = network.layers[1].backend.accelerator
        per_stage = [[] for _ in accelerator.stages]
    untraced, traced, overhead, glue = [], [], [], []
    per_layer = defaultdict(list)
    per_kind = defaultdict(list)
    end = time.perf_counter() + (1 - O0_SHARE) * seconds
    i = 0
    while len(traced) < 10 or time.perf_counter() < end:
        index = i % POOL_FRAMES
        vm.on_step = None
        start = time.perf_counter()
        out = counter.run(vm, frames[index])
        untraced.append(time.perf_counter() - start)
        _consistent(first, index, out, failures)
        steps.clear()
        vm.on_step = steps.append
        tracing = (
            _timed_stages(accelerator, per_stage)
            if accelerator is not None
            else contextlib.nullcontext()
        )
        with tracing:
            start = time.perf_counter()
            out = counter.run(vm, frames[index])
            wall = time.perf_counter() - start
        vm.on_step = None
        _consistent(first, index, out, failures)
        traced.append(wall)
        overhead.append(wall - sum(s.wall_s for s in steps))
        kinds = defaultdict(float)
        for step in steps:
            per_layer[layer_of[step.index]].append(step.wall_s)
            if step.ltype.startswith("convolutional"):
                kinds["conv"] += step.wall_s
            elif step.ltype in ("region", "offload"):
                kinds[step.ltype] += step.wall_s
        for kind in ("conv", "region", "offload"):
            per_kind[kind].append(kinds[kind])
        if accelerator is not None:
            stage_sum = sum(times[-1] for times in per_stage)
            glue.append(kinds["offload"] - stage_sum)
        i += 1
    for layer, times in sorted(per_layer.items()):
        metrics[f"vm.layer{layer:02d}_ms"] = median(times) * 1e3
    metrics["core.conv_ms"] = median(per_kind["conv"]) * 1e3
    metrics["core.region_ms"] = median(per_kind["region"]) * 1e3
    metrics["finn.offload_ms"] = median(per_kind["offload"]) * 1e3
    metrics["isa.vm_overhead_ms"] = median(overhead) * 1e3
    metrics["trace.overhead_ms"] = (median(traced) - median(untraced)) * 1e3
    report = vm.last_report
    metrics["isa.peak_live_mb"] = report.peak_live_bytes / 2**20
    arena = report.arena
    metrics["engine.arena_hit_ratio"] = arena["hits"] / (
        arena["hits"] + arena["misses"]
    )
    log(
        f"reconcile instructions: PlanVM.run {median(traced) * 1e3:.2f} ms = "
        f"instructions + leftover; leftover median "
        f"{median(overhead) * 1e3:.3f} ms, min {min(overhead) * 1e3:.3f} ms "
        f"over {len(traced)} frames"
    )
    if min(overhead) < 0:
        failures.append("instruction times exceed the PlanVM.run time")
    log(
        f"tracing overhead: traced {median(traced) * 1e3:.2f} ms vs untraced "
        f"{median(untraced) * 1e3:.2f} ms per frame"
    )
    if accelerator is not None:
        for k, (stage, times) in enumerate(zip(accelerator.stages, per_stage)):
            metrics[f"finn.stage{k}_ms"] = median(times) * 1e3
            metrics[f"finn.stage{k}_sim_ms"] = (
                stage.cycles() / accelerator.fmax_hz * 1e3
            )
        metrics["finn.glue_ms"] = median(glue) * 1e3
        log(
            f"reconcile stages: offload {metrics['finn.offload_ms']:.2f} ms = "
            f"stages + glue; glue median {median(glue) * 1e3:.3f} ms, min "
            f"{min(glue) * 1e3:.3f} ms over {len(glue)} frames"
        )
        if min(glue) < 0:
            failures.append("fabric stage times exceed the offload time")
    return metrics

