"""The serve workload: CNV-6 requests through ``serve.create_server``.

``serve-inproc`` uses the default ``ServeConfig`` (one process, dynamic
batcher, worker pool).  One frame in four repeats one of the previous
:data:`REPEAT_WINDOW` requests' frames.

After an untimed closed-loop warm-up, rounds of two phases share
``--seconds``: an open loop at :data:`OPEN_RATE_RPS`, each request timed
from when it was due, for latency; then a closed loop keeping
:data:`WINDOW` requests outstanding, for throughput.  All load comes from this process's main
thread plus one collector thread.  The traced run also sends the same
traffic through ``ShardTierConfig(shards=2)`` (router, pipe transport,
result cache and coalescing) for the ``shard.*`` metrics.
"""

from __future__ import annotations

import collections
import queue
import threading
import time
from typing import Dict, List

import numpy as np

from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.engine import Executor
from repro.engine.reference import legacy_forward_batch_all
from repro.serve import ServeConfig, ShardTierConfig, create_server

import builders
import checks
from stats import median, samples_for_tail, tail_percentile

#: Open-loop arrival rate: a tenth of the in-process server's capacity
#: on 2 cores, so no backlog builds.
OPEN_RATE_RPS = 20.0
#: Share of ``--seconds`` spent warming the server with closed-loop
#: traffic before anything is timed (the first seconds of a fresh server
#: run ~40% slower).
WARMUP_SHARE = 0.1
#: Open-loop requests per round (2 s at :data:`OPEN_RATE_RPS`); each
#: round then runs the closed loop for :data:`CLOSED_ROUND_S`.  Rounds
#: repeat until the time is up and the open loop has at least enough
#: requests for a p90 with ten samples beyond it.
OPEN_ROUND_REQUESTS = 40
CLOSED_ROUND_S = 1.5
#: Requests kept outstanding in the closed loop (twice the default
#: ``max_batch``, so the batcher can fill batches).
WINDOW = 16
#: Every fourth request repeats the frame of one of this many previous
#: requests, so the shard tier's result cache and coalescing see traffic.
REPEAT_WINDOW = 64
#: Share of the probe's time given to the shard tier.
SHARD_SHARE = 0.25
#: Sequential single requests of the shard probe's transport measurement.
TRANSPORT_PROBES = 40
#: Longest a single request may take before it counts as failed.
RESULT_TIMEOUT_S = 60.0


class Traffic:
    """The seeded request stream: fresh frames, every fourth a repeat.

    Frame *i* is drawn from its own generator seeded with ``(seed, i)``,
    so the checks regenerate it instead of the run keeping every frame.
    """

    shape = (3, 32, 32)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._choice_rng = np.random.default_rng([seed, 2**32])
        self.count = 0  # distinct frames made so far
        self.sent: List[int] = []  # frame id of each request

    def frame(self, frame_id: int) -> np.ndarray:
        """The pixels of frame *frame_id*, uniform in [0, 1)."""
        rng = np.random.default_rng([self.seed, frame_id])
        return rng.random(self.shape, dtype=np.float32)

    def fresh(self) -> int:
        """A new frame's id (not part of the repeat pattern)."""
        self.count += 1
        return self.count - 1

    def next(self):
        """The next request's (frame id, FeatureMap)."""
        n = len(self.sent)
        if n % 4 == 3:
            back = int(self._choice_rng.integers(1, min(n, REPEAT_WINDOW) + 1))
            frame_id = self.sent[n - back]
        else:
            frame_id = self.fresh()
        self.sent.append(frame_id)
        return frame_id, FeatureMap(self.frame(frame_id))


class _Collector(threading.Thread):
    """Timestamps completions of open-loop requests as they resolve.

    Waits on the oldest outstanding future and sweeps the rest whenever
    it wakes, so an out-of-order completion is seen within
    :data:`_SWEEP_S`.
    """

    _SWEEP_S = 0.002

    def __init__(self) -> None:
        super().__init__(name="perfbench-collector", daemon=True)
        self.inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self.done: List = []  # (request index, due, completed, output|exc)

    def run(self) -> None:
        outstanding: List = []
        closing = False
        while outstanding or not closing:
            try:
                block = not outstanding
                while True:
                    item = self.inbox.get(block=block, timeout=None)
                    block = False
                    if item is None:
                        closing = True
                    else:
                        outstanding.append(item)
            except queue.Empty:
                pass
            if not outstanding:
                continue
            try:
                outstanding[0][2].exception(self._SWEEP_S)
            except TimeoutError:
                pass
            now = time.perf_counter()
            still = []
            for index, due, future in outstanding:
                if future.done():
                    error = future.exception(0)
                    result = error if error is not None else future.result(0)
                    self.done.append((index, due, now, result))
                else:
                    still.append((index, due, future))
            outstanding = still


def probe(seed, seconds, log) -> Dict:
    """The serve layer for *seconds*: in-process server, then the shard tier."""
    traffic = Traffic(seed)
    warm_id = traffic.fresh()
    network = builders.cnv6()
    start = time.perf_counter()
    server = create_server(network, ServeConfig())
    server.start()
    start_ms = (time.perf_counter() - start) * 1e3
    outputs: Dict[int, List[np.ndarray]] = collections.defaultdict(list)
    failures: List[str] = []
    seconds_here = seconds * (1 - SHARD_SHARE)
    try:
        warm = server.infer(FeatureMap(traffic.frame(warm_id)))
        outputs[warm_id].append(np.asarray(warm.data))
        attempted, failed = 1, 0
        warm = _closed_loop(
            server, traffic, WARMUP_SHARE * seconds_here, outputs, log
        )
        attempted += warm["attempted"]
        failed += warm["failed"]
        phases = _Phases(server)
        latencies, late, submit_s = [], [], []
        need = samples_for_tail(90)
        end = time.perf_counter() + (1 - WARMUP_SHARE) * seconds_here
        while len(latencies) < need or time.perf_counter() < end:
            phases.mark()
            stats = _open_loop(server, traffic, OPEN_ROUND_REQUESTS, outputs, log)
            latencies += stats["latencies"]
            late += stats["late"]
            submit_s += stats["submit_s"]
            phases.mark("open")
            closed = _closed_loop(server, traffic, CLOSED_ROUND_S, outputs, log)
            phases.mark("closed")
            for part in (stats, closed):
                attempted += part["attempted"]
                failed += part["failed"]
        failures += checks.counts_agree(
            "serve-inproc", attempted - failed, _snapshot(server)["completed"]
        )
        log(
            f"serve open loop: {len(latencies)} requests at "
            f"{OPEN_RATE_RPS:g}/s, generator late by median "
            f"{median(late) * 1e3:.3f} ms, max {max(late) * 1e3:.3f} ms; "
            f"p50 {median(latencies) * 1e3:.2f} ms, p90 "
            f"{tail_percentile(latencies, 90) * 1e3:.2f} ms, p99 "
            f"{np.percentile(latencies, 99) * 1e3:.2f} ms"
        )
        metrics = phases.metrics()
        metrics["serve.start_ms"] = start_ms
        metrics["serve.submit_us"] = median(submit_s) * 1e6
    finally:
        server.stop()
    shard = _shard_probe(network, traffic, seconds * SHARD_SHARE, outputs, log)
    attempted += shard["attempted"]
    failed += shard["failed"]
    failures += shard["failures"]
    metrics.update(shard["metrics"])
    failures += _check_outputs(network, traffic, outputs, log)
    return {
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _shard_probe(network, traffic, seconds, outputs, log) -> Dict:
    """The same traffic through a 2-shard tier: transport, cache, coalescing."""
    server = create_server(network, ShardTierConfig(shards=2))
    server.start()
    try:
        stats = _closed_loop(server, traffic, seconds, outputs, log)
        transport = _transport(server, network, traffic, outputs, log)
        snap = server.snapshot()
    finally:
        server.stop()
    delivered = stats["attempted"] - stats["failed"] + TRANSPORT_PROBES + 2
    tier = snap["shard_tier"]
    dispatches = list(tier["dispatches"].values())
    return {
        "attempted": stats["attempted"] + TRANSPORT_PROBES + 2,
        "failed": stats["failed"],
        # Coalesced followers share their primary's single completion.
        "failures": checks.counts_agree(
            "serve-shards", delivered, snap["completed"] + tier["coalesced"]
        ),
        "metrics": {
            "shard.transport_ms": transport,
            "shard.cache_hits": tier["result_cache_hits"],
            "shard.coalesced": tier["coalesced"],
            "shard.dispatch_skew": max(dispatches)
            / (sum(dispatches) / len(dispatches)),
        },
    }


def _snapshot(server) -> Dict:
    return server.metrics.snapshot()


def _open_loop(server, traffic, count, outputs, log) -> Dict:
    """*count* requests on a fixed schedule; latency from when each was due."""
    collector = _Collector()
    collector.start()
    frame_ids, submit_s, late = [], [], []
    failed = 0
    begin = time.perf_counter() + 0.005
    for i in range(count):
        frame_id, frame = traffic.next()
        frame_ids.append(frame_id)
        due = begin + i / OPEN_RATE_RPS
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        late.append(sent - due)
        try:
            future = server.submit(frame)
        except Exception as exc:  # noqa: BLE001 — shed or refused: counted
            failed += 1
            if failed == 1:
                log(f"open loop: request {i} refused: {exc!r}")
            continue
        submit_s.append(time.perf_counter() - sent)
        collector.inbox.put((i, due, future))
    collector.inbox.put(None)
    collector.join(RESULT_TIMEOUT_S)
    if collector.is_alive():
        raise RuntimeError("open-loop requests did not complete in time")
    latencies = []
    for index, due, completed, result in collector.done:
        if isinstance(result, BaseException):
            failed += 1
            continue
        latencies.append(completed - due)
        outputs[frame_ids[index]].append(np.asarray(result.data))
    return {
        "attempted": count,
        "failed": failed,
        "latencies": latencies,
        "late": late,
        "submit_s": submit_s,
    }


def _closed_loop(server, traffic, seconds, outputs, log) -> Dict:
    """:data:`WINDOW` requests outstanding for *seconds*; completions/s."""
    window = collections.deque()
    attempted = failed = completed = 0
    start = time.perf_counter()
    end = start + seconds
    while time.perf_counter() < end or window:
        while len(window) < WINDOW and time.perf_counter() < end:
            frame_id, frame = traffic.next()
            attempted += 1
            try:
                window.append((frame_id, server.submit(frame)))
            except Exception as exc:  # noqa: BLE001 — refused: counted
                failed += 1
                if failed == 1:
                    log(f"closed loop: request refused: {exc!r}")
        if not window:
            break
        frame_id, future = window.popleft()
        try:
            out = future.result(RESULT_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 — failed request: counted
            failed += 1
            if failed == 1:
                log(f"closed loop: request failed: {exc!r}")
            continue
        completed += 1
        outputs[frame_id].append(np.asarray(out.data))
    return {
        "attempted": attempted,
        "failed": failed,
        "completed": completed,
        "elapsed": time.perf_counter() - start,
    }


class _Phases:
    """Per-phase sums of the server's metrics, from snapshot deltas.

    With no *server* (an untraced run) it takes no snapshots at all.
    """

    def __init__(self, server) -> None:
        self.server = server
        self.last = None
        self.sums = collections.defaultdict(float)

    def mark(self, phase: str = "") -> None:
        """Close *phase* (if named) at a fresh snapshot."""
        if self.server is None:
            return
        snap = _snapshot(self.server)
        figures = {
            "batches": sum(snap["batch_histogram"].values()),
            "frames": sum(
                int(size) * n for size, n in snap["batch_histogram"].items()
            ),
            "exec_ms": sum(s["total_ms"] for s in snap["plan_steps"].values()),
            "requests": snap["latency_samples"],
            # Exact: the registry keeps every sample below its 65536 cap.
            "latency_ms": snap["latency"]["mean_ms"] * snap["latency_samples"],
        }
        if phase:
            for key, value in figures.items():
                self.sums[phase, key] += value - self.last[key]
        self.last = figures

    def metrics(self) -> Dict[str, float]:
        """Open-loop queue wait; closed-loop execution and batch size."""
        sums = self.sums
        return {
            # Mean server-side latency minus the mean execution of a batch.
            "serve.queue_ms": sums["open", "latency_ms"] / sums["open", "requests"]
            - sums["open", "exec_ms"] / sums["open", "batches"],
            "serve.exec_ms": sums["closed", "exec_ms"] / sums["closed", "batches"],
            "serve.batch_mean": sums["closed", "frames"]
            / sums["closed", "batches"],
        }


def _transport(server, network, traffic, outputs, log) -> float:
    """Window-1 round trip through a shard minus in-process execution."""
    executor = Executor(network.plan())
    round_trip, local = [], []
    for probe in range(TRANSPORT_PROBES + 2):
        frame_id = traffic.fresh()
        pixels = traffic.frame(frame_id)
        start = time.perf_counter()
        out = server.infer(FeatureMap(pixels))
        elapsed = time.perf_counter() - start
        outputs[frame_id].append(np.asarray(out.data))
        batch = FeatureMapBatch(pixels[np.newaxis])
        start = time.perf_counter()
        executor.run(batch)
        if probe >= 2:  # the first calls warm the local executor
            round_trip.append(elapsed)
            local.append(time.perf_counter() - start)
    log(
        f"shard transport: round trip {median(round_trip) * 1e3:.3f} ms, "
        f"in-process execution {median(local) * 1e3:.3f} ms"
    )
    return (median(round_trip) - median(local)) * 1e3


def _check_outputs(network, traffic, outputs, log) -> List[str]:
    """Every response equals the reference walk on its frame."""
    failures: List[str] = []
    ids = sorted(outputs)
    responses = 0
    for lo in range(0, len(ids), 64):
        chunk = ids[lo : lo + 64]
        batch = FeatureMapBatch(np.stack([traffic.frame(i) for i in chunk]))
        reference = legacy_forward_batch_all(network, batch)[-1].data
        for frame_id, want in zip(chunk, reference):
            for got in outputs[frame_id]:
                responses += 1
                failures += checks.bit_identical(
                    f"frame {frame_id} response", got, want
                )
    log(
        f"checked {responses} responses on {len(ids)} distinct frames "
        f"against the reference walk: "
        f"{'ok' if not failures else f'{len(failures)} failures'}"
    )
    return failures
