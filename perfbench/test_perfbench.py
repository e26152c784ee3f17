"""The benchmark's own tests: its checks catch corruption, its tail
percentile refuses thin tails, and every workload passes a tiny dry run.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import serving  # noqa: E402
import stream  # noqa: E402
from stats import TooFewSamples, samples_for_tail, tail_percentile  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _region_output(rng, anchors=5, coords=4, classes=20, h=2, w=2):
    blocks = np.empty((anchors, coords + 1 + classes, h, w))
    blocks[:, :coords + 1] = rng.uniform(0.05, 0.95, size=(anchors, coords + 1, h, w))
    logits = rng.normal(size=(anchors, classes, h, w))
    probs = np.exp(logits)
    blocks[:, coords + 1 :] = probs / probs.sum(axis=1, keepdims=True)
    return blocks.reshape(-1, h, w).astype(np.float32)


class TestChecksCatchCorruption:
    def test_bit_identical(self):
        want = np.linspace(0, 1, 50, dtype=np.float32)
        assert checks.bit_identical("x", want.copy(), want) == []
        bad = want.copy()
        bad[7] = np.nextafter(bad[7], np.float32(2))
        assert checks.bit_identical("x", bad, want)
        assert checks.bit_identical("x", want.astype(np.float64), want)
        assert checks.bit_identical("x", want[:-1], want)

    def test_region_properties(self):
        rng = np.random.default_rng(0)
        good = _region_output(rng)
        assert checks.region_properties("r", good, 5, 4, 20) == []
        for channel in (0, 1, 4):  # tx, ty, objectness of anchor 0
            bad = good.copy()
            bad[channel, 0, 0] = 1.0
            assert checks.region_properties("r", bad, 5, 4, 20)
        bad = good.copy()
        bad[5, 1, 1] += 0.01  # anchor 0's first class probability
        assert checks.region_properties("r", bad, 5, 4, 20)

    def test_counts_agree(self):
        assert checks.counts_agree("s", 10, 10) == []
        assert checks.counts_agree("s", 10, 9)

    def test_stream_output_checks(self, tmp_path):
        nets = stream._Networks("tincy-cpu", 64, str(tmp_path))
        frames = stream.make_frames(3, 64)
        vm = nets.cpu.executor()
        first = {}
        for index in stream.CHECKED_FRAMES:
            stream._consistent(first, index, vm.run(frames[index]), [])
        logs = []
        assert stream._output_checks(nets, first, frames, logs.append) == []
        first[stream.CHECKED_FRAMES[1]][0, 5, 1, 1] += np.float32(1e-3)
        failures = stream._output_checks(nets, first, frames, logs.append)
        assert any("reference walk" in f for f in failures)
        assert any("tincy-hybrid" in f for f in failures)
        assert any("region" in f for f in failures)

    def test_stream_consistency_check(self):
        out = stream.FeatureMapBatch(np.zeros((1, 2, 2, 2), dtype=np.float32))
        first, failures = {}, []
        stream._consistent(first, 0, out, failures)
        out.data[0, 0, 0, 0] = 1.0
        stream._consistent(first, 0, out, failures)
        assert failures

    def test_serve_output_checks(self):
        network = serving.builders.cnv6()
        traffic = serving.Traffic(5)
        ids = [traffic.fresh() for _ in range(3)]
        outputs = {
            i: [network.forward(serving.FeatureMap(traffic.frame(i))).data]
            for i in ids
        }
        assert serving._check_outputs(network, traffic, outputs, print) == []
        outputs[ids[2]].append(outputs[ids[2]][0] * np.float32(1.5))
        assert len(serving._check_outputs(network, traffic, outputs, print)) == 1


class TestTailPercentile:
    def test_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(TooFewSamples):
            tail_percentile(list(range(99)), 90)
        with pytest.raises(TooFewSamples):
            tail_percentile(list(range(999)), 99)

    def test_accepts_ten_beyond(self):
        assert tail_percentile(list(range(100)), 90) == 89
        assert samples_for_tail(90) == 100


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_dry_run(workload, trace):
    proc = _run(
        ROOT,
        "--workload", workload, "--seed", "7", "--seconds", "2",
        "--trace", str(trace), "--width", "64",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            BENCH_DIR, Path(bare) / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__", ".work-*"),
        )
        proc = _run(
            bare,
            "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
            "--trace", "0",
        )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
