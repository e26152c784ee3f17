"""Network construction for the benchmark, through the public ``nn``/``finn`` API.

Weights come from one fixed seed so that every run, whatever its
``--seed``, serves the same model; only the frames depend on ``--seed``.
The hybrid Tincy network is built the way the paper ships it: the first
and last convolutions on the CPU, the W1A3 hidden layers exported by
``finn.offload_backend.export_offload`` behind one ``[offload]`` layer.
"""

from __future__ import annotations

import numpy as np

import repro.finn  # noqa: F401  (registers fabric.so for [offload] sections)
from repro.finn.offload_backend import export_offload
from repro.nn.config import NetworkConfig, Section
from repro.nn.network import Network
from repro.nn.zoo import cnv6_config, tincy_yolo_config

#: Seed of every benchmark network's weights (independent of ``--seed``).
WEIGHT_SEED = 20180621

#: Index, in the all-CPU Tincy network, of the last layer each hybrid
#: layer covers: conv 0, the offload (hidden layers 1..12), conv 13, region.
HYBRID_TO_TINCY_LAYER = (0, 12, 13, 14)


def tincy_cpu(width: int = 416) -> Network:
    """All-CPU Tincy YOLO with seeded weights and non-trivial batch norm.

    *width* scales the square input (416 is the paper's size; the
    benchmark's dry-run tests use a small multiple of 32).
    """
    config = tincy_yolo_config()
    if width != 416:
        net = config.sections[0]
        net.options["width"] = str(width)
        net.options["height"] = str(width)
    rng = np.random.default_rng(WEIGHT_SEED)
    network = Network(config)
    network.initialize(rng)
    for layer in network.layers:
        if layer.ltype != "convolutional":
            continue
        n = layer.filters
        layer.biases = (rng.normal(size=n) * 0.1).astype(np.float32)
        if layer.batch_normalize:
            layer.scales = rng.uniform(0.5, 1.5, size=n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 0.2).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 1.5, size=n).astype(np.float32)
    return network


def tincy_hybrid(cpu: Network, bundle_dir: str) -> Network:
    """The paper's configuration of *cpu*'s weights: hidden layers offloaded.

    Exports the offload bundle into *bundle_dir* and copies the first and
    last convolutions' parameters, so the two networks compute the same
    function on two independent implementations of the W1A3 layers.
    """
    first, head = cpu.layers[0], cpu.layers[-2]
    export_offload(
        cpu.layers[1:-2],
        input_scale=first.out_quant.scale,
        input_shape=first.out_shape,
        directory=bundle_dir,
    )
    _, out_h, out_w = cpu.layers[-3].out_shape
    offload = Section(
        "offload",
        {
            "library": "fabric.so",
            "network": "tincy-yolo-offload.json",
            "weights": bundle_dir,
            "height": str(out_h),
            "width": str(out_w),
            "channel": str(cpu.layers[-3].out_shape[0]),
        },
    )
    sections = [cpu.config.sections[0], cpu.config.layers[0], offload]
    sections.extend(cpu.config.layers[-2:])
    hybrid = Network(NetworkConfig(sections))
    for src, dst in ((first, hybrid.layers[0]), (head, hybrid.layers[2])):
        dst.weights = src.weights.copy()
        dst.biases = src.biases.copy()
        if src.batch_normalize:
            dst.scales = src.scales.copy()
            dst.rolling_mean = src.rolling_mean.copy()
            dst.rolling_var = src.rolling_var.copy()
    hybrid.layers[1].backend.load_weights()
    return hybrid


def cnv6() -> Network:
    """CNV-6 (3x32x32), the serving workloads' model."""
    network = Network(cnv6_config())
    network.initialize(np.random.default_rng(WEIGHT_SEED))
    return network
