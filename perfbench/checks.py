"""Output checks, run off the clock.  Each returns a list of failures.

An empty list means the check passed; every entry names what differed,
so the benchmark can print it and report ``correct: false``.
"""

from __future__ import annotations

from typing import List

import numpy as np


def bit_identical(label: str, got: np.ndarray, want: np.ndarray) -> List[str]:
    """*got* equals *want* bit for bit (same dtype, shape and bytes)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return [
            f"{label}: {got.dtype}{got.shape} vs reference "
            f"{want.dtype}{want.shape}"
        ]
    if got.tobytes() != want.tobytes():
        differ = int(np.count_nonzero(got != want))
        return [f"{label}: {differ} of {got.size} values differ"]
    return []


def region_properties(
    label: str, out: np.ndarray, anchors: int, coords: int, classes: int
) -> List[str]:
    """A ``[region]`` output's per-anchor, per-cell invariants.

    tx, ty and objectness are logistic outputs in (0, 1); the class
    probabilities are a softmax and sum to 1 (to float32 rounding).
    """
    out = np.asarray(out, dtype=np.float64)
    c, h, w = out.shape
    blocks = out.reshape(anchors, coords + 1 + classes, h, w)
    failures = []
    for index, name in ((0, "tx"), (1, "ty"), (coords, "objectness")):
        values = blocks[:, index]
        if not (np.all(values > 0.0) and np.all(values < 1.0)):
            failures.append(f"{label}: {name} outside (0, 1)")
    sums = blocks[:, coords + 1 :].sum(axis=1)
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > classes * np.finfo(np.float32).eps:
        failures.append(
            f"{label}: class probabilities sum to 1 +- {worst:.3g}"
        )
    return failures


def counts_agree(label: str, delivered: int, completed: int) -> List[str]:
    """The client's delivered results equal the server's completion count."""
    if delivered != completed:
        return [
            f"{label}: client received {delivered} results, server counts "
            f"{completed} completions"
        ]
    return []

