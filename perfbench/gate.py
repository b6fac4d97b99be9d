"""Correctness checks the benchmark runs outside every timed region."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

GRAPH_ARRAYS = ("node_features", "edges", "edge_features", "frame_features")


def fingerprint(graph) -> tuple:
    """Ids plus shape, dtype and SHA-256 of each array: equal fingerprints
    mean bit-for-bit equal graphs.  Hashing reads the arrays in place, so
    taking fingerprints during the memory pass adds nothing to its peak."""
    arrays = []
    for name in GRAPH_ARRAYS:
        x = np.ascontiguousarray(getattr(graph, name))
        arrays.append((x.shape, x.dtype.str, hashlib.sha256(x).hexdigest()))
    return graph.sequence_id, graph.frame_id, tuple(arrays)


def fusion_windows(frames: list, F: int) -> list:
    """Every run of F consecutive frames of one sequence, in file order.

    The generated frames file lists each sequence's frames contiguously and
    in order, which is all this needs.
    """
    return [
        frames[i - F + 1 : i + 1]
        for i in range(F - 1, len(frames))
        if frames[i - F + 1].sequence_id == frames[i].sequence_id
    ]


def sample_indices(count: int, wanted: int) -> list:
    """``wanted`` indices spread evenly over ``range(count)``, first included."""
    if count <= wanted:
        return list(range(count))
    return sorted({i * (count - 1) // max(wanted - 1, 1) for i in range(wanted)})


def output_digests(out_dir: Path) -> dict:
    """SHA-256 of every file a pass wrote, keyed by relative path.

    Manifest lines under ``timing_`` keys are the only fields the CLI
    documents as non-reproducible, so they are left out of the hash.
    """
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"".join(
                line for line in data.splitlines(keepends=True) if not line.startswith(b"timing_")
            )
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def report_is_finite(report: str) -> bool:
    """Every number in an eval report, after its header line, is finite."""
    try:
        values = [float(f) for line in report.splitlines()[1:] for f in line.split()[1:]]
    except ValueError:
        return False
    return bool(values) and all(math.isfinite(v) for v in values)
