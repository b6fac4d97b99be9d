"""File codecs: frames, graph records, predictions, manifests.

Text files carry round-trip-exact decimal floats (``repr``); the binary
graph records (little-endian 64-bit floats, row-major, dimension header)
are the source of truth and every reader checks the format version.  The
``.txt`` debug dump next to each record stays ``repr``-exact: it is
formatted with ``%r`` one section at a time, and every value reads back bit
for bit with ``float``.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import FormatVersionError, IdMismatch, ParseError
from .types import PointGraph, RadarFrame, Skeleton

FRAMES_HEADER = "sequence_id,frame_id,x,y,z,v,I"
SKELETON_HEADER = "sequence_id,frame_id,keypoint,x,y,z"
SCORES_HEADER_PREFIX = "sequence_id,frame_id"

GRAPH_MAGIC = b"PCGR"
GRAPH_FORMAT_VERSION = 1
# magic, version, sequence id, frame id, nodes, edges, node/edge/frame widths
_GRAPH_HEADER = struct.Struct("<4sIQQQQQQQ")
MANIFEST_FORMAT_VERSION = 1


def _f(x: float) -> str:
    return repr(float(x))


# -- frames ------------------------------------------------------------------


def write_frames(frames: Sequence[RadarFrame], path) -> None:
    lines = [FRAMES_HEADER]
    for fr in frames:
        for row in fr.points.tolist():
            lines.append(f"{fr.sequence_id},{fr.frame_id}," + ",".join(map(_f, row)))
        if len(fr) == 0:
            # empty frames are legal: marker row with no point payload
            lines.append(f"{fr.sequence_id},{fr.frame_id},,,,,")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_frames(path) -> List[RadarFrame]:
    """Parse a frames file into frames ordered as encountered."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() != FRAMES_HEADER:
        raise ParseError(1, f"expected header {FRAMES_HEADER!r}")
    by_id: Dict[Tuple[int, int], List[List[float]]] = {}
    order: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ParseError(lineno, f"expected 7 fields, got {len(parts)}")
        try:
            seq = int(parts[0])
            fid = int(parts[1])
        except ValueError:
            raise ParseError(lineno, "bad sequence or frame id") from None
        key = (seq, fid)
        if key not in by_id:
            by_id[key] = []
            order.append(key)
        if all(p == "" for p in parts[2:]):
            continue  # empty-frame marker
        try:
            vals = [float(p) for p in parts[2:]]
        except ValueError:
            raise ParseError(lineno, "bad point value") from None
        by_id[key].append(vals)
    return [
        RadarFrame(frame_id=fid, sequence_id=seq, points=by_id[(seq, fid)])
        for seq, fid in order
    ]


# -- skeletons / predictions -------------------------------------------------


def write_skeletons(
    rows: Sequence[Tuple[int, int, Skeleton]], path
) -> None:
    lines = [SKELETON_HEADER]
    for seq, fid, sk in rows:
        for k, (x, y, z) in enumerate(sk.keypoints):
            lines.append(f"{seq},{fid},{k},{_f(x)},{_f(y)},{_f(z)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_skeletons(path, mid_hip_index: int) -> Dict[Tuple[int, int], Skeleton]:
    """Skeletons by (sequence, frame) id.  Every id must list keypoint
    indices 0..M-1, each once and in any order, with one M for the whole
    file; otherwise ParseError names the id.  A NaN or infinite coordinate
    is a ParseError naming its line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() != SKELETON_HEADER:
        raise ParseError(1, f"expected header {SKELETON_HEADER!r}")
    acc: Dict[Tuple[int, int], List[Tuple[int, List[float]]]] = {}
    first_line: Dict[Tuple[int, int], int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(lineno, f"expected 6 fields, got {len(parts)}")
        try:
            seq, fid, k = int(parts[0]), int(parts[1]), int(parts[2])
            xyz = [float(p) for p in parts[3:]]
        except ValueError:
            raise ParseError(lineno, "bad skeleton value") from None
        if not all(map(math.isfinite, xyz)):
            raise ParseError(lineno, "non-finite skeleton value")
        acc.setdefault((seq, fid), []).append((k, xyz))
        first_line.setdefault((seq, fid), lineno)
    out: Dict[Tuple[int, int], Skeleton] = {}
    num_keypoints = None
    for key, rows in acc.items():
        rows.sort(key=lambda row: row[0])
        m = len(rows)
        name = f"sequence {key[0]} frame {key[1]}"
        if [k for k, _ in rows] != list(range(m)):
            raise ParseError(first_line[key], f"{name}: keypoint indices are not 0..{m - 1}, each once")
        if num_keypoints is None:
            num_keypoints = m
        elif m != num_keypoints:
            raise ParseError(first_line[key], f"{name}: {m} keypoints, expected {num_keypoints}")
        out[key] = Skeleton(np.array([xyz for _, xyz in rows]), mid_hip_index)
    return out


def write_scores(rows: Sequence[Tuple[int, int, np.ndarray]], path) -> None:
    if not rows:
        Path(path).write_text(SCORES_HEADER_PREFIX + "\n", encoding="utf-8")
        return
    width = len(rows[0][2])
    header = SCORES_HEADER_PREFIX + "," + ",".join(f"score_{i}" for i in range(width))
    lines = [header]
    for seq, fid, scores in rows:
        lines.append(f"{seq},{fid}," + ",".join(_f(s) for s in scores))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_scores(path) -> Dict[Tuple[int, int], np.ndarray]:
    """Score vectors by (sequence, frame) id; every row must have as many
    fields as the header, all of them finite."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(SCORES_HEADER_PREFIX):
        raise ParseError(1, "expected a scores header")
    width = len(lines[0].split(","))
    out: Dict[Tuple[int, int], np.ndarray] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(lineno, f"expected {width} fields, got {len(parts)}")
        try:
            seq, fid = int(parts[0]), int(parts[1])
            vals = np.array([float(p) for p in parts[2:]])
        except ValueError:
            raise ParseError(lineno, "bad score value") from None
        if not np.isfinite(vals).all():
            raise ParseError(lineno, "non-finite score value")
        out[(seq, fid)] = vals
    return out


def read_labels(path) -> Dict[Tuple[int, int], int]:
    """Ground-truth activity labels: sequence_id,frame_id,class_index rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "sequence_id,frame_id,class_index":
        raise ParseError(1, "expected header 'sequence_id,frame_id,class_index'")
    out: Dict[Tuple[int, int], int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 3 fields, got {len(parts)}")
        try:
            out[(int(parts[0]), int(parts[1]))] = int(parts[2])
        except ValueError:
            raise ParseError(lineno, "bad label value") from None
    return out


def write_labels(rows: Sequence[Tuple[int, int, int]], path) -> None:
    lines = ["sequence_id,frame_id,class_index"]
    lines += [f"{s},{f},{c}" for s, f, c in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- graph records -----------------------------------------------------------


def graph_record_name(graph: PointGraph) -> str:
    return f"graph_{graph.sequence_id:05d}_{graph.frame_id:06d}.bin"


def write_graph_record(graph: PointGraph, path) -> None:
    """Binary layout: magic, version, ids, dimension header, then node
    matrix, edge pairs (u32), edge matrix, frame vector, all little-endian."""
    with open(path, "wb") as fh:
        fh.write(
            _GRAPH_HEADER.pack(
                GRAPH_MAGIC,
                GRAPH_FORMAT_VERSION,
                graph.sequence_id,
                graph.frame_id,
                graph.num_nodes,
                graph.num_edges,
                graph.node_features.shape[1],
                graph.edge_features.shape[1],
                graph.frame_features.shape[0],
            )
        )
        fh.write(graph.node_features.astype("<f8").tobytes(order="C"))
        fh.write(graph.edges.astype("<u4").tobytes(order="C"))
        fh.write(graph.edge_features.astype("<f8").tobytes(order="C"))
        fh.write(graph.frame_features.astype("<f8").tobytes(order="C"))


def read_graph_record(path) -> PointGraph:
    """Read one record.  The file must hold exactly the bytes its header
    implies, every feature value must be finite, and every edge must join
    two distinct nodes of the graph; otherwise FormatVersionError names the
    file."""
    with open(path, "rb") as fh:
        header = fh.read(_GRAPH_HEADER.size)
        if header[:4] != GRAPH_MAGIC:
            raise FormatVersionError(f"{path}: not a graph record")
        if len(header) != _GRAPH_HEADER.size:
            raise FormatVersionError(f"{path}: truncated header ({len(header)} bytes)")
        _, version, seq, fid, n, e, dn, de, df = _GRAPH_HEADER.unpack(header)
        if version != GRAPH_FORMAT_VERSION:
            raise FormatVersionError(f"{path}: unsupported graph version {version}")
        expected = _GRAPH_HEADER.size + 8 * (n * dn + e + e * de + df)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise FormatVersionError(f"{path}: {size} bytes, but its header implies {expected}")
        nodes = np.frombuffer(fh.read(8 * n * dn), dtype="<f8").reshape(n, dn)
        edges = np.frombuffer(fh.read(4 * e * 2), dtype="<u4").reshape(e, 2).astype(np.int64)
        efeat = np.frombuffer(fh.read(8 * e * de), dtype="<f8").reshape(e, de)
        ffeat = np.frombuffer(fh.read(8 * df), dtype="<f8")
    for section, values in (("node", nodes), ("edge", efeat), ("frame", ffeat)):
        if not np.isfinite(values).all():
            raise FormatVersionError(f"{path}: non-finite value in the {section} features")
    try:
        return PointGraph(
            sequence_id=seq,
            frame_id=fid,
            node_features=nodes.astype(np.float64),
            edges=edges,
            edge_features=efeat.astype(np.float64),
            frame_features=ffeat.astype(np.float64),
        )
    except ValueError as err:
        raise FormatVersionError(f"{path}: {err}") from None


def _write_rows(fh, matrix: np.ndarray, spec: str) -> None:
    """One ``"  v v ...\n"`` line per row of a 2-D array, each value
    formatted by ``spec``: one ``%`` call over the whole matrix."""
    row = "  " + " ".join([spec] * matrix.shape[1]) + "\n"
    fh.write((row * matrix.shape[0]) % tuple(matrix.ravel().tolist()))


def write_graph_debug_dump(graph: PointGraph, path) -> None:
    """Human-readable equivalent of the binary record, ``repr``-exact.

    Each section is one ``%`` call and one write, so no string of the whole
    file is built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"sequence_id = {graph.sequence_id}\n")
        fh.write(f"frame_id = {graph.frame_id}\n")
        fh.write(f"nodes = {graph.num_nodes}\n")
        fh.write(f"edges = {graph.num_edges}\n")
        fh.write("node_features:\n")
        _write_rows(fh, graph.node_features, "%r")
        fh.write("edge_list:\n")
        _write_rows(fh, graph.edges, "%d")
        fh.write("edge_features:\n")
        _write_rows(fh, graph.edge_features, "%r")
        fh.write("frame_features:\n")
        _write_rows(fh, graph.frame_features[None, :], "%r")


# -- manifest ----------------------------------------------------------------


def write_manifest(entries: dict, path) -> None:
    """Key-value manifest; timing keys carry a ``timing_`` prefix so
    determinism comparisons can exclude them."""
    lines = [f"format_version = {MANIFEST_FORMAT_VERSION}"]
    for key, value in entries.items():
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(lineno, "expected 'key = value'")
        key, value = (p.strip() for p in line.split("=", 1))
        out[key] = value
    if int(out.get("format_version", "-1")) != MANIFEST_FORMAT_VERSION:
        raise FormatVersionError(f"{path}: unsupported manifest version")
    return out
