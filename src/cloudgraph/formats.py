"""File codecs: frames, graph records, predictions, manifests.

Text inputs follow two grammars, each read in one place.  Comma-separated
files (frames, skeletons, scores, labels) go through ``_CsvRows``: ASCII
lines that end at ``\n``, a stripped header, then each non-blank stripped
row with the header's field count, a (sequence, frame) id of an optional
``+`` and digits below 2^64, and finite reals; no number holds a ``_``.
numpy's C reader, which parses the frames file in chunks, accepts
exactly this grammar.  Configs and manifests go through ``key_values``:
UTF-8 ``key = value`` lines, ``#`` starting a comment.  Every malformed
line is a ParseError naming the file and the line.

Text files carry round-trip-exact decimal floats (``repr``); the binary
graph records (little-endian 64-bit floats, row-major, dimension header)
are the source of truth and every reader checks the format version.  The
debug dump of a record (``cloudgraph show``) is ``repr``-exact: it is
formatted with ``%r`` one section at a time, and every value reads back bit
for bit with ``float``.
"""

from __future__ import annotations

import math
import os
import struct
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import FormatVersionError, NumericOverflow, ParseError, ShapeMismatch
from .types import PointGraph, RadarFrame

FRAMES_HEADER = "sequence_id,frame_id,x,y,z,v,I"
SKELETON_HEADER = "sequence_id,frame_id,keypoint,x,y,z"
SCORES_HEADER_PREFIX = "sequence_id,frame_id"
LABELS_HEADER = "sequence_id,frame_id,class_index"

GRAPH_MAGIC = b"PCGR"
GRAPH_FORMAT_VERSION = 2
# magic, version, sequence id, frame id, nodes, k, node/edge/frame widths
_GRAPH_HEADER = struct.Struct("<4sIQQQQQQQ")
_ID_LIMIT = 1 << 64  # sequence and frame ids are u8 in the record header
_CHUNK_LINES = 1024  # frames lines parsed per np.loadtxt call
# one frames row as np.loadtxt parses it: the two ids, then x, y, z, v, I
_FRAME_ROW = np.dtype([("sequence", "<u8"), ("frame", "<u8"), ("values", "<f8", 5)])
MANIFEST_FORMAT_VERSION = 1


def read_text(path) -> str:
    """The text of a UTF-8 file.  Bytes that are not UTF-8 are a ParseError
    naming the file and the line, numbered as ``splitlines`` splits, of the
    first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len((data[: err.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"not UTF-8 (byte {data[err.start]:#04x})", path) from None


class _CsvRows:
    """The rows of a comma-separated file whose stripped first line is
    ``header``, or with ``open_ended`` begins with its fields and may add
    more.  Iterating yields each non-blank data row, stripped and split, as
    its (sequence, frame) id and its other fields, with ``lineno`` set to
    the row's line.

    This is the one CSV grammar, which numpy's reader in ``read_frames``
    accepts alike: a line ends at ``\n``, is ASCII and holds no CR inside
    it; a row has the header's field count; an id is an optional ``+`` and
    digits, below 2^64; a number holds no ``_``; whitespace may pad any
    field.  Fields are stripped with ``str.strip`` before ``int`` and
    ``float`` read them, because those two, unlike numpy, refuse padding
    of ``\x1c``-``\x1f``.  A header of the two ids alone suits only a file
    with no rows."""

    def __init__(self, path, header: str, open_ended: bool = False):
        self.path, self.lineno = path, 1
        with open(path, "rb") as fh:
            names = self.text(fh.readline())
        if not (names == header or open_ended and names.startswith(header + ",")):
            expected = header + ",..." if open_ended else header
            raise self.error(f"expected header {expected!r}")
        self.width = names.count(",") + 1

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], List[str]]]:
        with open(self.path, "rb") as fh:
            fh.readline()
            for self.lineno, raw in enumerate(fh, start=2):
                line = self.text(raw)
                if not line:
                    continue
                if self.width == 2:
                    raise ParseError(1, "the header names no value column", self.path)
                if "\r" in line:
                    raise self.error("carriage return inside the line")
                if "_" in line:  # Python's int and float read "1_0", numpy does not
                    raise self.error("'_' in a number")
                fields = line.split(",")
                if len(fields) != self.width:
                    raise self.error(f"expected {self.width} fields, got {len(fields)}")
                try:
                    seq, fid = int(fields[0].strip()), int(fields[1].strip())
                except ValueError:
                    raise self.error("bad sequence or frame id") from None
                if not (0 <= seq < _ID_LIMIT and 0 <= fid < _ID_LIMIT):
                    raise self.error("sequence or frame id outside [0, 2^64)")
                if "-" in fields[0] or "-" in fields[1]:  # "-0", which numpy refuses
                    raise self.error("bad sequence or frame id")
                yield (seq, fid), fields[2:]

    def text(self, raw: bytes) -> str:
        """One line of the file, stripped; a byte that is not ASCII is a
        ParseError."""
        try:
            return raw.decode("ascii").strip()
        except UnicodeDecodeError as err:
            raise self.error(f"not ASCII (byte {raw[err.start]:#04x})") from None

    def error(self, message: str) -> ParseError:
        return ParseError(self.lineno, message, self.path)

    def integer(self, text: str, kind: str) -> int:
        try:
            return int(text.strip())
        except ValueError:
            raise self.error(f"bad {kind} value") from None

    def reals(self, fields: List[str], kind: str, key: Tuple[int, int]) -> List[float]:
        try:
            values = list(map(float, map(str.strip, fields)))
        except ValueError:
            raise self.error(f"bad {kind} value") from None
        if not all(map(math.isfinite, values)):
            raise self.error(f"non-finite {kind} value in sequence {key[0]} frame {key[1]}")
        return values

    def unique(self, key: Tuple[int, int], seen) -> Tuple[int, int]:
        """``key``, which must not be in ``seen``."""
        if key in seen:
            raise self.error(f"sequence {key[0]} frame {key[1]} repeats an earlier row")
        return key


# -- frames ------------------------------------------------------------------


def write_frames(frames: Sequence[RadarFrame], path) -> None:
    lines = [FRAMES_HEADER]
    for fr in frames:
        for row in fr.points.tolist():
            lines.append(f"{fr.sequence_id},{fr.frame_id}," + ",".join(map(repr, row)))
        if len(fr) == 0:
            # empty frames are legal: marker row with no point payload
            lines.append(f"{fr.sequence_id},{fr.frame_id},,,,,")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_frames(path) -> List[RadarFrame]:
    """Parse a frames file into frames in the order their ids first occur.

    The body is read ``_CHUNK_LINES`` lines at a time, and numpy's C reader
    parses each chunk's stripped non-blank rows, so only one chunk's text is
    held at once.  Rows of one id need not be contiguous.  A row whose five
    values are all empty marks an empty frame.  A malformed line, or a NaN
    or infinite point value, is a ParseError naming the first such line."""
    table = _CsvRows(path, FRAMES_HEADER)
    blocks: Dict[Tuple[int, int], List[np.ndarray]] = {}  # by first occurrence
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            fh.readline()
            while lines := list(islice(fh, _CHUNK_LINES)):
                if not "".join(lines).isascii():
                    raise ValueError("not ASCII")
                rows = list(filter(None, map(str.strip, lines)))
                if rows:
                    _add_frame_rows(rows, blocks)
    except ValueError:  # a UnicodeDecodeError too
        raise _first_bad_frame_line(table) from None
    # popped as built, so each chunk's points are freed with its last frame
    return [RadarFrame(frame_id=fid, sequence_id=seq, points=np.concatenate(blocks.pop((seq, fid))))
            for seq, fid in list(blocks)]


def _add_frame_rows(rows: List[str], blocks: Dict[Tuple[int, int], List[np.ndarray]]) -> None:
    """Parse one chunk of stripped frames rows and append each run of rows
    of one id, as an n x 5 block of its points, to that id's blocks.  A
    malformed row or a non-finite point value is a ValueError."""
    try:
        table, marker = _load_frame_rows(rows), np.zeros(len(rows), bool)
    except ValueError:
        # the empty-frame markers, ``s,f,,,,,``, parse as NaN and are dropped
        marker = np.array([row.endswith(",,,,,") for row in rows])
        if not marker.any():
            raise
        table = _load_frame_rows([row[:-5] + ",nan" * 5 if empty else row
                                  for row, empty in zip(rows, marker.tolist())])
    points = table["values"][~marker]
    if not np.isfinite(points).all():
        raise ValueError("non-finite point value")
    seqs, fids = table["sequence"], table["frame"]
    cuts = np.flatnonzero(np.diff(seqs) | np.diff(fids)) + 1  # the rows that start a run
    starts = np.append(0, cuts)
    # each run's id is zipped on the fly: a list of tuples would leave them
    # in the interpreter's free list
    ids = zip(seqs[starts].tolist(), fids[starts].tolist())
    point_cuts = np.cumsum(~marker)[cuts - 1]  # the cuts counted in point rows
    for key, block in zip(ids, np.split(points, point_cuts)):
        blocks.setdefault(key, []).append(block)


def _load_frame_rows(rows: List[str]) -> np.ndarray:
    return np.loadtxt(rows, _FRAME_ROW, delimiter=",", comments=None, quotechar=None, ndmin=1)


def _first_bad_frame_line(table: _CsvRows) -> ParseError:
    """The ParseError for the first malformed data line of a frames file."""
    try:
        for key, values in table:
            if any(values):  # not an empty-frame marker
                table.reals(values, "point", key)
    except ParseError as err:
        return err
    raise AssertionError("no malformed line in a frames file the reader rejected")


# -- skeletons / predictions -------------------------------------------------


def write_skeletons(rows: Sequence[Tuple[int, int, np.ndarray]], path) -> None:
    """Write (sequence_id, frame_id, M x 3 array-like) rows as a skeletons CSV."""
    lines = [SKELETON_HEADER]
    for seq, fid, pose in rows:
        for k, (x, y, z) in enumerate(np.asarray(pose, dtype=np.float64).tolist()):
            lines.append(f"{seq},{fid},{k},{x!r},{y!r},{z!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_skeletons(path, mid_hip_index: int) -> Dict[Tuple[int, int], np.ndarray]:
    """Poses by (sequence, frame) id, each a float64 M x 3 array of
    keypoints in meters.  Every id must list keypoint indices 0..M-1, each
    once and in any order, with one M for the whole file; otherwise
    ParseError names the id.  A NaN or infinite coordinate is a ParseError
    naming its line, and a mid-hip index outside the M keypoints a
    ShapeMismatch naming the file."""
    table = _CsvRows(path, SKELETON_HEADER)
    acc: Dict[Tuple[int, int], List[Tuple[int, List[float]]]] = {}
    first_line: Dict[Tuple[int, int], int] = {}
    for key, fields in table:
        k = table.integer(fields[0], "skeleton")
        acc.setdefault(key, []).append((k, table.reals(fields[1:], "skeleton", key)))
        first_line.setdefault(key, table.lineno)
    out: Dict[Tuple[int, int], np.ndarray] = {}
    width = None
    for key, rows in acc.items():
        rows.sort(key=lambda row: row[0])
        m = len(rows)
        name = f"sequence {key[0]} frame {key[1]}"
        if [k for k, _ in rows] != list(range(m)):
            raise ParseError(first_line[key],
                             f"{name}: keypoint indices are not 0..{m - 1}, each once", path)
        if width is None:
            width = m
            if not 0 <= mid_hip_index < m:
                raise ShapeMismatch(f"{path}: mid-hip index {mid_hip_index} outside its {m} keypoints")
        elif m != width:
            raise ParseError(first_line[key], f"{name}: {m} keypoints, expected {width}", path)
        out[key] = np.array([xyz for _, xyz in rows])
    return out


def write_scores(rows: Sequence[Tuple[int, int, np.ndarray]], path) -> None:
    if not rows:
        Path(path).write_text(SCORES_HEADER_PREFIX + "\n", encoding="utf-8")
        return
    width = len(rows[0][2])
    header = SCORES_HEADER_PREFIX + "," + ",".join(f"score_{i}" for i in range(width))
    lines = [header]
    for seq, fid, scores in rows:
        values = np.asarray(scores, dtype=np.float64).tolist()
        lines.append(f"{seq},{fid}," + ",".join(map(repr, values)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_scores(path) -> Dict[Tuple[int, int], np.ndarray]:
    """Score vectors by (sequence, frame) id, each id on one row; every row
    must have as many fields as the header, all of them finite.  A header
    with no score column suits only a file with no rows."""
    table = _CsvRows(path, SCORES_HEADER_PREFIX, open_ended=True)
    out: Dict[Tuple[int, int], np.ndarray] = {}
    for key, fields in table:
        out[table.unique(key, out)] = np.array(table.reals(fields, "score", key))
    return out


def read_labels(path) -> Dict[Tuple[int, int], int]:
    """Ground-truth activity labels: sequence_id,frame_id,class_index rows, one per id."""
    table = _CsvRows(path, LABELS_HEADER)
    out: Dict[Tuple[int, int], int] = {}
    for key, fields in table:
        out[table.unique(key, out)] = table.integer(fields[0], "label")
    return out


def write_labels(rows: Sequence[Tuple[int, int, int]], path) -> None:
    lines = [LABELS_HEADER]
    lines += [f"{s},{f},{c}" for s, f, c in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- graph records -----------------------------------------------------------


def graph_record_name(graph: PointGraph) -> str:
    return f"graph_{graph.sequence_id:05d}_{graph.frame_id:06d}.bin"


def write_graph_record(graph: PointGraph, path) -> None:
    """Binary layout: magic, version, ids, dimension header, then node
    matrix, n x k neighbour table (u32), edge matrix, frame vector, all
    little-endian."""
    with open(path, "wb") as fh:
        fh.write(
            _GRAPH_HEADER.pack(
                GRAPH_MAGIC,
                GRAPH_FORMAT_VERSION,
                graph.sequence_id,
                graph.frame_id,
                graph.num_nodes,
                graph.neighbours.shape[1],
                graph.node_features.shape[1],
                graph.edge_features.shape[1],
                graph.frame_features.shape[0],
            )
        )
        # each section's buffer is written as it is, copied only to narrow
        # the neighbour table to u4
        fh.write(np.ascontiguousarray(graph.node_features, "<f8"))
        fh.write(np.ascontiguousarray(graph.neighbours, "<u4"))
        fh.write(np.ascontiguousarray(graph.edge_features, "<f8"))
        fh.write(np.ascontiguousarray(graph.frame_features, "<f8"))


def read_graph_record(path) -> PointGraph:
    """Read one record.  The file must hold exactly the bytes its header
    implies, and its sections must make a PointGraph: finite features, and
    every neighbour another node of the graph.  Otherwise
    FormatVersionError names the file."""
    with open(path, "rb") as fh:
        header = fh.read(_GRAPH_HEADER.size)
        if header[:4] != GRAPH_MAGIC:
            raise FormatVersionError(f"{path}: not a graph record")
        if len(header) != _GRAPH_HEADER.size:
            raise FormatVersionError(f"{path}: truncated header ({len(header)} bytes)")
        _, version, seq, fid, n, k, dn, de, df = _GRAPH_HEADER.unpack(header)
        if version != GRAPH_FORMAT_VERSION:
            raise FormatVersionError(f"{path}: unsupported graph version {version}")
        e = n * k
        expected = _GRAPH_HEADER.size + 8 * (n * dn + e * de + df) + 4 * e
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise FormatVersionError(f"{path}: {size} bytes, but its header implies {expected}")
        nodes = np.frombuffer(fh.read(8 * n * dn), dtype="<f8").reshape(n, dn)
        table = np.frombuffer(fh.read(4 * e), dtype="<u4").reshape(n, k).astype(np.int64)
        efeat = np.frombuffer(fh.read(8 * e * de), dtype="<f8").reshape(e, de)
        ffeat = np.frombuffer(fh.read(8 * df), dtype="<f8")
    try:
        return PointGraph(
            sequence_id=seq,
            frame_id=fid,
            node_features=nodes.astype(np.float64, copy=False),
            neighbours=table,
            edge_features=efeat.astype(np.float64, copy=False),
            frame_features=ffeat.astype(np.float64, copy=False),
        )
    except (ValueError, NumericOverflow) as err:
        raise FormatVersionError(f"{path}: {err}") from None


def _write_rows(fh, matrix: np.ndarray, spec: str) -> None:
    """One ``"  v v ...\n"`` line per row of a 2-D array, each value
    formatted by ``spec``: one ``%`` call over the whole matrix."""
    row = "  " + " ".join([spec] * matrix.shape[1]) + "\n"
    fh.write((row * matrix.shape[0]) % tuple(matrix.ravel().tolist()))


def write_graph_debug_dump(graph: PointGraph, fh) -> None:
    """Write the human-readable equivalent of the binary record, ``repr``-exact,
    to the text stream ``fh``.

    Each section is one ``%`` call and one write, so no string of the whole
    dump is built.
    """
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


def key_values(text: str, path=None) -> Iterator[Tuple[int, str, str]]:
    """Each ``key = value`` line of ``text`` as its line number, key and
    value, both stripped.  ``#`` starts a comment, and blank lines are
    skipped; any other line without ``=`` is a ParseError."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, "expected 'key = value'", path)
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def read_manifest(path) -> dict:
    """The entries of a manifest; a ``format_version`` other than this
    module's is a FormatVersionError naming the file."""
    out = {key: value for _, key, value in key_values(read_text(path), path)}
    version = out.get("format_version")
    if version != str(MANIFEST_FORMAT_VERSION):
        raise FormatVersionError(f"{path}: unsupported manifest version {version!r}")
    return out
