import argparse
import io
import logging
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloudgraph
from cloudgraph import cli, formats
from cloudgraph.cli import build_parser, main
from cloudgraph.config import ModelShape, PipelineConfig, serialize_config
from cloudgraph.errors import FormatVersionError, ParseError, ShapeMismatch
from cloudgraph.gnn import (
    encode_graph,
    init_params,
    predict_framewise,
    predict_sequential,
    save_params,
)
from cloudgraph.pipeline import build_graph
from cloudgraph.rng import SplitMix64
from cloudgraph.synthetic import (
    MID_HIP_INDEX,
    NUM_JOINTS,
    SyntheticSpec,
    generate,
    joint_positions,
)
from cloudgraph.types import PointGraph, RadarFrame

from conftest import append_tensor, random_frame, traced_peak


def assert_frames_equal(a, b):
    """Same ids in the same order and bit-identical point arrays."""
    assert [(f.sequence_id, f.frame_id) for f in a] == [(f.sequence_id, f.frame_id) for f in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)


SMALL_MODEL = ModelShape(head="pose", output_size=5, mid_hip_index=0,
                         edge_units=(6,), node_units=(8,), gat_units=(6,),
                         frame_units=(8,), pred_units=(8,))
SMALL_MODELS = {"pose": SMALL_MODEL, "activity": replace(SMALL_MODEL, head="activity", output_size=3)}


def write_config(path, pipe=None, model=None):
    pipe = pipe or PipelineConfig(K=4)
    model = model or SMALL_MODEL
    path.write_text(serialize_config(pipe, model), encoding="utf-8")
    return pipe, model


# -- frames csv --------------------------------------------------------------


def test_frames_round_trip_bit_exact(tmp_path, np_rng):
    frames = [
        random_frame(np_rng, 4, sequence_id=1, frame_id=0),
        RadarFrame(frame_id=1, sequence_id=1, points=()),  # empty frame kept
        random_frame(np_rng, 2, sequence_id=2, frame_id=0),
    ]
    path = tmp_path / "frames.csv"
    formats.write_frames(frames, path)
    back = formats.read_frames(path)
    assert_frames_equal(back, frames)  # repr round trip is exact for float64


def test_frames_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        formats.read_frames(path)
    assert exc.value.line_number == 1


def test_frames_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        formats.FRAMES_HEADER + "\n0,0,1.0,2.0,3.0,0.0,1.0\n0,1,oops,2,3,0,1\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc:
        formats.read_frames(path)
    assert exc.value.line_number == 3


def test_frames_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(formats.FRAMES_HEADER + "\n0,0,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        formats.read_frames(path)
    assert exc.value.line_number == 2


_EXTREME_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0])
_POINT_VALUES = st.one_of(_EXTREME_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)), unique=True, max_size=6),
    data=st.data(),
)
def test_frames_round_trip_any_values_and_empty_frames(ids, data):
    # several sequences, empty frames, signed zeros, subnormals and
    # extremes all come back bit for bit, in the order written
    frames = [
        RadarFrame(seq, fid, data.draw(
            st.lists(st.lists(_POINT_VALUES, min_size=5, max_size=5), max_size=4)
        ))
        for seq, fid in ids
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.csv"
        formats.write_frames(frames, path)
        back = formats.read_frames(path)
    assert_frames_equal(back, frames)
    for x, y in zip(back, frames):
        assert np.array_equal(np.signbit(x.points), np.signbit(y.points))


def test_frames_skip_blank_lines_and_strip_whitespace(tmp_path):
    clean = tmp_path / "clean.csv"
    clean.write_text(formats.FRAMES_HEADER + "\n0,1,1.5,2.0,3.0,0.0,1.0\n"
                     "0,2,,,,,\n0,3,-0.0,5e-324,1e308,2.0,3.0\n", encoding="utf-8")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("  " + formats.FRAMES_HEADER + " \n\n 0,1, 1.5 ,2.0,3.0,0.0,1.0\t\n"
                      "   \n\t0,2,,,,,  \n\n0, 3,-0.0,5e-324,1e308 ,2.0,3.0\n\n", encoding="utf-8")
    assert_frames_equal(formats.read_frames(spaced), formats.read_frames(clean))
    assert [len(f) for f in formats.read_frames(spaced)] == [1, 0, 1]


def test_frames_rows_of_one_id_merge_in_first_occurrence_order(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text(formats.FRAMES_HEADER + "\n"
                    "1,5,1.0,0,0,0,0\n0,2,2.0,0,0,0,0\n1,5,3.0,0,0,0,0\n"
                    "0,9,,,,,\n0,2,4.0,0,0,0,0\n1,5,5.0,0,0,0,0\n", encoding="utf-8")
    frames = formats.read_frames(path)
    assert [(f.sequence_id, f.frame_id) for f in frames] == [(1, 5), (0, 2), (0, 9)]
    assert [f.points[:, 0].tolist() for f in frames] == [[1.0, 3.0, 5.0], [2.0, 4.0], []]


def test_frames_reader_holds_one_chunk_at_a_time(tmp_path, np_rng):
    """On 50,000 rows the reader's traced peak stays within the points it
    returns plus 1 KiB for each line of one chunk: no copy of the file's
    text, fields or values is held whole."""
    path = tmp_path / "frames.csv"
    formats.write_frames([random_frame(np_rng, 125, 0, i) for i in range(400)], path)
    frames, peak = traced_peak(formats.read_frames, path)
    assert sum(map(len, frames)) == 50_000
    assert peak <= sum(f.points.nbytes for f in frames) + 1024 * formats._CHUNK_LINES


@pytest.mark.parametrize("row, message", [
    ("0,1,1.0,2.0,3.0,0.0", "expected 7 fields, got 6"),
    ("0,1,1.0,2.0,3.0,0.0,1.0,2.0", "expected 7 fields, got 8"),
    ("0,x,1.0,2.0,3.0,0.0,1.0", "bad sequence or frame id"),
    ("0,1.5,1.0,2.0,3.0,0.0,1.0", "bad sequence or frame id"),
    ("0,1,1.0,2.0,oops,0.0,1.0", "bad point value"),
    ("0,1,,,,0.0,", "bad point value"),  # a marker row with some values set
    ("0,1,1.0,nan,3.0,0.0,1.0", "non-finite point value in sequence 0 frame 1"),
    ("0,1,1.0,2.0,3.0,0.0,-inf", "non-finite point value in sequence 0 frame 1"),
    # spellings that Python's int or float reads and numpy's reader does not
    ("-0,1,1.0,2.0,3.0,0.0,1.0", "bad sequence or frame id"),
    ("0,1,3_0,2.0,3.0,0.0,1.0", "'_' in a number"),
    ("0,1,1.0,\u0665,3.0,0.0,1.0", "not ASCII (byte 0xd9)"),
    ("0,1,1.0,2.0,3.0,0.0,1.0\x0c0,1,1.0,2.0,3.0,0.0,1.0", "expected 7 fields, got 13"),
    ("0,1,1.0\r,2.0,3.0,0.0,1.0", "carriage return inside the line"),
    ("0,1,1.0,2.0,3.0,0.0,1.0\u00a0", "not ASCII (byte 0xc2)"),  # a space strip() removes
])
def test_frames_malformed_row_names_its_line(tmp_path, row, message):
    # the bad row is the fifth line, after a blank line and a marker row;
    # the 8-field row after it does not take its place, nor make up for
    # a row one field short
    path = tmp_path / "bad.csv"
    path.write_text(formats.FRAMES_HEADER + "\n0,0,1.0,2.0,3.0,0.0,1.0\n\n0,7,,,,,\n"
                    f"{row}\n0,3,1,2,3,4,5,6\n0,2,1.0,2.0,3.0,0.0,1.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        formats.read_frames(path)
    assert exc.value.line_number == 5
    assert str(exc.value) == f"{path}: line 5: {message}"


# -- skeleton / score / label csv --------------------------------------------


# each CSV reader, its header, and a row with its ids and one value to fill
# in; a label row holds no real value
CSV_READERS = {
    "frames": (formats.read_frames, formats.FRAMES_HEADER, "{},{},1.0,{},3.0,0.0,1.0"),
    "skeletons": (lambda path: formats.read_skeletons(path, 0), "sequence_id,frame_id,x0,y0,z0",
                  "{},{},{},2.0,3.0"),
    "scores": (formats.read_scores, "sequence_id,frame_id,score_0,score_1", "{},{},{},0.5"),
    "labels": (formats.read_labels, formats.LABELS_HEADER, "{},{},1"),
}
BAD_IDS = [
    ("x", "1", "bad sequence or frame id"),
    ("0", "1.5", "bad sequence or frame id"),
    ("-1", "1", "sequence or frame id outside [0, 2^64)"),
    ("0", str(2**64), "sequence or frame id outside [0, 2^64)"),
]


@pytest.mark.parametrize("kind, seq, fid, value, message", [
    *[(kind, seq, fid, "2.0", message) for kind in CSV_READERS for seq, fid, message in BAD_IDS],
    *[(kind, "0", "1", "nan", f"non-finite {name} value in sequence 0 frame 1")
      for kind, name in [("frames", "point"), ("skeletons", "skeleton"), ("scores", "score")]],
])
def test_csv_readers_share_one_row_grammar(tmp_path, kind, seq, fid, value, message):
    """Every CSV reader rejects the same bad id or non-finite value on the
    third line with the same message, naming the file."""
    read, header, row = CSV_READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{row.format(0, 0, 1.0)}\n{row.format(seq, fid, value)}\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: line 3: {message}"


# (sequence id, frame id, value) spellings that Python's int or float
# reads and numpy's reader does not; a label row has no value to fill in
DIVERGENT_SPELLINGS = {
    "minus_zero_id": ("-0", "1", "2.0", "bad sequence or frame id"),
    "grouped_id": ("0", "1_0", "2.0", "'_' in a number"),
    "arabic_digit_id": ("\u0665", "1", "2.0", "not ASCII (byte 0xd9)"),
    "grouped_value": ("0", "1", "3_0", "'_' in a number"),
    "arabic_digit_value": ("0", "1", "\u0665", "not ASCII (byte 0xd9)"),
    "form_feed_join": None,  # two rows joined by a form feed, not a line break
}


def csv_command(tmp_path, kind, path):
    """The argv of a command whose first CSV read is ``path`` as ``kind``."""
    if kind == "frames":
        write_config(tmp_path / "run.cfg")
        return ["extract", str(path), "--config", str(tmp_path / "run.cfg"),
                "--out", str(tmp_path / "out")]
    if kind == "skeletons":
        return ["eval", str(path), str(path), "--task", "pose"]
    scores, labels = tmp_path / "s.csv", tmp_path / "l.csv"
    formats.write_scores([(0, 0, np.array([0.5, 0.5]))], scores)
    formats.write_labels([(0, 0, 1)], labels)
    return ["eval", str(path if kind == "scores" else scores),
            str(path if kind == "labels" else labels), "--task", "activity"]


@pytest.mark.parametrize("kind, spelling", [
    (kind, spelling) for kind in CSV_READERS for spelling in DIVERGENT_SPELLINGS
    if not (kind == "labels" and spelling.endswith("_value"))])
def test_csv_readers_refuse_what_numpy_reads_differently(tmp_path, caplog, kind, spelling):
    """Every CSV reader refuses each spelling on which Python's parsers and
    numpy's differ, naming the third line, and its command exits 2."""
    read, header, row = CSV_READERS[kind]
    width = header.count(",") + 1
    if DIVERGENT_SPELLINGS[spelling] is None:
        bad = row.format(0, 1, 2.0) + "\x0c" + row.format(0, 2, 2.0)
        message = f"expected {width} fields, got {2 * width - 1}"
    else:
        seq, fid, value, message = DIVERGENT_SPELLINGS[spelling]
        bad = row.format(seq, fid, value)
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{row.format(0, 0, 1.0)}\n{bad}\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: line 3: {message}"
    assert main(csv_command(tmp_path, kind, path)) == 2
    assert f"{path}: line 3: {message}" in caplog.text


# two frames of points and an empty-frame marker between them
SMALL_FRAMES = (formats.FRAMES_HEADER + "\n0,0,1.5,-2,3e-1,+0.25,7.5\n0,0,-0.5,2.0,1E2,0,4.5\n"
                "0,1,,,,,\n0,2,0.125,4,-6,1.5e+1,3.0625\n").encode()
# the spellings on which the chunked reader and the line grammar could part
READER_ALPHABET = ["_", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x00", "\xa0", "\u0665",
                   "-", "+", ".", "e", ",", "#", '"', "5", " ", "\n", "n", "i"]


def frames_by_line(path):
    """The frames file as ``_CsvRows`` reads it, one line at a time: the
    reference the chunked reader must agree with."""
    table = formats._CsvRows(path, formats.FRAMES_HEADER)
    points = {}
    for key, values in table:
        rows = points.setdefault(key, [])
        if any(values):  # not an empty-frame marker
            rows.append(table.reals(values, "point", key))
    return [RadarFrame(frame_id=fid, sequence_id=seq, points=rows)
            for (seq, fid), rows in points.items()]


def reader_outcome(read, path):
    """The frames ``read`` returns, as ids and point bytes, or the text of
    the exception it raises."""
    try:
        return [(f.sequence_id, f.frame_id, f.points.tobytes()) for f in read(path)]
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def test_frames_reader_agrees_with_the_line_grammar_on_every_one_byte_edit(tmp_path):
    """Each symbol of ``READER_ALPHABET``, put in place of each byte of a
    small frames file and, separately, inserted at each position: the
    chunked reader accepts exactly the files the line grammar accepts, with
    the same points bit for bit, and refuses the others with the same
    message."""
    assert len(SMALL_FRAMES) == 118
    path = tmp_path / "frames.csv"
    edits = [(at, at + cut, symbol.encode()) for symbol in READER_ALPHABET
             for cut in (1, 0) for at in range(len(SMALL_FRAMES) + 1 - cut)]
    disagree = []
    for start, stop, symbol in edits:
        path.write_bytes(SMALL_FRAMES[:start] + symbol + SMALL_FRAMES[stop:])
        got, want = reader_outcome(formats.read_frames, path), reader_outcome(frames_by_line, path)
        if got != want:
            disagree.append((start, stop, symbol, got, want))
    assert len(edits) == 5214
    assert disagree == [], f"{len(disagree)} edits disagree, the first: {disagree[0]}"


@pytest.mark.parametrize("kind", ["skeletons", "scores", "labels"])
@pytest.mark.parametrize("seq, fid, message", BAD_IDS)
def test_cli_eval_bad_id_exit_2_naming_the_file(tmp_path, caplog, kind, seq, fid, message):
    """A bad id in either input of eval exits 2, and the message tells the
    two inputs apart."""
    paths = {name: tmp_path / f"{name}.csv" for name in CSV_READERS}
    for name, (_, header, row) in CSV_READERS.items():
        bad = f"{row.format(seq, fid, 2.0)}\n" if name == kind else ""
        paths[name].write_text(f"{header}\n{row.format(0, 0, 1.0)}\n{bad}", encoding="utf-8")
    if kind == "skeletons":
        args = [str(paths["skeletons"]), str(tmp_path / "truth.csv"), "--task", "pose"]
        formats.write_skeletons([(0, 0, np.eye(1, 3))], tmp_path / "truth.csv")
    else:
        args = [str(paths["scores"]), str(paths["labels"]), "--task", "activity"]
    assert main(["eval", *args]) == 2
    assert f"{paths[kind]}: line 3: {message}" in caplog.text


@pytest.mark.parametrize("header, rc", [
    (" sequence_id,frame_id,score_0,score_1", 0),
    ("sequence_id,frame_id,score_0,score_1\t", 0),
    ("sequence_id,frame_idX,score_0,score_1", 2),
    ("sequence_id,frame_idX", 2),
    ("sequence_id", 2),
])
def test_cli_eval_scores_header_is_stripped_and_must_begin_with_the_ids(tmp_path, caplog,
                                                                        header, rc):
    s_path, l_path = tmp_path / "s.csv", tmp_path / "l.csv"
    s_path.write_text(f"{header}\n0,1,0.2,0.8\n", encoding="utf-8")
    formats.write_labels([(0, 1, 1)], l_path)
    assert main(["eval", str(s_path), str(l_path), "--task", "activity"]) == rc
    if rc:
        assert f"{s_path}: line 1: expected header 'sequence_id,frame_id,...'" in caplog.text


def test_cli_eval_scores_header_without_a_score_column_exit_2(tmp_path, caplog):
    """A scores header of the two ids alone is blamed on the scores file,
    not on a labels file whose class index is outside zero classes."""
    s_path, l_path = tmp_path / "s.csv", tmp_path / "l.csv"
    s_path.write_text("sequence_id,frame_id\n0,1\n", encoding="utf-8")
    formats.write_labels([(0, 1, 0)], l_path)
    assert main(["eval", str(s_path), str(l_path), "--task", "activity"]) == 2
    assert f"{s_path}: line 1: the header names no value column" in caplog.text
    assert str(l_path) not in caplog.text


def test_skeletons_round_trip(tmp_path, np_rng):
    rows = [(0, 0, np_rng.normal(size=(5, 3))), (0, 1, np_rng.normal(size=(5, 3)))]
    path = tmp_path / "sk.csv"
    formats.write_skeletons(rows, path)
    back = formats.read_skeletons(path, mid_hip_index=1)
    assert set(back) == {(0, 0), (0, 1)}
    for seq, fid, pose in rows:
        assert back[(seq, fid)].dtype == np.float64
        assert np.array_equal(back[(seq, fid)], pose)


def test_scores_round_trip(tmp_path, np_rng):
    rows = [(0, 0, np_rng.normal(size=4)), (1, 7, np_rng.normal(size=4))]
    path = tmp_path / "scores.csv"
    formats.write_scores(rows, path)
    back = formats.read_scores(path)
    for seq, fid, s in rows:
        assert np.array_equal(back[(seq, fid)], s)


def test_prediction_writers_render_each_value_as_its_repr(tmp_path, np_rng):
    # signed zero, a subnormal, a huge value and integral values keep the
    # exact text of repr(float(v)) for every single value
    special = [-0.0, 5e-324, 1e300, 2.0, -3.0, 0.1]
    kp = np.concatenate([np.array(special).reshape(2, 3), np_rng.normal(size=(2, 3))])
    rows = [(0, 4, kp), (2, 9, kp[::-1])]
    formats.write_skeletons(rows, tmp_path / "sk.csv")
    want = ["sequence_id,frame_id,x0,y0,z0,x1,y1,z1,x2,y2,z2,x3,y3,z3"] + [
        f"{seq},{fid}," + ",".join(repr(float(v)) for v in pose.ravel()) for seq, fid, pose in rows
    ]
    assert (tmp_path / "sk.csv").read_bytes() == ("\n".join(want) + "\n").encode()

    scores = [(0, 4, np.array(special)), (1, 5, np_rng.normal(size=6))]
    formats.write_scores(scores, tmp_path / "scores.csv")
    want = [formats.IDS_HEADER + "," + ",".join(f"score_{i}" for i in range(6))] + [
        f"{seq},{fid}," + ",".join(repr(float(v)) for v in s) for seq, fid, s in scores
    ]
    assert (tmp_path / "scores.csv").read_bytes() == ("\n".join(want) + "\n").encode()


@pytest.mark.parametrize("write, rows, message", [
    (formats.write_scores, [(0, 0, np.zeros(2)), (0, 1, np.zeros(3))],
     "sequence 0 frame 1: a prediction of shape (3,), expected (2,)"),
    (formats.write_scores, [(0, 0, np.zeros(0))], "the predictions hold no value"),
    (formats.write_skeletons, [(3, 8, np.zeros((4, 2)))],
     "sequence 3 frame 8: a prediction of shape (4, 2), expected (4, 3)"),
    (formats.write_skeletons, [(0, 0, np.zeros((4, 3))), (2, 5, np.zeros((3, 3)))],
     "sequence 2 frame 5: a prediction of shape (3, 3), expected (4, 3)"),
    (formats.write_skeletons, [(0, 0, np.zeros(3))],
     "sequence 0 frame 0: a prediction of shape (3,), expected (3, 3)"),
    (formats.write_skeletons, [(0, 0, np.zeros((0, 3)))], "the predictions hold no value"),
], ids=["ragged_scores", "no_scores", "pose_of_2d_points", "ragged_poses", "flat_pose", "no_keypoints"])
def test_prediction_writers_refuse_what_their_readers_refuse(tmp_path, write, rows, message):
    """A row of another shape than the first, or no value at all, would
    make a file that ``read_scores`` or ``read_skeletons`` refuses."""
    path = tmp_path / "p.csv"
    with pytest.raises(ShapeMismatch) as exc:
        write(rows, path)
    assert str(exc.value) == f"{path}: {message}"
    assert not path.exists()


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    formats.write_labels([(0, 0, 2), (0, 1, 4)], path)
    assert formats.read_labels(path) == {(0, 0): 2, (0, 1): 4}


# -- graph records -----------------------------------------------------------


def test_graph_record_round_trip(tmp_path, np_rng):
    g = build_graph([random_frame(np_rng, 9, sequence_id=3, frame_id=12)],
                    PipelineConfig(K=4))
    path = tmp_path / formats.graph_record_name(g)
    assert path.name == "graph_00003_000012.bin"
    formats.write_graph_record(g, path)
    back = formats.read_graph_record(path)
    assert back.sequence_id == 3 and back.frame_id == 12
    assert np.array_equal(back.node_features, g.node_features)
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.edge_features, g.edge_features)
    assert np.array_equal(back.frame_features, g.frame_features)


def test_graph_record_bad_magic(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatVersionError):
        formats.read_graph_record(path)


def test_graph_record_bad_version(tmp_path, np_rng):
    g = build_graph([random_frame(np_rng, 4)], PipelineConfig(K=2))
    path = tmp_path / "g.bin"
    formats.write_graph_record(g, path)
    data = bytearray(path.read_bytes())
    data[4] = 99  # bump the version field
    path.write_bytes(bytes(data))
    with pytest.raises(FormatVersionError):
        formats.read_graph_record(path)


def repr_dump(g):
    """The debug dump written value by value with ``repr``."""
    def rows(matrix):
        return "".join("  " + " ".join(repr(float(v)) for v in row) + "\n" for row in matrix)

    return (
        f"sequence_id = {g.sequence_id}\nframe_id = {g.frame_id}\n"
        f"nodes = {g.num_nodes}\nedges = {g.num_edges}\n"
        "node_features:\n" + rows(g.node_features)
        + "edge_list:\n" + "".join(f"  {t} {s}\n" for t, s in g.edges.tolist())
        + "edge_features:\n" + rows(g.edge_features)
        + "frame_features:\n" + rows([g.frame_features])
    )


def parse_dump(text):
    """Header ints and the value rows of each section of a debug dump."""
    lines = text.split("\n")
    assert lines[-1] == ""
    header = {key: int(value) for key, value in (line.split(" = ") for line in lines[:4])}
    sections = {}
    for line in lines[4:-1]:
        if line.endswith(":"):
            rows = sections[line[:-1]] = []
        else:
            assert line.startswith("  ")
            rows.append(line[2:].split())
    return header, sections


def assert_bits_equal(rows, matrix, width):
    parsed = np.array([[float(v) for v in row] for row in rows], dtype=np.float64).reshape(-1, width)
    assert parsed.shape == matrix.shape
    assert np.array_equal(parsed.view(np.uint64), matrix.view(np.uint64))


@pytest.mark.parametrize("n", [1, 60])
def test_graph_debug_dump_reads_back_bit_exact(tmp_path, np_rng, n):
    g = build_graph([random_frame(np_rng, n, sequence_id=2, frame_id=5, scale=1e3)],
                    PipelineConfig(K=6))
    assert g.num_edges == n * min(6, n - 1)
    formats.write_graph_record(g, tmp_path / "g.bin")
    record = formats.read_graph_record(tmp_path / "g.bin")
    fh = io.StringIO()
    formats.write_graph_debug_dump(record, fh)
    text = fh.getvalue()
    assert text == repr_dump(record)
    header, sections = parse_dump(text)
    assert header == {"sequence_id": 2, "frame_id": 5, "nodes": n, "edges": g.num_edges}
    assert_bits_equal(sections["node_features"], record.node_features, 19)
    assert_bits_equal(sections["edge_features"], record.edge_features, 6)
    assert_bits_equal(sections["frame_features"], record.frame_features[None, :], 380)
    edges = np.array([[int(v) for v in row] for row in sections["edge_list"]], dtype=np.int64)
    assert np.array_equal(edges.reshape(-1, 2), record.edges)


def test_graph_debug_dump_extreme_values_and_empty_widths():
    # signed zero, subnormals, huge values, zero-width sections
    values = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1]
    g = PointGraph(sequence_id=0, frame_id=1, node_features=np.array([values, values[::-1]]),
                   neighbours=[[1], [0]], edge_features=np.zeros((2, 0)), frame_features=[])
    fh = io.StringIO()
    formats.write_graph_debug_dump(g, fh)
    text = fh.getvalue()
    assert text == repr_dump(g)
    assert text.endswith("edge_list:\n  0 1\n  1 0\nedge_features:\n  \n  \nframe_features:\n  \n")


def test_manifest_round_trip_and_version(tmp_path):
    path = tmp_path / "manifest.txt"
    formats.write_manifest({"a": 1, "timing_x": "0.5"}, path)
    back = formats.read_manifest(path)
    assert back["a"] == "1"
    path.write_text("format_version = 999\n", encoding="utf-8")
    with pytest.raises(FormatVersionError):
        formats.read_manifest(path)


@pytest.mark.parametrize("line", ["format_version = x", "format_version =", "seed = 1"])
def test_manifest_version_that_is_not_one_names_the_file(tmp_path, line):
    path = tmp_path / "manifest.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(FormatVersionError, match=re.escape(f"{path}: unsupported manifest version")):
        formats.read_manifest(path)


def test_manifest_reads_comments_like_a_config(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("# a run\nformat_version = 1  # the version\n\n  seed = 7#x\n", encoding="utf-8")
    assert formats.read_manifest(path) == {"format_version": "1", "seed": "7"}
    path.write_text("format_version = 1\nseed\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 2: expected 'key = value'")):
        formats.read_manifest(path)


# -- synthetic generator -----------------------------------------------------


def test_synthetic_deterministic():
    spec = SyntheticSpec(num_frames=5, points_per_frame=20, seed=7)
    a_frames, a_poses = generate(spec)
    b_frames, b_poses = generate(spec)
    assert_frames_equal(a_frames, b_frames)
    for x, y in zip(a_poses, b_poses):
        assert x.dtype == np.float64 and x.shape == (NUM_JOINTS, 3)
        assert np.array_equal(x, y)


def test_synthetic_zero_noise_points_sit_on_joints():
    spec = SyntheticSpec(num_frames=2, points_per_frame=40, noise=0.0, seed=3)
    frames, poses = generate(spec)
    for frame, pose in zip(frames, poses):
        for xyz in frame.points[:, :3]:
            d = np.linalg.norm(pose - xyz, axis=1)
            assert d.min() < 1e-12


def test_synthetic_zero_points():
    frames, skeletons = generate(SyntheticSpec(num_frames=3, points_per_frame=0))
    assert all(len(f) == 0 for f in frames)
    assert len(skeletons) == 3


def test_synthetic_static_motion_is_constant():
    spec = SyntheticSpec(num_frames=1, points_per_frame=1, motion="static")
    a = joint_positions(spec, 0.0)
    b = joint_positions(spec, 5.0)
    assert np.array_equal(a, b)
    assert a.shape == (NUM_JOINTS, 3)
    assert MID_HIP_INDEX == 0


# -- cli ---------------------------------------------------------------------


def gen_inputs(tmp_path, frames=6, points=30, seed=11):
    frames_path = tmp_path / "frames.csv"
    rc = main([
        "gen-synthetic", "--frames", str(frames), "--points", str(points),
        "--seed", str(seed), "--out", str(frames_path),
    ])
    assert rc == 0
    return frames_path, tmp_path / "frames_gt.csv"


def extract_and_init(tmp_path, head, frames=2, points=12):
    """Graph records and seeded weights for the small model with ``head``:
    returns (graphs dir, weights file, config file)."""
    frames_path, _ = gen_inputs(tmp_path, frames=frames, points=points)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, model=SMALL_MODELS[head])
    graphs = tmp_path / "graphs"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(graphs)]) == 0
    weights = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--out", str(weights)]) == 0
    return graphs, weights, cfg_path


def infer(graphs, weights, cfg_path, out):
    return main(["infer", str(graphs), "--weights", str(weights),
                 "--config", str(cfg_path), "--out", str(out)])


def patch_bytes(path, offset, fmt, value):
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))


def test_cli_gen_synthetic_writes_frames_and_gt(tmp_path):
    frames_path, gt_path = gen_inputs(tmp_path)
    frames = formats.read_frames(frames_path)
    assert len(frames) == 6
    gts = formats.read_skeletons(gt_path, MID_HIP_INDEX)
    assert len(gts) == 6


@pytest.mark.parametrize("flag, value, message", [
    ("--noise", "nan", "noise must be finite"), ("--noise", "inf", "noise must be finite"),
    ("--noise", "-0.5", "noise must be finite and non-negative"),
    ("--frames", "-2", "counts must not be negative"),
    ("--points", "-3", "counts must not be negative"),
], ids=["noise-nan", "noise-inf", "noise-negative", "frames-negative", "points-negative"])
def test_cli_gen_synthetic_rejects_a_malformed_argument_exit_6(tmp_path, caplog, flag, value,
                                                               message):
    # each once exited 0, writing non-finite points, no frames or empty frames
    out = tmp_path / "frames.csv"
    assert main(["gen-synthetic", flag, value, "--out", str(out)]) == 6
    assert not out.exists()
    assert message in caplog.text


def test_cli_extract_deterministic_rerun(tmp_path):
    frames_path, _ = gen_inputs(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_a)]) == 0
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("graph_*.bin"))
    assert names == sorted(p.name for p in out_b.glob("graph_*.bin"))
    assert len(names) == 6
    # the records counted in the manifest and the manifest, nothing else
    assert formats.read_manifest(out_a / "manifest.txt")["graphs_out"] == "6"
    assert sorted(p.name for p in out_a.iterdir()) == names + ["manifest.txt"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # manifests match once wall-clock entries are dropped
    ma = {k: v for k, v in formats.read_manifest(out_a / "manifest.txt").items()
          if not k.startswith("timing_")}
    mb = {k: v for k, v in formats.read_manifest(out_b / "manifest.txt").items()
          if not k.startswith("timing_")}
    assert ma == mb
    assert ma["edges_coincident"] == ma["nodes_at_centroid"] == "0"


def test_cli_show_prints_each_record_as_read(tmp_path, capsys):
    frames_path, _ = gen_inputs(tmp_path, frames=3)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    records = sorted(out.glob("graph_*.bin"))
    assert len(records) == 3
    capsys.readouterr()
    for path in records:
        assert main(["show", str(path)]) == 0
        assert capsys.readouterr().out == repr_dump(formats.read_graph_record(path))


def test_cli_show_truncated_exit_4_missing_exit_3(tmp_path, capsys, caplog):
    graphs, _, _ = extract_and_init(tmp_path, "pose", frames=1, points=20)
    (record,) = graphs.glob("graph_*.bin")
    record.write_bytes(record.read_bytes()[:-1])
    capsys.readouterr()
    assert main(["show", str(record)]) == 4
    assert f"{record}: " in caplog.text
    assert main(["show", str(tmp_path / "absent.bin")]) == 3
    assert capsys.readouterr().out == ""


def test_cli_extract_counts_points_dropped_by_downsampling(tmp_path):
    frames_path, _ = gen_inputs(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, pipe=PipelineConfig(K=4, F=1, downsample_enabled=True,
                                               cell_width=(0.2, 0.2, 0.2), Q=1))
    out = tmp_path / "out"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    manifest = {k: int(v) for k, v in formats.read_manifest(out / "manifest.txt").items()
                if not k.startswith(("timing_", "config_"))}
    assert manifest["points_in"] == 6 * 30
    assert manifest["points_dropped_downsample"] > 0
    assert manifest["nodes_out"] + manifest["points_dropped_downsample"] == manifest["points_in"]
    assert "points_out" not in manifest


@pytest.mark.parametrize("sizes", [(3, 12), (5, 6)])  # K nodes is below K, K + 1 is not
def test_cli_extract_counts_graphs_below_k(tmp_path, np_rng, sizes):
    frames = [RadarFrame(0, i, np_rng.normal(size=(n, 5))) for i, n in enumerate(sizes)]
    frames_path = tmp_path / "frames.csv"
    formats.write_frames(frames, frames_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, pipe=PipelineConfig(K=5))
    out = tmp_path / "out"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    manifest = formats.read_manifest(out / "manifest.txt")
    assert manifest["graphs_out"] == "2"
    assert manifest["graphs_below_k"] == "1"


def extract_manifest(tmp_path, frames, pipe):
    tmp_path.mkdir(exist_ok=True)
    frames_path = tmp_path / "frames.csv"
    formats.write_frames(frames, frames_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, pipe=pipe)
    out = tmp_path / "out"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    return formats.read_manifest(out / "manifest.txt")


def test_cli_extract_counts_edges_between_coincident_points(tmp_path, np_rng):
    # points 1 and 4 of the first frame share a position (not v or I), so
    # each is the other's nearest neighbour: two edges of zero direction
    pts = np_rng.normal(size=(8, 5))
    pts[4, :3] = pts[1, :3]
    frames = [RadarFrame(0, 0, pts), RadarFrame(0, 1, np_rng.normal(size=(8, 5)))]
    manifest = extract_manifest(tmp_path, frames, PipelineConfig(K=3))
    assert manifest["edges_coincident"] == "2"
    assert manifest["nodes_at_centroid"] == "0"
    off = extract_manifest(tmp_path / "off", frames, PipelineConfig(K=3, enable_edge_features=False))
    assert "edges_coincident" not in off and off["nodes_at_centroid"] == "0"


def test_cli_extract_counts_nodes_at_the_centroid(tmp_path, np_rng):
    # a cloud symmetric about its last point, which is then its centroid
    # up to rounding, so within epsilon of it
    half = np_rng.normal(size=(4, 5))
    frames = [RadarFrame(0, 0, np.vstack([half, -half, np.zeros((1, 5))])),
              RadarFrame(0, 1, np_rng.normal(size=(9, 5)))]
    manifest = extract_manifest(tmp_path, frames, PipelineConfig(K=4))
    assert manifest["nodes_at_centroid"] == "1"
    assert manifest["edges_coincident"] == "0"
    off = extract_manifest(tmp_path / "off", frames, PipelineConfig(K=4, enable_node_features=False))
    assert "nodes_at_centroid" not in off and off["edges_coincident"] == "0"


def test_cli_extract_skips_empty_frames(tmp_path):
    frames = [
        RadarFrame(0, 0, np.random.default_rng(0).normal(size=(5, 5))),
        RadarFrame(frame_id=1, sequence_id=0, points=()),
    ]
    frames_path = tmp_path / "frames.csv"
    formats.write_frames(frames, frames_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    assert len(list(out.glob("graph_*.bin"))) == 1
    manifest = formats.read_manifest(out / "manifest.txt")
    assert manifest["frames_skipped_empty"] == "1"


def test_cli_infer_zero_weights_zero_skeletons(tmp_path):
    frames_path, _ = gen_inputs(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    _, model = write_config(cfg_path)
    out_dir = tmp_path / "graphs"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    weights = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--seed", "0",
                 "--out", str(weights)]) == 0
    # zero out every tensor in the weights file payload: easier through the api
    from cloudgraph.gnn import init_params, save_params
    from cloudgraph.rng import SplitMix64

    params = init_params(model, PipelineConfig(K=4), SplitMix64(0))
    for arr in params.tensors.values():
        arr[...] = 0.0
    save_params(params, weights)
    preds_path = tmp_path / "preds.csv"
    assert main(["infer", str(out_dir), "--weights", str(weights),
                 "--config", str(cfg_path), "--out", str(preds_path)]) == 0
    preds = formats.read_skeletons(preds_path, 0)
    assert len(preds) == 6
    for pose in preds.values():
        assert np.array_equal(pose, np.zeros((5, 3)))


def test_cli_infer_missing_weights_exit_3(tmp_path):
    frames_path, _ = gen_inputs(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    out_dir = tmp_path / "graphs"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    rc = main(["infer", str(out_dir), "--weights", str(tmp_path / "absent.bin"),
               "--config", str(cfg_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 3


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_cli_infer_without_a_graphs_directory_exit_3(infer_inputs, tmp_path, caplog, kind):
    _, weights, cfg_path = infer_inputs["pose"]
    graphs = tmp_path / "no_such_dir"
    if kind == "file":
        graphs.write_text("", encoding="utf-8")
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, cfg_path, out) == 3
    assert f"{graphs}: not a directory of graph records" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing_parent", "file_parent", "directory", "empty", "dot"])
def test_cli_infer_refuses_an_unusable_out_before_predicting(infer_inputs, tmp_path, caplog,
                                                             monkeypatch, kind):
    graphs, weights, cfg_path = infer_inputs["pose"]
    calls = []
    monkeypatch.setattr(cli, "predict_framewise", lambda *a: calls.append(a))
    monkeypatch.chdir(tmp_path)
    parent = tmp_path / "nodir"
    if kind == "file_parent":
        parent.write_text("", encoding="utf-8")
    if kind == "directory":
        out, message = tmp_path, f"{tmp_path}: a directory, not a predictions file"
    elif kind == "empty":
        out, message = "", "'' names no predictions file"
    elif kind == "dot":
        out, message = ".", ".: a directory, not a predictions file"
    else:
        out = parent / "p.csv"
        message = f"{out}: {parent} is not a directory"
    assert infer(graphs, weights, cfg_path, out) == 3
    assert message in caplog.text
    assert calls == []
    assert sorted(tmp_path.iterdir()) == ([parent] if kind == "file_parent" else [])


# each command that writes one file named by --out: the output it names
# and the call that does its work
OUT_COMMANDS = {
    "eval": ("report file", "pose_report"),
    "init-weights": ("weights file", "init_params"),
    "gen-synthetic": ("frames file", "generate"),
}


@pytest.mark.parametrize("kind", ["missing_parent", "file_parent", "directory", "empty", "dot"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_cli_refuses_an_unusable_out_before_any_work(tmp_path, caplog, monkeypatch, command, kind):
    what, work = OUT_COMMANDS[command]
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    parent = tmp_path / "nodir"
    if kind == "file_parent":
        parent.write_text("", encoding="utf-8")
    if kind == "directory":
        out, message = inputs, f"{inputs}: a directory, not a {what}"
    elif kind == "empty":
        out, message = "", f"'' names no {what}"
    elif kind == "dot":
        out, message = ".", f".: a directory, not a {what}"
    else:
        out, message = parent / "out.bin", f"{parent / 'out.bin'}: {parent} is not a directory"
    if command == "eval":
        formats.write_skeletons([(0, 0, np.eye(2, 3))], inputs / "p.csv")
        argv = ["eval", str(inputs / "p.csv"), str(inputs / "p.csv"), "--task", "pose"]
    elif command == "init-weights":
        write_config(inputs / "run.cfg")
        argv = ["init-weights", "--config", str(inputs / "run.cfg")]
    else:
        argv = ["gen-synthetic", "--frames", "2", "--points", "3"]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(out)]) == 3
    assert message in caplog.text
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("kind", ["records", "empty", "file", "file_parent", "dangling_link"])
def test_cli_extract_refuses_an_unusable_out_before_reading_frames(tmp_path, caplog, monkeypatch,
                                                                   kind):
    """An earlier run's records left in --out would be read by infer as this
    run's, and --out "" would put the records in the working directory."""
    frames_path, _ = gen_inputs(tmp_path, frames=3, points=12)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    monkeypatch.chdir(tmp_path)
    graphs = tmp_path / "graphs"
    if kind == "records":
        assert main(["extract", str(frames_path), "--config", str(cfg_path), "--out", str(graphs)]) == 0
        out, message = graphs, f"{graphs}: already holds graph records"
    elif kind == "empty":
        out, message = "", "'' names no output directory"
    elif kind == "file":
        out, message = frames_path, f"{frames_path}: {frames_path} is not a directory"
    elif kind == "dangling_link":
        graphs.symlink_to(tmp_path / "nowhere")
        out, message = graphs, f"{graphs}: {graphs} is not a directory"
    else:
        out = frames_path / "graphs"
        message = f"{out}: {frames_path} is not a directory"
    calls = []
    monkeypatch.setattr(formats, "read_frames", lambda *a: calls.append(a))
    before = sorted(tmp_path.rglob("*"))
    assert main(["extract", str(frames_path), "--config", str(cfg_path), "--out", str(out)]) == 3
    assert message in caplog.text
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_infer_on_an_empty_graphs_directory_writes_no_predictions(infer_inputs, tmp_path,
                                                                      caplog):
    # extract on frames that are all empty writes a manifest and no records
    _, weights, cfg_path = infer_inputs["pose"]
    formats.write_frames([RadarFrame(0, i, np.zeros((0, 5))) for i in range(2)],
                         tmp_path / "f.csv")
    graphs = tmp_path / "graphs"
    assert main(["extract", str(tmp_path / "f.csv"), "--config", str(cfg_path),
                 "--out", str(graphs)]) == 0
    assert [p.name for p in graphs.iterdir()] == ["manifest.txt"]
    out = tmp_path / "p.csv"
    caplog.set_level(logging.INFO, logger="cloudgraph")
    assert infer(graphs, weights, cfg_path, out) == 0
    assert f"wrote 0 predictions to {out}" in caplog.text
    assert formats.read_skeletons(out, 0) == {}


def test_cli_commands_parse_their_config_once(tmp_path, monkeypatch):
    frames_path, _ = gen_inputs(tmp_path, frames=2, points=12)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    parsed = []
    parse = cloudgraph.config.parse_config

    def counted_parse(text, path=None):
        parsed.append(path)
        return parse(text, path)

    monkeypatch.setattr(cloudgraph.config, "parse_config", counted_parse)
    graphs, weights, preds = tmp_path / "graphs", tmp_path / "w.bin", tmp_path / "p.csv"
    commands = [
        ["extract", str(frames_path), "--out", str(graphs)],
        ["init-weights", "--out", str(weights)],
        ["infer", str(graphs), "--weights", str(weights), "--out", str(preds)],
        ["eval", str(preds), str(preds), "--task", "pose"],
    ]
    for command in commands:
        parsed.clear()
        assert main([*command, "--config", str(cfg_path)]) == 0, command[0]
        assert parsed == [str(cfg_path)], command[0]


def test_cli_eval_pose_identity_and_shift(tmp_path, capsys):
    _, gt_path = gen_inputs(tmp_path)
    report_path = tmp_path / "report.txt"
    assert main(["eval", str(gt_path), str(gt_path), "--task", "pose",
                 "--mid-hip-index", "0", "--out", str(report_path)]) == 0
    text = report_path.read_text(encoding="utf-8")
    values = dict(line.split(maxsplit=1) for line in text.strip().splitlines()[1:])
    assert float(values["mpjpe_mm"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["pa_mpjpe_mm"]) == pytest.approx(0.0, abs=1e-6)
    assert float(values["rmse_cm"]) == pytest.approx(0.0, abs=1e-9)

    # shift every prediction by 10 cm: rmse sees it, mpjpe does not
    gts = formats.read_skeletons(gt_path, 0)
    shifted = [(s, f, pose + [0.1, 0.0, 0.0]) for (s, f), pose in sorted(gts.items())]
    shifted_path = tmp_path / "shifted.csv"
    formats.write_skeletons(shifted, shifted_path)
    assert main(["eval", str(shifted_path), str(gt_path), "--task", "pose",
                 "--out", str(report_path)]) == 0
    values = dict(
        line.split(maxsplit=1)
        for line in report_path.read_text(encoding="utf-8").strip().splitlines()[1:]
    )
    assert float(values["mpjpe_mm"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["rmse_cm"]) == pytest.approx(10.0 / np.sqrt(3.0), rel=1e-6)
    capsys.readouterr()


def test_cli_eval_id_mismatch_exit_5(tmp_path, np_rng):
    preds = [(0, 0, np_rng.normal(size=(4, 3)))]
    gts = [(9, 9, np_rng.normal(size=(4, 3)))]
    p_path, g_path = tmp_path / "p.csv", tmp_path / "g.csv"
    formats.write_skeletons(preds, p_path)
    formats.write_skeletons(gts, g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "pose"]) == 5


def test_cli_eval_activity(tmp_path, capsys):
    scores = [(0, 0, np.array([3.0, 0.0])), (0, 1, np.array([0.0, 3.0]))]
    labels = [(0, 0, 0), (0, 1, 0)]
    s_path, l_path = tmp_path / "s.csv", tmp_path / "l.csv"
    formats.write_scores(scores, s_path)
    formats.write_labels(labels, l_path)
    assert main(["eval", str(s_path), str(l_path), "--task", "activity"]) == 0
    out = capsys.readouterr().out
    assert "accuracy        0.500000" in out


def test_cli_eval_reports_coverage(tmp_path, capsys, np_rng):
    gts = [(0, f, np_rng.normal(size=(4, 3))) for f in range(4)]
    p_path, g_path = tmp_path / "p.csv", tmp_path / "g.csv"
    formats.write_skeletons(gts[:3], p_path)
    formats.write_skeletons(gts, g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "pose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "metric          value"
    assert lines[1].startswith("mpjpe_mm        ")
    assert lines[5] == "coverage        0.750000"

    scores = [(0, 0, np.array([3.0, 0.0])), (0, 1, np.array([0.0, 3.0]))]
    formats.write_scores(scores, p_path)
    formats.write_labels([(0, 0, 0), (0, 1, 0), (0, 2, 1), (1, 0, 1), (1, 1, 0)], g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "activity"]) == 0
    assert capsys.readouterr().out == (
        "metric          value\naccuracy        0.500000\ncoverage        0.400000\n"
    )


def test_cli_eval_label_outside_score_width_exit_7(tmp_path, caplog):
    s_path, l_path = tmp_path / "s.csv", tmp_path / "l.csv"
    formats.write_scores([(0, 0, np.array([3.0, 0.0])), (0, 1, np.array([0.0, 3.0]))], s_path)
    for label in (7, -1, 2**64 - 1):
        formats.write_labels([(0, 0, 1), (0, 1, label)], l_path)
        assert main(["eval", str(s_path), str(l_path), "--task", "activity"]) == 7
        assert f"{l_path}: (sequence, frame) (0, 1): class index {label} outside [0, 2)" in caplog.text


def test_cli_eval_keypoint_counts_differ_exit_7_naming_both_files(tmp_path, caplog, np_rng):
    p_path, g_path = tmp_path / "p.csv", tmp_path / "g.csv"
    formats.write_skeletons([(0, 0, np_rng.normal(size=(3, 3)))], p_path)
    formats.write_skeletons([(0, 0, np_rng.normal(size=(4, 3)))], g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "pose"]) == 7
    assert f"{p_path} has 3 keypoints per pose, {g_path} has 4" in caplog.text


@pytest.mark.parametrize("index", [3, -1])
def test_cli_eval_mid_hip_index_outside_keypoints_exit_7(tmp_path, caplog, np_rng, index):
    p_path = tmp_path / "p.csv"
    formats.write_skeletons([(0, 0, np_rng.normal(size=(3, 3)))], p_path)
    rc = main(["eval", str(p_path), str(p_path), "--task", "pose", "--mid-hip-index", str(index)])
    assert rc == 7
    assert f"{p_path}: mid-hip index {index} outside its 3 keypoints" in caplog.text


@pytest.mark.parametrize("index", ["7", "0"])
def test_cli_eval_config_with_mid_hip_index_exit_2(tmp_path, capsys, index):
    # the config's model_mid_hip_index would win over the option unseen; an
    # explicit 0, the index eval takes without either, is refused as well
    _, gt_path = gen_inputs(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(gt_path), str(gt_path), "--task", "pose", "--config", str(cfg_path),
              "--mid-hip-index", index])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cloudgraph eval")
    assert "argument --mid-hip-index: not allowed with argument --config" in err


@pytest.mark.parametrize("options", [["--per-keypoint"], ["--mid-hip-index", "5"],
                                     ["--per-keypoint", "--mid-hip-index", "0"]],
                         ids=["per_keypoint", "mid_hip_index", "both"])
def test_cli_eval_activity_with_pose_options_exit_2(tmp_path, capsys, options):
    # both options shape only a pose report; activity used to ignore them
    p_path, g_path = tmp_path / "s.csv", tmp_path / "l.csv"
    formats.write_scores([(0, 0, np.array([0.5, 0.5]))], p_path)
    formats.write_labels([(0, 0, 1)], g_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(p_path), str(g_path), "--task", "activity", *options])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cloudgraph eval")
    assert "--per-keypoint and --mid-hip-index apply to --task pose only" in err
    assert main(["eval", str(p_path), str(g_path), "--task", "activity"]) == 0


def test_cli_eval_no_predictions_exit_7(tmp_path, caplog):
    p_path, g_path = tmp_path / "s.csv", tmp_path / "l.csv"
    formats.write_scores([], p_path)
    formats.write_labels([(0, 0, 1)], g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "activity"]) == 7
    assert "no predictions" in caplog.text


@pytest.mark.parametrize("row", ["1,3", "0,1,0.5,0.5", "0,1,0.1,0.2,0.3,0.4"])
def test_cli_eval_score_row_width_exit_2(tmp_path, caplog, row):
    p_path, g_path = tmp_path / "s.csv", tmp_path / "l.csv"
    p_path.write_text("sequence_id,frame_id,score_0,score_1,score_2\n"
                      f"0,0,0.1,0.2,0.7\n{row}\n", encoding="utf-8")
    formats.write_labels([(0, 0, 2), (0, 1, 0), (1, 3, 0)], g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "activity"]) == 2
    assert f"line 3: expected 5 fields, got {row.count(',') + 1}" in caplog.text


@pytest.mark.parametrize("repeat", ["scores", "labels"])
def test_cli_eval_repeated_id_exit_2(tmp_path, caplog, repeat):
    # a second row for (0, 1) was read silently, the last row winning
    p_path, g_path = tmp_path / "s.csv", tmp_path / "l.csv"
    p_path.write_text("sequence_id,frame_id,score_0,score_1\n0,0,0.2,0.8\n0,1,0.5,0.5\n"
                      + ("0,1,0.9,0.1\n" if repeat == "scores" else ""), encoding="utf-8")
    g_path.write_text("sequence_id,frame_id,class_index\n0,0,1\n0,1,0\n"
                      + ("0,1,1\n" if repeat == "labels" else ""), encoding="utf-8")
    assert main(["eval", str(p_path), str(g_path), "--task", "activity"]) == 2
    assert "line 4: sequence 0 frame 1 repeats an earlier row" in caplog.text


@pytest.mark.parametrize("header, want", [
    # one row per keypoint, the layout before this one
    ("sequence_id,frame_id,keypoint,x,y,z", "sequence_id,frame_id,x0,y0,z0"),
    ("sequence_id,frame_id,x0,y0,z0,x2,y2,z2", "sequence_id,frame_id,x0,y0,z0,x1,y1,z1"),
    ("sequence_id,frame_id,x0,y0,z0,x1", "sequence_id,frame_id,x0,y0,z0"),
    ("sequence_id,frame_id,score_0,score_1,score_2", "sequence_id,frame_id,x0,y0,z0"),
], ids=["keypoint_rows", "skipped_keypoint", "partial_keypoint", "scores"])
def test_cli_eval_skeleton_header_other_than_the_pose_columns_exit_2(tmp_path, caplog, header, want):
    """The header fixes M, so each row holds M keypoints by construction."""
    p_path, g_path = tmp_path / "p.csv", tmp_path / "g.csv"
    p_path.write_text(header + "\n" + ",".join(["0"] * (header.count(",") + 1)) + "\n",
                      encoding="utf-8")
    formats.write_skeletons([(0, 0, np.eye(2, 3))], g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "pose"]) == 2
    assert f"{p_path}: line 1: expected header {want!r}" in caplog.text


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,frames,file\n", encoding="utf-8")
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    rc = main(["extract", str(bad), "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("field, section", [(0, "node"), (3, "frame")], ids=["x", "v"])
def test_cli_extract_rejects_finite_points_whose_features_overflow_exit_7(
    tmp_path, caplog, np_rng, field, section
):
    """x = 1e200 overflows the squared distances and v = 1e200 the frame
    features' squared deviations; the record would hold inf or NaN."""
    pts = np_rng.normal(size=(8, 5))
    pts[5, field] = 1e200
    frames = [RadarFrame(0, 0, np_rng.normal(size=(8, 5))), RadarFrame(0, 1, pts)]
    formats.write_frames(frames, tmp_path / "frames.csv")
    write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    rc = main(["extract", str(tmp_path / "frames.csv"), "--config", str(tmp_path / "run.cfg"),
               "--out", str(out)])
    assert rc == 7
    assert f"non-finite {section} features in sequence 0 frame 1" in caplog.text
    assert [p.name for p in out.glob("graph_*.bin")] == ["graph_00000_000000.bin"]


def test_cli_extract_on_points_at_plus_minus_1e308_exit_7(tmp_path, caplog, np_rng):
    """build_graph itself refuses the overflowing graph; extract logs its
    error, after writing the records before it."""
    pts = np_rng.normal(size=(8, 5))
    pts[2, 0], pts[5, 0] = 1e308, -1e308
    frames = [RadarFrame(0, 0, np_rng.normal(size=(8, 5))), RadarFrame(0, 1, pts)]
    formats.write_frames(frames, tmp_path / "frames.csv")
    write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    rc = main(["extract", str(tmp_path / "frames.csv"), "--config", str(tmp_path / "run.cfg"),
               "--out", str(out)])
    assert rc == 7
    assert "non-finite node features in sequence 0 frame 1" in caplog.text
    assert [p.name for p in out.glob("graph_*.bin")] == ["graph_00000_000000.bin"]


def test_cli_overflow_writes_only_its_error_line(tmp_path):
    """numpy warns of each overflow on the way to the non-finite features;
    the command's one ERROR line says all of it."""
    pts = np.random.default_rng(5).normal(size=(8, 5))
    pts[2, 0], pts[5, 0] = 1e308, -1e308
    formats.write_frames([RadarFrame(0, 0, pts)], tmp_path / "frames.csv")
    write_config(tmp_path / "run.cfg", pipe=PipelineConfig(K=2))
    src = str(Path(cloudgraph.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "cloudgraph.cli", "extract", str(tmp_path / "frames.csv"),
         "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 7
    assert run.stderr.splitlines() == ["ERROR non-finite node features in sequence 0 frame 0"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_point_exit_2_naming_line(tmp_path, caplog, value):
    frames_path = tmp_path / "frames.csv"
    frames_path.write_text(
        formats.FRAMES_HEADER + "\n0,4,1.0,2.0,3.0,0.0,1.0\n"
        f"0,4,{value},2.0,3.0,0.0,1.0\n0,4,0.5,2.5,3.0,0.0,1.0\n",
        encoding="utf-8",
    )
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    rc = main(["extract", str(frames_path), "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "line 3: non-finite point value in sequence 0 frame 4" in caplog.text
    assert not (tmp_path / "out").exists()


def test_cli_config_error_exit_6(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("K = 0\n", encoding="utf-8")
    rc = main(["extract", str(tmp_path / "missing.csv"),
               "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 6


@pytest.mark.parametrize("line, message", [
    ("bogus = 1", "unknown key 'bogus'"),
    ("K", "expected 'key = value'"),
    ("K = four", "K: expected integer, got 'four'"),
    ("cell_width = 0.1,x,0.1", "cell_width: expected real, got 'x'"),
    ("downsample_enabled = yes", "downsample_enabled: expected true/false, got 'yes'"),
])
def test_cli_config_line_error_exit_6_naming_file_and_line(tmp_path, caplog, line, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"# run\n{line}\n", encoding="utf-8")
    rc = main(["init-weights", "--config", str(cfg_path), "--out", str(tmp_path / "w.bin")])
    assert rc == 6
    assert f"{cfg_path}: line 2: {message}" in caplog.text


def seed_command(tmp_path, command, seed):
    """``command``'s argv with ``--seed seed`` (none if ``seed`` is None)
    and the path it writes."""
    cfg_path = tmp_path / "run.cfg"
    if not cfg_path.exists():
        write_config(cfg_path)
    argv = {
        "extract": ["extract", str(gen_inputs(tmp_path, frames=2, points=6)[0]),
                    "--config", str(cfg_path), "--out", str(tmp_path / "graphs")],
        "init-weights": ["init-weights", "--config", str(cfg_path), "--out", str(tmp_path / "w.bin")],
        "gen-synthetic": ["gen-synthetic", "--frames", "2", "--points", "3",
                          "--out", str(tmp_path / "synthetic.csv")],
    }[command]
    return argv + (["--seed", str(seed)] if seed is not None else []), Path(argv[argv.index("--out") + 1])


@pytest.mark.parametrize("seed", [2**64, 2**64 + 1, -1])
@pytest.mark.parametrize("command", ["extract", "init-weights", "gen-synthetic"])
def test_cli_seed_outside_u64_exit_6_writing_nothing(tmp_path, caplog, command, seed):
    # each was once reduced modulo 2**64: 2**64 + 1 wrote what seed 1 writes
    argv, out = seed_command(tmp_path, command, seed)
    assert main(argv) == 6
    assert not out.exists()
    assert f"seed must be in [0, 2**64), got {seed}" in caplog.text


@pytest.mark.parametrize("command", ["extract", "init-weights"])
def test_cli_config_seed_outside_u64_exit_6_writing_nothing(tmp_path, caplog, command):
    text = serialize_config(PipelineConfig(K=4), SMALL_MODEL).replace("seed = 0", "seed = -5")
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    argv, out = seed_command(tmp_path, command, None)
    assert main(argv) == 6
    assert not out.exists()
    assert "seed must be in [0, 2**64), got -5" in caplog.text


@pytest.mark.parametrize("command", ["extract", "init-weights", "gen-synthetic"])
def test_cli_largest_u64_seed_is_accepted(tmp_path, command):
    argv, out = seed_command(tmp_path, command, 2**64 - 1)
    assert main(argv) == 0
    assert out.exists()


def test_cli_main_reuses_one_parser(tmp_path, monkeypatch):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(parser, *args, **kwargs):
        used.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for seed in (1, 2, 3):
        gen_inputs(tmp_path, frames=1, points=2, seed=seed)
    assert len(used) == 3
    assert all(parser is build_parser() for parser in used)


def test_importing_cloudgraph_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import cloudgraph, cloudgraph.cli\n"
        "assert not built, f'import built {len(built)} parsers'\n"
        "cloudgraph.cli.build_parser()\n"
        "assert built\n"
    )
    src = str(Path(cloudgraph.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("argv", [[], ["bogus"], ["extract"], ["gen-synthetic", "--seed", "9"],
                                  ["eval", "p.csv", "t.csv", "--task", "height"]],
                         ids=["none", "unknown", "missing", "partial", "bad-choice"])
def test_cli_usage_error_exit_2_leaves_the_next_call_working(tmp_path, capsys, argv):
    (tmp_path / "before").mkdir()
    (tmp_path / "after").mkdir()
    before, _ = gen_inputs(tmp_path / "before")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: cloudgraph")
    after, _ = gen_inputs(tmp_path / "after")
    assert after.read_bytes() == before.read_bytes()


def help_texts():
    """The ``--help`` output of each command at 80 columns, keyed by argv."""
    text = (Path(__file__).resolve().parent / "data" / "cli_help.txt").read_text(encoding="utf-8")
    parts = re.split(r"^=== (.*)\n", text, flags=re.M)[1:]
    return dict(zip(parts[::2], parts[1::2]))


@pytest.mark.parametrize("command", ["", "extract", "show", "infer", "eval", "gen-synthetic",
                                     "init-weights"])
def test_cli_help_text_unchanged(capsys, monkeypatch, command):
    argv = [command, "--help"] if command else ["--help"]
    # a narrower terminal first: the shared parser must not keep its width
    monkeypatch.setenv("COLUMNS", "40")
    with pytest.raises(SystemExit):
        main(argv)
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == help_texts()[" ".join(["cloudgraph", *argv])]


@pytest.mark.parametrize("kind, code", [("frames", 2), ("config", 6), ("skeletons", 2)])
def test_cli_non_utf8_input_names_file_and_line(tmp_path, caplog, kind, code):
    """A byte that is not UTF-8, here 0xff, ends in a ParseError (exit 2),
    or a ConfigError (exit 6) for the config, naming the file and the line.
    The lines before it count CR and CR LF breaks as the readers do: a
    config's lines split as ``splitlines`` splits, so 0xff is on line 3; a
    CSV line ends only at LF, so it is on line 2, and any byte outside ASCII
    is refused there."""
    frames_path, gt_path = gen_inputs(tmp_path, frames=2, points=6)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    bad = {"frames": frames_path, "config": cfg_path, "skeletons": gt_path}[kind]
    first, second, rest = bad.read_bytes().split(b"\n", 2)
    bad.write_bytes(first + b"\r\n" + second + b"\r" + rest[:3] + b"\xff" + rest[3:])
    if kind == "skeletons":
        rc = main(["eval", str(gt_path), str(gt_path), "--task", "pose"])
    else:
        rc = main(["extract", str(frames_path), "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == code
    if kind == "config":
        assert f"{bad}: line 3: not UTF-8 (byte 0xff)" in caplog.text
    else:
        assert f"{bad}: line 2: not ASCII (byte 0xff)" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seq, fid", [(0, -5), (-1, 0), (2**64, 0), (0, 2**64)])
def test_cli_extract_id_outside_u8_exit_2(tmp_path, caplog, seq, fid):
    """Records store ids as u8, and a frame id below 0 is no frame."""
    frames_path = tmp_path / "frames.csv"
    frames_path.write_text(formats.FRAMES_HEADER + "\n0,0,1.0,2.0,3.0,0.0,1.0\n"
                           f"{seq},{fid},0.5,2.5,3.0,0.0,1.0\n", encoding="utf-8")
    write_config(tmp_path / "run.cfg")
    rc = main(["extract", str(frames_path), "--config", str(tmp_path / "run.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "line 3: sequence or frame id outside [0, 2^64)" in caplog.text


@pytest.mark.parametrize("line", [
    "cell_width = nan,0.1,0.1",
    "cell_width = inf,0.1,0.1",
    "epsilon = nan",
    "epsilon = inf",
    "model_leaky_slope = nan",
    "model_leaky_slope = -inf",
])
def test_cli_non_finite_config_exit_6(tmp_path, line):
    frames_path, _ = gen_inputs(tmp_path, frames=1, points=20)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(line + "\n", encoding="utf-8")
    rc = main(["extract", str(frames_path), "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 6
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, field", [
    (["model_edge_units ="], "edge_units"),
    (["model_frame_units = -2"], "frame_units"),
    (["model_edge_units = 16,0"], "edge_units"),
    (["model_sequential = true", "model_stride = 0"], "stride"),
    (["model_sequential = true", "model_window = 0"], "window"),
    (["model_sequential = true", "model_stride = -1"], "stride"),
    (["model_mid_hip_index = 5"], "mid_hip_index 5 outside the 5 keypoints"),
    (["model_mid_hip_index = -1"], "mid_hip_index -1 outside the 5 keypoints"),
], ids=["empty_edge_units", "negative_frame_width", "zero_edge_width",
        "zero_stride", "zero_window", "negative_stride", "mid_hip_past_keypoints",
        "negative_mid_hip"])
def test_cli_degenerate_model_shape_exit_6(tmp_path, caplog, lines, field):
    graphs, weights, cfg_path = extract_and_init(tmp_path, "pose", frames=1, points=12)
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg_path.read_text(encoding="utf-8") + "\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, bad, out) == 6
    assert main(["init-weights", "--config", str(bad), "--out", str(tmp_path / "w2.bin")]) == 6
    assert not out.exists() and not (tmp_path / "w2.bin").exists()
    assert field in caplog.text


def test_cli_truncated_or_overlong_binaries_exit_4(tmp_path):
    graphs, weights, cfg_path = extract_and_init(tmp_path, "pose", frames=1, points=20)
    (record,) = graphs.glob("graph_*.bin")
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, cfg_path, out) == 0
    for path in (record, weights):
        data = path.read_bytes()
        # cut inside the magic, the fixed header, the first tensor or array,
        # and at the last byte; then one byte too many
        cut = [data[:size] for size in (0, 3, 6, 10, 63, 64, 200, len(data) - 1)]
        for bad in cut + [data + b"\x00"]:
            path.write_bytes(bad)
            assert infer(graphs, weights, cfg_path, out) == 4, (path.name, len(bad))
        path.write_bytes(data)


def weights_layout(data: bytes):
    """(header start, data start, data end) of each tensor of a well-formed
    weights file, in file order."""
    layout, pos = [], 12
    for _ in range(struct.unpack_from("<I", data, 8)[0]):
        (nlen,) = struct.unpack_from("<H", data, pos)
        ndim = data[pos + 2 + nlen]
        dims = struct.unpack_from(f"<{ndim}I", data, pos + 3 + nlen)
        start = pos + 3 + nlen + 4 * ndim
        layout.append((pos, start, start + 8 * int(np.prod(dims))))
        pos = layout[-1][2]
    assert pos == len(data)
    return layout


def test_cli_weights_cut_inside_a_header_or_tensor_data_exit_4(tmp_path, caplog):
    graphs, weights, cfg_path = extract_and_init(tmp_path, "pose", frames=1)
    data = weights.read_bytes()
    layout = weights_layout(data)
    out = tmp_path / "p.csv"
    # inside the version, at the count, after the count
    sizes = [5, 8, 12]
    for header, start, end in (layout[0], layout[len(layout) // 2], layout[-1]):
        # inside the name length, the name, the dims, then the values
        sizes += [header + 1, header + 3, start - 1, start + 4, end - 8]
    for size in sizes:
        caplog.clear()
        weights.write_bytes(data[:size])
        assert infer(graphs, weights, cfg_path, out) == 4, size
        message = f"{weights}: {size} bytes, but the model's manifest implies {len(data)}"
        assert message in caplog.text, size
    weights.write_bytes(data)
    assert infer(graphs, weights, cfg_path, out) == 0


def test_cli_sequential_infer_window(tmp_path):
    frames_path, _ = gen_inputs(tmp_path, frames=8)
    cfg_path = tmp_path / "run.cfg"
    model = ModelShape(head="pose", output_size=5, mid_hip_index=0,
                       edge_units=(6,), node_units=(8,), gat_units=(6,),
                       frame_units=(8,), pred_units=(8,), sequential=True,
                       lstm_hidden=6, window=4, stride=2)
    write_config(cfg_path, model=model)
    out_dir = tmp_path / "graphs"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    weights = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--seed", "5",
                 "--out", str(weights)]) == 0
    preds_path = tmp_path / "preds.csv"
    assert main(["infer", str(out_dir), "--weights", str(weights),
                 "--config", str(cfg_path), "--out", str(preds_path)]) == 0
    preds = formats.read_skeletons(preds_path, 0)
    # windows end at frames 3, 5, 7 with stride 2
    assert sorted(f for _, f in preds) == [3, 5, 7]


def test_cli_sequential_infer_drops_windows_across_a_gap(tmp_path):
    # frame 2 is empty, so extract skips it; no LSTM window may hold frames 1 and 3
    frames_path, _ = gen_inputs(tmp_path)
    frames = formats.read_frames(frames_path)
    frames[2] = RadarFrame(frame_id=2, sequence_id=frames[2].sequence_id, points=())
    formats.write_frames(frames, frames_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, model=replace(SMALL_MODEL, sequential=True, lstm_hidden=6, window=2))
    graphs, weights = tmp_path / "graphs", tmp_path / "w.bin"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(graphs)]) == 0
    assert main(["init-weights", "--config", str(cfg_path), "--out", str(weights)]) == 0
    preds_path = tmp_path / "preds.csv"
    assert infer(graphs, weights, cfg_path, preds_path) == 0
    assert sorted(f for _, f in formats.read_skeletons(preds_path, 0)) == [1, 4, 5]


SEQ_MODEL = replace(SMALL_MODEL, sequential=True, lstm_hidden=6, window=3)
# sequence 0: frames 0-9; sequence 1: two frames, fewer than a window;
# sequence 2: frames 0-3 and 5-8, a gap at frame 4
STREAM_IDS = [(0, f) for f in range(10)] + [(1, 0), (1, 1)] + [(2, f) for f in (0, 1, 2, 3, 5, 6, 7, 8)]


def records_and_weights(tmp_path, np_rng, ids, model):
    """Records of 12-point random frames with the (sequence, frame) ``ids``,
    and weights for ``model`` with non-zero biases: returns (graphs dir,
    weights file, config file, the saved parameters)."""
    frames = [random_frame(np_rng, 12, sequence_id=s, frame_id=f) for s, f in ids]
    formats.write_frames(frames, tmp_path / "frames.csv")
    cfg_path = tmp_path / "run.cfg"
    pipe, _ = write_config(cfg_path, model=model)
    graphs = tmp_path / "graphs"
    assert main(["extract", str(tmp_path / "frames.csv"), "--config", str(cfg_path),
                 "--out", str(graphs)]) == 0
    params = init_params(model, pipe, SplitMix64(3))
    for name, arr in params.tensors.items():
        if name.endswith(".b"):
            arr[...] = np_rng.normal(scale=0.3, size=arr.shape)
    save_params(params, tmp_path / "w.bin")
    return graphs, tmp_path / "w.bin", cfg_path, params


@pytest.mark.parametrize("stride, ends", [
    (1, [(0, f) for f in range(2, 10)] + [(2, 2), (2, 3), (2, 7), (2, 8)]),
    # frame 9 of sequence 0 is a tail shorter than a window, and the
    # window of frames 3, 5, 6 spans the gap
    (3, [(0, 2), (0, 5), (0, 8), (2, 2)]),
])
def test_cli_streamed_sequential_infer_equals_a_loop_over_loaded_windows(tmp_path, np_rng,
                                                                         stride, ends):
    model = replace(SEQ_MODEL, stride=stride)
    graphs, weights, cfg_path, params = records_and_weights(tmp_path, np_rng, STREAM_IDS, model)
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, cfg_path, out) == 0
    got = formats.read_skeletons(out, 0)
    assert sorted(got) == ends
    for seq, end in ends:
        window = [formats.read_graph_record(graphs / f"graph_{seq:05d}_{f:06d}.bin")
                  for f in range(end - 2, end + 1)]
        want = predict_sequential(params, [encode_graph(params, g) for g in window])
        assert np.array_equal(got[seq, end], want), (seq, end)


def test_cli_sequential_infer_logs_the_windows_dropped_at_a_gap(tmp_path, np_rng, caplog):
    # frames 0-2 and 4-5: of the windows of two, only the one ending at
    # frame 4 holds the gap
    ids = [(0, f) for f in (0, 1, 2, 4, 5)]
    graphs, weights, cfg_path, _ = records_and_weights(tmp_path, np_rng, ids,
                                                       replace(SEQ_MODEL, window=2))
    caplog.set_level(logging.INFO, logger="cloudgraph")
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, cfg_path, out) == 0
    assert sorted(f for _, f in formats.read_skeletons(out, 0)) == [1, 2, 5]
    assert "windows dropped at frame gaps: 1" in caplog.text


def test_cli_streamed_framewise_infer_equals_each_loaded_record(tmp_path, np_rng):
    graphs, weights, cfg_path, params = records_and_weights(tmp_path, np_rng, STREAM_IDS,
                                                            SMALL_MODEL)
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, cfg_path, out) == 0
    got = formats.read_skeletons(out, 0)
    assert sorted(got) == sorted(STREAM_IDS)
    for path in graphs.glob("graph_*.bin"):
        graph = formats.read_graph_record(path)
        want = predict_framewise(params, encode_graph(params, graph))
        assert np.array_equal(got[graph.sequence_id, graph.frame_id], want), path.name


def test_cli_infer_orders_records_by_their_ids_past_six_digits(tmp_path, np_rng):
    # names pad frame ids to six digits, so by name frame 1,000,000 sorts
    # before frame 999,995
    ids = [(0, f) for f in range(999_995, 1_000_005)]
    graphs, weights, cfg_path, _ = records_and_weights(tmp_path, np_rng, ids, SEQ_MODEL)
    assert sorted(p.name for p in graphs.glob("graph_*.bin"))[0] == "graph_00000_1000000.bin"
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, cfg_path, out) == 0
    assert sorted(f for _, f in formats.read_skeletons(out, 0)) == list(range(999_997, 1_000_005))


@pytest.mark.parametrize("name, move", [
    ("graph_00000_000007.bin", shutil.move),
    ("graph_copy.bin", shutil.move),
    ("graph_0_0_0.bin", shutil.move),
    # the name's ids are the header's, unpadded
    ("graph_0_0.bin", shutil.move),
    # a second name for a record would have it predicted twice
    ("graph_0_0.bin", shutil.copyfile),
], ids=["graph_00000_000007.bin", "graph_copy.bin", "graph_0_0_0.bin", "graph_0_0.bin",
        "graph_0_0.bin-copy"])
def test_cli_infer_record_whose_name_disagrees_with_its_header_exit_4(tmp_path, caplog, name,
                                                                       move):
    graphs, weights, cfg_path = extract_and_init(tmp_path, "pose")
    move(graphs / "graph_00000_000000.bin", graphs / name)
    assert infer(graphs, weights, cfg_path, tmp_path / "p.csv") == 4
    assert f"{graphs / name}: header ids (0, 0) differ from its name" in caplog.text


@pytest.mark.parametrize("model", [SMALL_MODEL, SEQ_MODEL], ids=["framewise", "sequential"])
def test_cli_infer_peak_memory_does_not_grow_by_a_record(tmp_path, np_rng, model):
    """infer holds one record at a time: 24 more 128-point records raise its
    peak by less than one record."""
    cfg_path = tmp_path / "run.cfg"
    pipe, _ = write_config(cfg_path, pipe=PipelineConfig(K=20), model=model)
    weights = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--out", str(weights)]) == 0
    graph = build_graph([random_frame(np_rng, 128)], pipe)
    peaks = []
    for count in (8, 32):
        graphs = tmp_path / f"graphs{count}"
        graphs.mkdir()
        for f in range(count):
            g = replace(graph, frame_id=f)
            formats.write_graph_record(g, graphs / formats.graph_record_name(g))
        # a first run, so one-time allocations count in neither peak
        assert infer(graphs, weights, cfg_path, tmp_path / "p.csv") == 0
        code, peak = traced_peak(infer, graphs, weights, cfg_path, tmp_path / "p.csv")
        assert code == 0
        peaks.append(peak)
    record = (graphs / "graph_00000_000000.bin").stat().st_size
    assert peaks[1] - peaks[0] < record


def test_cli_infer_weights_declaring_a_huge_tensor_exit_4_without_allocating(tmp_path, caplog):
    graphs, saved, cfg_path = extract_and_init(tmp_path, "pose")
    weights = tmp_path / "huge.bin"
    # one tensor of (2**32 - 1)**2 values, the most two u32 dims can declare
    weights.write_bytes(b"PCGW" + struct.pack("<IIH", 1, 1, 1) + b"t"
                        + struct.pack("<BII", 2, 2**32 - 1, 2**32 - 1))
    code, peak = traced_peak(infer, graphs, weights, cfg_path, tmp_path / "p.csv")
    assert code == 4
    assert peak < 1 << 20
    assert (f"{weights}: {weights.stat().st_size} bytes, but the model's manifest implies "
            f"{saved.stat().st_size}") in caplog.text


def test_cli_infer_weights_repeating_a_tensor_name_exit_4(tmp_path, caplog):
    graphs, weights, cfg_path = extract_and_init(tmp_path, "pose")
    bias_shape = (3 * SMALL_MODEL.output_size,)
    size = weights.stat().st_size
    append_tensor(weights, "h_pred.1.b", np.full(bias_shape, 7.0))
    assert infer(graphs, weights, cfg_path, tmp_path / "p.csv") == 4
    assert (f"{weights}: {weights.stat().st_size} bytes, but the model's manifest implies "
            f"{size}") in caplog.text


def test_cli_infer_weights_with_their_tensors_reversed_exit_4(tmp_path, caplog):
    # the same tensors, names and values in the opposite of manifest order:
    # the size matches, the first header does not
    graphs, weights, cfg_path = extract_and_init(tmp_path, "pose")
    data = weights.read_bytes()
    layout = weights_layout(data)
    weights.write_bytes(data[:12] + b"".join(data[h:end] for h, _, end in reversed(layout)))
    assert infer(graphs, weights, cfg_path, tmp_path / "p.csv") == 4
    assert f"{weights}: expected tensor h_edge.0.W of shape " in caplog.text


# -- corrupt inputs and non-finite values --------------------------------------


@pytest.fixture(scope="module")
def infer_inputs(tmp_path_factory):
    """Per head, the inputs of one small infer run, built once."""
    return {head: extract_and_init(tmp_path_factory.mktemp(head), head) for head in SMALL_MODELS}


def infer_with_one_file_mutated(inputs, data, mutate):
    """Copy one head's graph records and weights file, rewrite one file
    drawn from them as ``mutate(bytearray of it)`` returns it, and run
    infer: it exits 0, 4 or 7, and on 0 every prediction is finite."""
    graphs, weights, cfg_path = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "graphs").mkdir()
        for record in graphs.glob("graph_*.bin"):
            shutil.copy(record, tmp / "graphs")
        shutil.copy(weights, tmp / "w.bin")
        files = sorted((tmp / "graphs").glob("graph_*.bin")) + [tmp / "w.bin"]
        target = data.draw(st.sampled_from(files), label="file")
        target.write_bytes(bytes(mutate(bytearray(target.read_bytes()))))
        out = tmp / "p.csv"
        rc = infer(tmp / "graphs", tmp / "w.bin", cfg_path, out)
        assert rc in (0, 4, 7)
        if rc == 0:
            values = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            assert values.size and np.isfinite(values).all()


@pytest.mark.parametrize("head", sorted(SMALL_MODELS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_infer_survives_any_cut_or_bit_flip(infer_inputs, head, data):
    """Cut a graph record or the weights file at any offset, or flip any one
    of its bits: infer exits 0, 4 or 7, and on 0 every prediction is finite."""
    def mutate(blob):
        if data.draw(st.booleans(), label="cut"):
            return blob[: data.draw(st.integers(0, len(blob) - 1), label="size")]
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
        return blob

    infer_with_one_file_mutated(infer_inputs[head], data, mutate)


@pytest.fixture(scope="module")
def text_inputs(tmp_path_factory):
    """A frames CSV, its skeleton CSV and a run config, built once."""
    tmp = tmp_path_factory.mktemp("text")
    frames_path, gt_path = gen_inputs(tmp, frames=3, points=8)
    cfg_path = tmp / "run.cfg"
    write_config(cfg_path, pipe=PipelineConfig(K=3, F=2))
    formats.write_scores([(0, f, np.array([0.5, -1.25, 3.0])) for f in range(3)], tmp / "s.csv")
    formats.write_labels([(0, f, f) for f in range(3)], tmp / "l.csv")
    return {"frames": frames_path.read_bytes(), "skeletons": gt_path.read_bytes(),
            "config": cfg_path.read_bytes(), "scores": (tmp / "s.csv").read_bytes(),
            "labels": (tmp / "l.csv").read_bytes()}


# bytes a mutation writes: the CSV and config syntax, a non-UTF-8 byte,
# NUL, the CR and CR LF line breaks, the digit separator and whitespace that
# Python's and numpy's number parsers read differently, and a non-ASCII digit
MUTATION_BYTES = [bytes([b]) for b in b"0123456789-+.,=eEinaf_ \t\x0b\x0c\x1c\n\r\x00\xff"] + [
    b"\r\n", "\u0665".encode()]


@pytest.mark.parametrize("kind", ["frames", "config", "skeletons", "scores", "labels"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_survives_any_byte_mutation_of_a_text_input(text_inputs, kind, data):
    """Overwrite, insert or delete a few bytes of a frames CSV or a run
    config, then extract, or of a skeleton CSV, then eval it against the
    original, or of a scores or labels CSV, then eval it against the other,
    unmutated: the command exits 0, 2, 3, 5, 6 or 7, and after an extract
    that exits 0 every record reads back."""
    blob = bytearray(text_inputs[kind])
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        at = data.draw(st.integers(0, len(blob)), label="at")
        op = data.draw(st.sampled_from(["overwrite", "insert", "delete"]), label="op")
        new = data.draw(st.sampled_from(MUTATION_BYTES), label="byte")
        blob[at : at + (op != "insert")] = b"" if op == "delete" else new
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, original in text_inputs.items():
            (tmp / name).write_bytes(bytes(blob) if name == kind else original)
        if kind == "skeletons":
            (tmp / "truth").write_bytes(text_inputs["skeletons"])
            rc = main(["eval", str(tmp / "skeletons"), str(tmp / "truth"), "--task", "pose"])
        elif kind in ("scores", "labels"):
            rc = main(["eval", str(tmp / "scores"), str(tmp / "labels"), "--task", "activity"])
        else:
            rc = main(["extract", str(tmp / "frames"), "--config", str(tmp / "config"),
                       "--out", str(tmp / "out")])
        assert rc in (0, 2, 3, 5, 6, 7)
        if rc == 0 and kind in ("frames", "config"):
            for record in (tmp / "out").glob("graph_*.bin"):
                formats.read_graph_record(record)


@pytest.mark.parametrize("head", sorted(SMALL_MODELS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_infer_survives_any_byte_mutation_of_a_binary_input(infer_inputs, head, data):
    """Overwrite, insert or delete 1-4 bytes of a graph record or the
    weights file, or truncate it: infer exits 0, 4 or 7, and on 0 every
    prediction is finite."""
    def mutate(blob):
        if data.draw(st.booleans(), label="truncate"):
            return blob[: data.draw(st.integers(0, len(blob) - 1), label="size")]
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            at = data.draw(st.integers(0, len(blob)), label="at")
            op = data.draw(st.sampled_from(["overwrite", "insert", "delete"]), label="op")
            new = bytes([data.draw(st.integers(0, 255), label="byte")])
            blob[at : at + (op != "insert")] = b"" if op == "delete" else new
        return blob

    infer_with_one_file_mutated(infer_inputs[head], data, mutate)


def scaled_eval_inputs(tmp, task, exponent):
    """Predictions of 3 frames scaled by 2**exponent against their unscaled
    ground truth; every truth value lies in (-1, 1), so every prediction is
    finite.  Returns the two paths."""
    rng = np.random.default_rng(5)
    p_path, t_path = tmp / "p.csv", tmp / "t.csv"
    if task == "pose":
        truth = [(0, f, rng.uniform(-1, 1, size=(5, 3))) for f in range(3)]
        formats.write_skeletons([(s, f, np.ldexp(kp, exponent)) for s, f, kp in truth], p_path)
        formats.write_skeletons(truth, t_path)
    else:
        formats.write_scores([(0, f, np.ldexp(rng.uniform(-1, 1, size=4), exponent))
                              for f in range(3)], p_path)
        formats.write_labels([(0, f, f) for f in range(3)], t_path)
    return p_path, t_path


@pytest.mark.parametrize("task", ["pose", "activity"])
@settings(max_examples=60, deadline=None)
@given(exponent=st.integers(-1074, 1023))
def test_cli_eval_of_scaled_predictions_exits_7_or_reports_finite_values(task, exponent):
    """Scale the predictions by any power of two that keeps them finite:
    eval exits 7, or exits 0 with a report of finite values only."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        p_path, t_path = scaled_eval_inputs(tmp, task, exponent)
        out = tmp / "report.txt"
        per_keypoint = ["--per-keypoint"] if task == "pose" else []
        rc = main(["eval", str(p_path), str(t_path), "--task", task, *per_keypoint,
                   "--out", str(out)])
        assert rc in (0, 7)
        if rc == 0:
            lines = out.read_text().splitlines()
            values = [float(v) for line in lines if not line.startswith(("metric", "keypoint"))
                      for v in line.split()[1:]]
            assert len(values) == (5 + 2 * 5 if task == "pose" else 2)
            assert np.isfinite(values).all()
        else:
            assert not out.exists()


def test_cli_eval_pose_predictions_far_from_the_truth_exit_7(tmp_path, caplog, capsys):
    # predictions = truth x 2**665 (about 1e200) used to exit 0 with
    # "mpjpe_mm inf" and a PA-MPJPE of about 1,278 mm
    p_path, t_path = scaled_eval_inputs(tmp_path, "pose", 665)
    out = tmp_path / "report.txt"
    assert main(["eval", str(p_path), str(t_path), "--task", "pose", "--out", str(out)]) == 7
    assert "prediction variance or covariance overflows in pa_mpjpe alignment" in caplog.text
    assert not out.exists() and capsys.readouterr().out == ""


def test_cli_eval_pose_report_with_a_non_finite_metric_exit_7(tmp_path, caplog, capsys):
    # every prediction shifted by 1e160: mpjpe and pa_mpjpe stay finite,
    # the squared errors of rmse do not
    p_path, t_path = scaled_eval_inputs(tmp_path, "pose", 0)
    shifted = [(s, f, pose + 1e160)
               for (s, f), pose in sorted(formats.read_skeletons(p_path, 0).items())]
    formats.write_skeletons(shifted, p_path)
    assert main(["eval", str(p_path), str(t_path), "--task", "pose"]) == 7
    assert "rmse_cm is not finite" in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("head", sorted(SMALL_MODELS))
@pytest.mark.parametrize("section, message", [
    ("node", "non-finite node features in sequence 0 frame 1"),
    ("edge_features", "non-finite edge features in sequence 0 frame 1"),
    ("frame", "non-finite frame features in sequence 0 frame 1"),
    ("edge_index", "edge index out of range"),
    ("self_edge", "explicit self-edges are not stored"),
    ("weights", "has a non-finite value"),
])
def test_cli_infer_corrupt_payload_exit_4(tmp_path, caplog, head, section, message):
    graphs, weights, cfg_path = extract_and_init(tmp_path, head)
    record = sorted(graphs.glob("graph_*.bin"))[-1]
    g = formats.read_graph_record(record)
    n, dn = g.node_features.shape
    table_at = formats._GRAPH_HEADER.size + 8 * n * dn
    efeat_at = table_at + 4 * g.num_edges
    bad = record
    if section == "node":
        patch_bytes(record, formats._GRAPH_HEADER.size + 8 * 7, "<d", np.nan)
    elif section == "edge_features":
        patch_bytes(record, efeat_at + 8 * 3, "<d", np.inf)
    elif section == "frame":
        patch_bytes(record, len(record.read_bytes()) - 8, "<d", -np.inf)
    elif section == "edge_index":  # source of edge 2
        patch_bytes(record, table_at + 4 * 2, "<I", 10**6)
    elif section == "self_edge":  # source of edge 0, whose target is node 0
        assert g.edges[0, 0] == 0
        patch_bytes(record, table_at, "<I", 0)
    else:  # the last value of the last tensor
        bad = weights
        patch_bytes(weights, len(weights.read_bytes()) - 8, "<d", np.nan)
    assert infer(graphs, weights, cfg_path, tmp_path / "p.csv") == 4
    assert f"{bad}: " in caplog.text and message in caplog.text


def test_cli_v1_record_exit_4(tmp_path, caplog, capsys):
    """A version 1 record, which stored E x 2 u4 (target, source) pairs where
    version 2 stores the n x k table, is refused by infer and show."""
    graphs, weights, cfg_path = extract_and_init(tmp_path, "pose", frames=1)
    (record,) = graphs.glob("graph_*.bin")
    g = formats.read_graph_record(record)
    header = formats._GRAPH_HEADER.pack(
        formats.GRAPH_MAGIC, 1, g.sequence_id, g.frame_id, g.num_nodes, g.num_edges,
        g.node_features.shape[1], g.edge_features.shape[1], g.frame_features.shape[0])
    record.write_bytes(header + g.node_features.tobytes() + g.edges.astype("<u4").tobytes()
                       + g.edge_features.tobytes() + g.frame_features.tobytes())
    assert infer(graphs, weights, cfg_path, tmp_path / "p.csv") == 4
    capsys.readouterr()
    assert main(["show", str(record)]) == 4
    assert capsys.readouterr().out == ""
    assert caplog.text.count(f"{record}: unsupported graph version 1") == 2


def test_cli_infer_peak_memory_below_1_7_records(tmp_path, np_rng):
    """The record's sections reach the model as read, without copies, and
    its edge section is freed once the edge logits exist, before attention
    runs: one 1,024-point default-shape record, 1.2 MB, peaks below 1.7x
    its size.  Holding the section through attention peaks near 2x."""
    formats.write_frames([RadarFrame(0, 0, np_rng.normal(size=(1024, 5)))],
                         tmp_path / "frames.csv")
    cfg = tmp_path / "run.cfg"
    write_config(cfg, pipe=PipelineConfig(K=20), model=ModelShape())
    graphs, weights = tmp_path / "graphs", tmp_path / "w.bin"
    assert main(["extract", str(tmp_path / "frames.csv"), "--config", str(cfg),
                 "--out", str(graphs)]) == 0
    assert main(["init-weights", "--config", str(cfg), "--out", str(weights)]) == 0
    (record,) = graphs.glob("graph_*.bin")
    # header, 1,024 x 19 node values, the 1,024 x 20 u4 table, 20,480 x 6
    # edge values and 380 frame values
    assert record.stat().st_size == 64 + 8 * 19456 + 4 * 20480 + 8 * 122880 + 8 * 380 == 1223712
    code, peak = traced_peak(infer, graphs, weights, cfg, tmp_path / "p.csv")
    assert code == 0
    assert peak < 1.7 * record.stat().st_size


@pytest.mark.parametrize("kind, message", [
    ("node", "graph node width 5 does not match model"),
    ("edge", "graph edge features do not match the edge block"),
    ("frame", "graph frame features do not match the frame block"),
    ("empty", "cannot represent a graph with zero nodes"),
])
def test_cli_infer_of_records_the_model_cannot_read_exit_7(tmp_path, caplog, kind, message):
    """Records extracted without one feature section, or a record of no
    nodes, under a model built for every section."""
    graphs, weights, cfg_path = extract_and_init(tmp_path, "pose")
    shutil.rmtree(graphs)
    if kind == "empty":
        graphs.mkdir()
        graph = PointGraph(0, 0, np.zeros((0, 19)), np.zeros((0, 4)), np.zeros((0, 6)),
                           np.zeros(380))
        formats.write_graph_record(graph, graphs / formats.graph_record_name(graph))
    else:
        write_config(tmp_path / "off.cfg", pipe=PipelineConfig(K=4, **{f"enable_{kind}_features": False}))
        assert main(["extract", str(tmp_path / "frames.csv"), "--config", str(tmp_path / "off.cfg"),
                     "--out", str(graphs)]) == 0
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, cfg_path, out) == 7
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("head", sorted(SMALL_MODELS))
def test_cli_infer_non_finite_prediction_exit_7(tmp_path, caplog, head):
    """Finite but huge weights overflow in the prediction block."""
    from cloudgraph.gnn import load_params, save_params

    graphs, weights, cfg_path = extract_and_init(tmp_path, head)
    params = load_params(weights, SMALL_MODELS[head], PipelineConfig(K=4))
    for name, arr in params.tensors.items():
        if name.startswith("h_pred.") and name.endswith(".W"):
            arr[...] = 1e300
    save_params(params, weights)
    out = tmp_path / "p.csv"
    assert infer(graphs, weights, cfg_path, out) == 7
    assert "non-finite prediction for sequence 0 frame 0" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_eval_non_finite_text_values_exit_2(tmp_path, caplog, value):
    p_path, g_path = tmp_path / "p.csv", tmp_path / "g.csv"
    p_path.write_text(f"sequence_id,frame_id,x0,y0,z0,x1,y1,z1\n0,0,0.0,0.0,0.0,1.0,{value},0.0\n",
                      encoding="utf-8")
    formats.write_skeletons([(0, 0, np.eye(2, 3))], g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "pose"]) == 2
    assert "line 2: non-finite skeleton value" in caplog.text

    # a NaN used to win the argmax and score a hit
    p_path.write_text(f"sequence_id,frame_id,score_0,score_1\n0,0,{value},1.0\n", encoding="utf-8")
    formats.write_labels([(0, 0, 0)], g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "activity"]) == 2
    assert "line 2: non-finite score value" in caplog.text


@pytest.mark.parametrize("F, kept, dropped", [(1, [0, 1, 3, 4, 5], 0),
                                              (2, [1, 4, 5], 1),
                                              (3, [5], 2)])
def test_cli_extract_restarts_windows_after_frame_gap(tmp_path, F, kept, dropped):
    frames_path, _ = gen_inputs(tmp_path)
    frames = [f for f in formats.read_frames(frames_path) if f.frame_id != 2]
    formats.write_frames(frames, frames_path)
    cfg_path = tmp_path / "run.cfg"
    pipe, _ = write_config(cfg_path, pipe=PipelineConfig(K=4, F=F))
    out = tmp_path / "out"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    records = sorted(out.glob("graph_*.bin"))
    assert [formats.read_graph_record(p).frame_id for p in records] == kept
    by_id = {f.frame_id: f for f in frames}
    for path, fid in zip(records, kept):
        window = [by_id[i] for i in range(fid - F + 1, fid + 1)]
        expected = tmp_path / "expected.bin"
        formats.write_graph_record(build_graph(window, pipe), expected)
        assert path.read_bytes() == expected.read_bytes()
    manifest = formats.read_manifest(out / "manifest.txt")
    assert manifest["windows_dropped_gap"] == str(dropped)
    assert manifest["graphs_out"] == str(len(kept))


def test_cli_extract_windows_follow_frame_ids_not_file_order(tmp_path, np_rng):
    """Frames listed 1, 0, 2 have no gap: the fusion windows are (0, 1) and
    (1, 2).  Both used to be dropped as gaps."""
    frames = {f: random_frame(np_rng, 3, frame_id=f) for f in (1, 0, 2)}
    frames_path, cfg_path, out = tmp_path / "frames.csv", tmp_path / "run.cfg", tmp_path / "out"
    formats.write_frames(list(frames.values()), frames_path)
    pipe, _ = write_config(cfg_path, pipe=PipelineConfig(K=2, F=2))
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    manifest = formats.read_manifest(out / "manifest.txt")
    assert (manifest["graphs_out"], manifest["windows_dropped_gap"]) == ("2", "0")
    for fid in (1, 2):
        graph = build_graph([frames[fid - 1], frames[fid]], pipe)
        expected = tmp_path / "expected.bin"
        formats.write_graph_record(graph, expected)
        assert (out / formats.graph_record_name(graph)).read_bytes() == expected.read_bytes()


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.strip().splitlines()]
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    assert sorted(listed) == sorted(subparsers.choices)
