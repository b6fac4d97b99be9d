import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudgraph.config import (
    ModelShape,
    PipelineConfig,
    parse_config,
    serialize_config,
)
from cloudgraph.errors import ConfigError, NonFiniteValue, NumericOverflow
from cloudgraph.formats import read_graph_record, write_graph_record
from cloudgraph.types import (
    POINT_FIELDS,
    PointGraph,
    RadarFrame,
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def test_frame_of_finite_points_is_built():
    mat = np.arange(15.0).reshape(3, 5)
    frame = RadarFrame(3, 7, mat)
    assert (frame.sequence_id, frame.frame_id) == (3, 7)
    assert np.array_equal(frame.points, mat)


def test_frame_refuses_a_non_finite_point_naming_it():
    pts = (
        (0, 0, 0, 0, 0),
        (1, 1, 1, math.nan, 1),
    )
    with pytest.raises(NonFiniteValue) as exc:
        RadarFrame(frame_id=0, sequence_id=0, points=pts)
    assert exc.value.point_index == 1
    assert exc.value.field == "v"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_frame_refuses_any_non_finite_value_naming_the_first(data):
    n = data.draw(st.integers(1, 6), label="n")
    pts = np.arange(n * 5.0).reshape(n, 5)
    cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 4)),
                               min_size=1, max_size=4, unique=True), label="cells")
    for cell in cells:
        pts[cell] = data.draw(NON_FINITE)
    with pytest.raises(NonFiniteValue) as exc:
        RadarFrame(frame_id=0, sequence_id=0, points=pts)
    i, j = min(cells)  # row-major order
    assert str(exc.value) == f"non-finite value in point {i}, field '{POINT_FIELDS[j]}'"
    assert (exc.value.point_index, exc.value.field) == (i, POINT_FIELDS[j])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph_refuses_any_non_finite_feature_naming_the_first_section(data):
    order = ["node", "edge", "frame"]
    sections = {"node": np.ones((3, 19)), "edge": np.ones((6, 6)), "frame": np.ones(380)}
    bad = data.draw(st.lists(st.sampled_from(order), min_size=1, unique=True), label="sections")
    for name in bad:
        values = sections[name]
        at = data.draw(st.tuples(*(st.integers(0, d - 1) for d in values.shape)), label=name)
        values[at] = data.draw(NON_FINITE)
    first = min(bad, key=order.index)
    with pytest.raises(NumericOverflow, match=f"^non-finite {first} features in sequence 4 frame 9$"):
        PointGraph(sequence_id=4, frame_id=9, node_features=sections["node"],
                   neighbours=[[1, 2], [0, 2], [0, 1]], edge_features=sections["edge"],
                   frame_features=sections["frame"])


def test_frame_points_are_a_read_only_n_by_5_copy():
    mat = np.arange(10.0).reshape(2, 5)
    frame = RadarFrame(frame_id=0, sequence_id=0, points=mat)
    from_points = RadarFrame(frame_id=0, sequence_id=0,
                             points=[tuple(row) for row in mat.tolist()])
    assert frame.points.dtype == np.float64
    assert np.array_equal(frame.points, mat)
    assert np.array_equal(from_points.points, mat)
    assert frame.as_matrix() is frame.points
    assert not frame.points.flags.writeable
    mat[0, 0] = 99.0  # the frame holds its own copy
    assert frame.points[0, 0] == 0.0
    assert RadarFrame(frame_id=0, sequence_id=0, points=()).points.shape == (0, 5)
    with pytest.raises(ValueError):
        RadarFrame(frame_id=0, sequence_id=0, points=np.zeros((3, 4)))


def test_empty_frame_is_valid():
    assert len(RadarFrame(frame_id=0, sequence_id=0, points=())) == 0


@pytest.mark.parametrize("seq, fid", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
def test_frame_and_graph_refuse_ids_no_record_can_hold(seq, fid):
    """Graph records store both ids as u8, so each type refuses an id
    outside [0, 2^64) where it is built, not in the record writer."""
    with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
        RadarFrame(seq, fid, ())
    with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
        PointGraph(sequence_id=seq, frame_id=fid, node_features=np.ones((2, 5)),
                   neighbours=[[1], [0]], edge_features=np.ones((2, 0)), frame_features=())


def test_frame_and_graph_take_the_largest_ids_a_record_holds(tmp_path):
    top = 2**64 - 1
    graph = PointGraph(sequence_id=top, frame_id=top, node_features=np.ones((2, 5)),
                       neighbours=[[1], [0]], edge_features=np.ones((2, 0)), frame_features=())
    write_graph_record(graph, tmp_path / "g.bin")
    back = read_graph_record(tmp_path / "g.bin")
    assert (back.sequence_id, back.frame_id) == (top, top)
    assert (RadarFrame(top, top, ()).sequence_id, RadarFrame(0, top, ()).frame_id) == (top, top)


def test_config_defaults_match_radar_conventions():
    cfg = PipelineConfig()
    assert cfg.K == 20
    assert cfg.cell_width == (0.035, 0.035, 0.035)


def test_config_invariants():
    with pytest.raises(ConfigError):
        PipelineConfig(K=0)
    with pytest.raises(ConfigError):
        PipelineConfig(F=0)
    with pytest.raises(ConfigError):
        PipelineConfig(downsample_enabled=True, Q=0)
    with pytest.raises(ConfigError):
        PipelineConfig(cell_width=(0.0, 0.1, 0.1))
    with pytest.raises(ConfigError, match="epsilon must be positive"):
        PipelineConfig(epsilon=0.0)
    with pytest.raises(ConfigError, match="head must be one of"):
        ModelShape(head="regression")
    with pytest.raises(ConfigError, match="output_size must be >= 1"):
        ModelShape(output_size=0)
    with pytest.raises(ConfigError, match="lstm_hidden must be >= 1"):
        ModelShape(sequential=True, lstm_hidden=0)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed must be in"):
            PipelineConfig(seed=seed)


def test_config_round_trip_bit_exact():
    pipe = PipelineConfig(K=7, F=3, downsample_enabled=True,
                          cell_width=(0.0351, 0.02, 1e-3), Q=5,
                          seed=987654321, epsilon=1e-9)
    model = ModelShape(head="activity", output_size=6, gat_units=(8, 8, 8),
                       sequential=True, window=60, stride=10)
    text = serialize_config(pipe, model)
    pipe2, model2 = parse_config(text)
    assert pipe2 == pipe
    assert model2 == model
    # parse . serialize is the identity on canonical form
    assert serialize_config(pipe2, model2) == text


def test_parse_config_builds_one_config_and_one_shape(monkeypatch):
    # the defaults that give each key its type are built once, at import
    built = []

    def recorded(check):
        def post_init(self):
            built.append(type(self))
            check(self)
        return post_init

    for cls in (PipelineConfig, ModelShape):
        monkeypatch.setattr(cls, "__post_init__", recorded(cls.__post_init__))
    pipe, model = parse_config("K = 4\nmodel_window = 2\n")
    assert (pipe.K, model.window) == (4, 2)
    assert built == [PipelineConfig, ModelShape]


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("K = 20\nbogus = 1\n")
    with pytest.raises(ConfigError):  # the network has no dropout
        parse_config("model_dropout_rate = 0.5\n")


def test_config_comments_and_blanks_ignored():
    pipe, _ = parse_config("# hello\n\nK = 4  # trailing comment\n")
    assert pipe.K == 4


def test_config_repeated_key_takes_its_last_value():
    pipe, model = parse_config("K = 4\nmodel_window = 2\nK = 6\nmodel_window = 3\n")
    assert (pipe.K, model.window) == (6, 3)


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("K = notanint\n")
    with pytest.raises(ConfigError):
        parse_config("downsample_enabled = yes\n")
