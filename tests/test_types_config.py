import math

import numpy as np
import pytest

from cloudgraph.config import (
    ModelShape,
    PipelineConfig,
    parse_config,
    serialize_config,
)
from cloudgraph.errors import ConfigError, NonFiniteValue
from cloudgraph.types import (
    RadarFrame,
    frame_from_matrix,
    validate_frame,
)


def test_validate_frame_passthrough():
    frame = frame_from_matrix(0, 0, np.arange(15.0).reshape(3, 5))
    assert validate_frame(frame) is frame


def test_validate_frame_names_offending_point_and_field():
    pts = (
        (0, 0, 0, 0, 0),
        (1, 1, 1, math.nan, 1),
    )
    with pytest.raises(NonFiniteValue) as exc:
        validate_frame(RadarFrame(frame_id=0, sequence_id=0, points=pts))
    assert exc.value.point_index == 1
    assert exc.value.field == "v"


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


def test_validate_empty_frame_is_valid():
    frame = RadarFrame(frame_id=0, sequence_id=0, points=())
    assert validate_frame(frame) is frame


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
