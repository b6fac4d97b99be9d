"""Run configuration: pipeline knobs plus the model shape spec.

The on-disk format is flat key-value text, one ``key = value`` per line,
``#`` starts a comment.  Keys match the dataclass field names below
(model-shape keys carry a ``model_`` prefix).  Unknown keys are an error.
Serialization is canonical (fixed key order, round-trip-exact decimals), so
``parse(serialize(cfg))`` reproduces ``cfg`` bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Tuple

from .errors import ConfigError, ParseError
from .formats import key_values, read_text

EDGE_RELU_POLICIES = ("all_but_first", "all_but_last")
HEADS = ("pose", "activity")


def _check_finite(cfg) -> None:
    """Reject NaN and infinity in every float field, tuples included: every
    range check below is false for NaN, so it would slip through them."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the frames -> graph pipeline."""

    K: int = 20
    F: int = 1
    downsample_enabled: bool = False
    cell_width: Tuple[float, float, float] = (0.035, 0.035, 0.035)
    Q: int = 1
    enable_node_features: bool = True
    enable_edge_features: bool = True
    enable_frame_features: bool = True
    seed: int = 0
    epsilon: float = 1e-12

    def __post_init__(self):
        _check_finite(self)
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.F < 1:
            raise ConfigError("F must be >= 1")
        if self.downsample_enabled and self.Q < 1:
            raise ConfigError("Q must be >= 1 when downsampling is enabled")
        if len(self.cell_width) != 3 or any(w <= 0 for w in self.cell_width):
            raise ConfigError("cell_width must be three positive reals")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class ModelShape:
    """Layer widths and head description for the network.

    ``output_size`` is the number of keypoints M for the pose head or the
    number of classes C for the activity head.  ``mid_hip_index`` must be
    supplied for pose work, in [0, M); no dataset default exists.
    """

    head: str = "pose"
    output_size: int = 17
    mid_hip_index: int = 0
    edge_units: Tuple[int, ...] = (16, 16)
    node_units: Tuple[int, ...] = (16, 16)
    gat_units: Tuple[int, ...] = (16,)
    frame_units: Tuple[int, ...] = (16,)
    pred_units: Tuple[int, ...] = (16,)
    sequential: bool = False
    lstm_hidden: int = 16
    window: int = 1
    stride: int = 1
    leaky_slope: float = 0.2
    edge_relu_policy: str = "all_but_first"

    def __post_init__(self):
        _check_finite(self)
        if self.head not in HEADS:
            raise ConfigError(f"head must be one of {HEADS}")
        if self.edge_relu_policy not in EDGE_RELU_POLICIES:
            raise ConfigError(f"edge_relu_policy must be one of {EDGE_RELU_POLICIES}")
        if self.output_size < 1:
            raise ConfigError("output_size must be >= 1")
        if self.head == "pose" and not 0 <= self.mid_hip_index < self.output_size:
            raise ConfigError(
                f"mid_hip_index {self.mid_hip_index} outside the {self.output_size} keypoints"
            )
        for name in ("edge_units", "node_units", "frame_units"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must name at least one layer")
        for name in ("edge_units", "node_units", "gat_units", "frame_units", "pred_units"):
            if any(w < 1 for w in getattr(self, name)):
                raise ConfigError(f"{name} must be widths >= 1, got {getattr(self, name)}")
        if self.window < 1 or self.stride < 1:
            raise ConfigError("window and stride must be >= 1")
        if self.sequential and self.lstm_hidden < 1:
            raise ConfigError("lstm_hidden must be >= 1 for sequential models")


def mars_sequential_shape(num_keypoints: int, mid_hip_index: int) -> ModelShape:
    """Sequential pose preset: 64 units and 3 layers for the node, attention,
    and prediction blocks, a single recurrent layer, fusion-friendly."""
    return ModelShape(
        head="pose",
        output_size=num_keypoints,
        mid_hip_index=mid_hip_index,
        edge_units=(64, 64, 64),
        node_units=(64, 64, 64),
        gat_units=(64, 64, 64),
        frame_units=(64, 64, 64),
        pred_units=(64, 64, 64),
        sequential=True,
        lstm_hidden=64,
        window=16,
    )


# -- flat key-value codec ----------------------------------------------------

_PIPELINE_FIELDS = [f.name for f in fields(PipelineConfig)]
_MODEL_FIELDS = [f.name for f in fields(ModelShape)]
# the default of each kind, indexed by whether a key is a model key: a
# parsed value takes its default's type
_DEFAULTS = (PipelineConfig(), ModelShape())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def field_texts(cfg) -> Dict[str, str]:
    """Each field of a PipelineConfig or ModelShape as its canonical value
    text, in field order."""
    return {f.name: _fmt(getattr(cfg, f.name)) for f in fields(cfg)}


def serialize_config(pipeline: PipelineConfig, model: ModelShape | None = None) -> str:
    lines = ["# cloudgraph run configuration"]
    lines += [f"{name} = {text}" for name, text in field_texts(pipeline).items()]
    if model is not None:
        lines += ["", "# model shape"]
        lines += [f"model_{name} = {text}" for name, text in field_texts(model).items()]
    return "\n".join(lines) + "\n"


# each value type's parser and what its error says was expected
_PARSERS = {
    bool: ({"true": True, "false": False}.__getitem__, "true/false"),
    int: (int, "integer"),
    float: (float, "real"),
}


def _parse_value(text: str, template):
    """``text`` read as a value of ``template``'s type; a ValueError says
    what was expected."""
    if isinstance(template, str):
        return text
    if isinstance(template, tuple):
        elem = template[0] if template else 0
        return tuple(_parse_value(p.strip(), elem) for p in text.split(",")) if text else ()
    parse, expected = _PARSERS[type(template)]
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ValueError(f"expected {expected}, got {text!r}") from None


def parse_config(text: str, path=None) -> tuple[PipelineConfig, ModelShape]:
    """Parse flat key-value configuration text read from ``path``.

    Missing keys fall back to defaults, a repeated key takes its last value,
    and an unknown key or a bad value is a ConfigError naming the line.
    """
    # indexed by whether the key is a model key: 0 pipeline, 1 model
    kwargs: tuple = ({}, {})
    try:
        for lineno, key, value in key_values(text, path):
            model = key.startswith("model_")
            name = key[len("model_"):] if model else key
            if name not in (_MODEL_FIELDS if model else _PIPELINE_FIELDS):
                raise ParseError(lineno, f"unknown key {key!r}", path)
            try:
                kwargs[model][name] = _parse_value(value, getattr(_DEFAULTS[model], name))
            except ValueError as err:
                raise ParseError(lineno, f"{key}: {err}", path) from None
    except ParseError as err:
        raise ConfigError(str(err)) from None
    return PipelineConfig(**kwargs[0]), ModelShape(**kwargs[1])


def load_config(path) -> tuple[PipelineConfig, ModelShape]:
    try:
        return parse_config(read_text(path), path)
    except ParseError as err:  # bytes that are not UTF-8
        raise ConfigError(str(err)) from None
