"""Golden outputs: ``init-weights``, ``extract``, ``infer`` and ``eval``
through ``cli.main`` on the benchmark's three workloads, and on one
activity-head case, at seeds 1, 7 and 19 write files whose SHA-256 digests
equal the table in ``tests/data/golden_outputs.json``.

The bits depend on the BLAS kernel and numpy's SIMD loops, so the table
records the environment it was taken on, kernel and SIMD targets included.
A mismatch names the files that differ and every environment field that
differs from the table's.  A change that moves a digest re-pins the table
and says which files moved and why."""

import ctypes
import importlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cloudgraph import formats
from cloudgraph.cli import main
from cloudgraph.config import serialize_config

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "golden_outputs.json"
SEEDS = (1, 7, 19)
WORKLOADS = ("dense_cloud", "sparse_fused", "sequential_pose")
# sparse_fused's frames through a 4-class activity head, against labels
# that cycle through the classes: it pins the scores and labels files and
# the activity report
ACTIVITY = "sparse_fused_activity"
CASES = WORKLOADS + (ACTIVITY,)


def blas_kernel() -> tuple:
    """The OpenBLAS core and thread count of numpy's bundled OpenBLAS, each
    "unknown" when the library or its symbols cannot be found."""
    try:
        path = next((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
        lib = ctypes.CDLL(str(path))  # the copy numpy loaded
        core, threads = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_num_threads64_
        core.argtypes, core.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        return core().decode(), str(threads())
    except (StopIteration, OSError, AttributeError):
        return "unknown", "unknown"


def simd_targets() -> str:
    """numpy's SIMD dispatch targets enabled on this CPU, or "unknown"."""
    try:
        from numpy._core import _multiarray_umath as umath
        return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    except (ImportError, AttributeError):
        return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    core, threads = blas_kernel()
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "machine": platform.machine(), "blas_core": core, "blas_threads": threads,
            "simd_targets": simd_targets()}


def perfbench_modules(monkeypatch):
    """perfbench's ``workloads`` and ``gate``, imported without writing
    bytecode under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads"), importlib.import_module("gate")


def run_path(workloads, name: str, seed: int, work: Path) -> Path:
    """The benchmark's pass, once each: inputs under ``work/inputs``, every
    output under ``work/out``, which is returned."""
    wl = workloads.WORKLOADS["sparse_fused" if name == ACTIVITY else name]
    inputs = workloads.write_inputs(wl, seed, work / "inputs")
    task, truth = "pose", inputs["truth"]
    if name == ACTIVITY:
        task, truth = "activity", work / "inputs" / "labels.csv"
        shape = replace(wl.model_shape(), head="activity", output_size=4)
        inputs["config"].write_text(serialize_config(wl.pipeline_config(seed), shape),
                                    encoding="utf-8")
        ids = sorted(formats.read_skeletons(inputs["truth"], 0))
        formats.write_labels([(s, f, (s + f) % 4) for s, f in ids], truth)
    out = work / "out"
    out.mkdir()
    cfg = str(inputs["config"])
    weights, graphs, preds = str(out / "weights.bin"), str(out / "graphs"), str(out / "predictions.csv")
    for argv in (
        ["init-weights", "--config", cfg, "--out", weights],
        ["extract", str(inputs["frames"]), "--config", cfg, "--out", graphs],
        ["infer", graphs, "--weights", weights, "--config", cfg, "--out", preds],
        ["eval", preds, str(truth), "--task", task, "--config", cfg,
         "--out", str(out / "report.txt")],
    ):
        assert main(argv) == 0, argv[0]
    return out


def mismatch_message(name: str, seed: int, want: dict, got: dict, table_env: dict) -> str:
    lines = [f"{name} at seed {seed}: outputs differ from {TABLE.name}"]
    for path in sorted(set(want) | set(got)):
        if want.get(path) != got.get(path):
            lines.append(f"  {path}: table {want.get(path)}, here {got.get(path)}")
    here = environment()
    moved = [f"  {key}: table {table_env.get(key)!r}, here {here[key]!r}"
             for key in sorted(here) if table_env.get(key) != here[key]]
    if moved:
        lines += ["environment fields that differ:"] + moved
    else:
        lines.append("the environment matches the table's: the change moved these bits")
    return "\n".join(lines)


def test_table_names_the_environment_and_every_workload():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    assert set(table["environment"]) == set(environment())
    assert table["seeds"].keys() == {str(seed) for seed in SEEDS}
    assert all(set(by_name) == set(CASES) for by_name in table["seeds"].values())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CASES)
def test_workload_outputs_match_the_golden_table(monkeypatch, tmp_path, capsys, name, seed):
    workloads, gate = perfbench_modules(monkeypatch)
    got = gate.output_digests(run_path(workloads, name, seed, tmp_path))
    capsys.readouterr()  # eval prints its report
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    want = table["seeds"][str(seed)][name]
    assert got == want, mismatch_message(name, seed, want, got, table["environment"])


def test_mismatch_message_names_the_files_and_fields_that_differ():
    here = environment()
    message = mismatch_message("w", 7, {"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"},
                               dict(here, numpy="0.0"))
    assert message.startswith("w at seed 7: ")
    assert "  b: table 2, here 3" in message and "  c: table None, here 4" in message
    assert "  a:" not in message
    assert f"  numpy: table '0.0', here {here['numpy']!r}" in message
    assert "  python:" not in message
    assert "matches" in mismatch_message("w", 1, {"a": "1"}, {}, here)
