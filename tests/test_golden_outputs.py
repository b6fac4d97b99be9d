"""Golden outputs: ``init-weights``, ``extract``, ``infer`` and ``eval``
through ``cli.main`` on the benchmark's three workloads at seed 1 write
files whose SHA-256 digests equal the table in
``tests/data/golden_outputs.json``.

The bits depend on the BLAS kernel and numpy's SIMD loops, so the table
records the environment it was taken on.  A mismatch names the files that
differ and every environment field that differs from the table's.  A
change that moves a digest re-pins the table and says which files moved
and why."""

import importlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from cloudgraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "golden_outputs.json"
SEED = 1


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "machine": platform.machine()}


def perfbench_modules(monkeypatch):
    """perfbench's ``workloads`` and ``gate``, imported without writing
    bytecode under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads"), importlib.import_module("gate")


def run_path(workloads, name: str, seed: int, work: Path) -> Path:
    """The benchmark's pass, once each: inputs under ``work/inputs``, every
    output under ``work/out``, which is returned."""
    inputs = workloads.write_inputs(workloads.WORKLOADS[name], seed, work / "inputs")
    out = work / "out"
    out.mkdir()
    cfg = str(inputs["config"])
    weights, graphs, preds = str(out / "weights.bin"), str(out / "graphs"), str(out / "predictions.csv")
    for argv in (
        ["init-weights", "--config", cfg, "--out", weights],
        ["extract", str(inputs["frames"]), "--config", cfg, "--out", graphs],
        ["infer", graphs, "--weights", weights, "--config", cfg, "--out", preds],
        ["eval", preds, str(inputs["truth"]), "--task", "pose", "--config", cfg,
         "--out", str(out / "report.txt")],
    ):
        assert main(argv) == 0, argv[0]
    return out


def mismatch_message(name: str, want: dict, got: dict, table_env: dict) -> str:
    lines = [f"{name} at seed {SEED}: outputs differ from {TABLE.name}"]
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
    assert table["seed"] == SEED
    assert set(table["environment"]) == set(environment())
    assert set(table["workloads"]) == {"dense_cloud", "sparse_fused", "sequential_pose"}


@pytest.mark.parametrize("name", ["dense_cloud", "sparse_fused", "sequential_pose"])
def test_workload_outputs_match_the_golden_table(monkeypatch, tmp_path, capsys, name):
    workloads, gate = perfbench_modules(monkeypatch)
    got = gate.output_digests(run_path(workloads, name, SEED, tmp_path))
    capsys.readouterr()  # eval prints its report
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    want = table["workloads"][name]
    assert got == want, mismatch_message(name, want, got, table["environment"])


def test_mismatch_message_names_the_files_and_fields_that_differ():
    here = environment()
    message = mismatch_message("w", {"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"},
                               dict(here, numpy="0.0"))
    assert "  b: table 2, here 3" in message and "  c: table None, here 4" in message
    assert "  a:" not in message
    assert f"  numpy: table '0.0', here {here['numpy']!r}" in message
    assert "  python:" not in message
    assert "matches" in mismatch_message("w", {"a": "1"}, {}, here)
