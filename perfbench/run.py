"""End-to-end, layer-by-layer benchmark of the cloudgraph user path.

One pass is what a user runs: ``init-weights``, then ``extract``, ``infer``
and ``eval``, each through ``cloudgraph.cli.main`` in this process.  Run
from the repository root:

    python3 perfbench/run.py --workload dense_cloud --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced passes for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics plus the tracing overhead.  Both modes
run the correctness gate outside the timed regions, print every metric
with its unit, end with one JSON line, and exit 1 if any check failed.
Inputs, outputs and a results file go to ``.perfbench_runs/`` under the
repository root.  README.md in this directory explains the workloads.
"""

import os

# Pinned before numpy is first imported: one process, one BLAS/OpenMP thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import logging
import math
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import calibration
import gate
import spans

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("dense_cloud", "sparse_fused", "sequential_pose")
MIN_TIMED_PASSES = 3
MIN_TRACED_PAIRS = 2


@functools.lru_cache(maxsize=None)
def metric_units(section: str) -> dict:
    """Name -> unit of every metric BENCHMARK.json lists under ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def import_cloudgraph() -> SimpleNamespace:
    """Import cloudgraph from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    if not (src / "cloudgraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cloudgraph sources under {src}")
    sys.path.insert(0, str(src))
    import cloudgraph

    if Path(cloudgraph.__file__).resolve().parent != src / "cloudgraph":
        sys.exit(f"perfbench: imported cloudgraph from {cloudgraph.__file__}, not {src}")
    # import_module, because the package re-exports functions that shadow
    # some submodule names (``cloudgraph.statbox`` is a function there)
    names = ("cli", "config", "formats", "gnn", "metrics", "pipeline", "reference", "rng", "statbox", "types")
    return SimpleNamespace(**{n: importlib.import_module("cloudgraph." + n) for n in names})


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def add(self, count: int, ok: bool, what: str) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)


def timed_block(cg, argv: list, reps: int = 1, calibrate: bool = True, stdout=None):
    """``reps`` identical CLI commands in-process, timed as one block.

    Returns the first non-zero exit code (or 0) and the block's seconds per
    call: ``cpu`` is process CPU time, ``wall`` wall time, and ``scaled``
    the CPU time scaled by the calibration loop run just before and just
    after the block (see calibration.py).  CPU time leaves out the spells in
    which the shared host deschedules the process, and the scaling its
    spells of slower execution.  The program is one thread, with BLAS
    pinned to one thread, so on an idle machine its wall time would be its
    CPU time.  Without ``calibrate`` (the tracemalloc pass, whose timings
    are unused) ``scaled`` is None.
    """
    host = [calibration.loop_cpu_s()] if calibrate else []
    code = 0
    cpu, wall = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(stdout) if stdout is not None else contextlib.nullcontext():
        for _ in range(reps):
            exit_code = cg.cli.main(argv)
            code = code or exit_code
    cpu, wall = (time.process_time() - cpu) / reps, (time.perf_counter() - wall) / reps
    if calibrate:
        host.append(calibration.loop_cpu_s())
    scaled = cpu * calibration.REFERENCE_S / statistics.mean(host) if calibrate else None
    return code, {"cpu": cpu, "wall": wall, "scaled": scaled}


def run_pass(cg, wl, inputs: dict, out: Path, measure_memory: bool = False) -> dict:
    """init-weights (``wl.setup_reps`` times), extract, infer (``wl.infer_reps``
    times) and eval into ``out``.

    With ``measure_memory`` the extract/infer/eval part runs under
    tracemalloc and its timings must not be used.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = str(inputs["config"])
    weights, graphs, preds = str(out / "weights.bin"), str(out / "graphs"), str(out / "predictions.csv")
    gc.collect()
    codes = {}
    calibrate = not measure_memory
    codes["init-weights"], setup = timed_block(
        cg, ["init-weights", "--config", cfg, "--out", weights], wl.setup_reps, calibrate
    )
    if measure_memory:
        tracemalloc.start()
    codes["extract"], extract = timed_block(
        cg, ["extract", str(inputs["frames"]), "--config", cfg, "--out", graphs], 1, calibrate
    )
    codes["infer"], infer = timed_block(
        cg, ["infer", graphs, "--weights", weights, "--config", cfg, "--out", preds], wl.infer_reps, calibrate
    )
    report = io.StringIO()
    codes["eval"], evaluate = timed_block(
        cg,
        ["eval", preds, str(inputs["truth"]), "--task", "pose", "--config", cfg, "--out", str(out / "report.txt")],
        1,
        calibrate,
        report,
    )
    peak = None
    if measure_memory:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    times = {}
    for clock in ("cpu", "wall", "scaled"):
        phases = {"setup": setup, "extract": extract, "infer": infer, "eval": evaluate}
        times[clock] = {phase: t[clock] for phase, t in phases.items()}
        if calibrate:
            times[clock]["path"] = extract[clock] + infer[clock] + evaluate[clock]
    return {"times": times, "codes": codes, "report": report.getvalue(), "peak": peak}


def check_pass(cg, wl, result: dict, out: Path, reference: dict, tally: Tally, label: str) -> None:
    """Count the pass's operations and compare its outputs with the reference pass."""
    codes = result["codes"]
    tally.add(wl.setup_reps, codes["init-weights"] == 0, f"{label}: init-weights exit {codes['init-weights']}")
    graphs_out = None
    if codes["extract"] == 0:
        graphs_out = int(cg.formats.read_manifest(out / "graphs" / "manifest.txt")["graphs_out"])
    tally.add(wl.windows, graphs_out == wl.windows, f"{label}: extract exit {codes['extract']}, {graphs_out} graphs")
    predicted = None
    if codes["infer"] == 0:
        predicted = len(cg.formats.read_skeletons(out / "predictions.csv", 0))
    tally.add(wl.predictions * wl.infer_reps, predicted == wl.predictions, f"{label}: infer exit {codes['infer']}, {predicted} predictions")
    tally.add(wl.predictions, codes["eval"] == 0 and predicted == wl.predictions, f"{label}: eval exit {codes['eval']}")
    tally.add(1, gate.report_is_finite(result["report"]), f"{label}: eval report not finite")
    if reference is not None:
        tally.add(1, gate.output_digests(out) == reference, f"{label}: outputs differ from the reference pass")


def reference_pass(cg, wl, inputs: dict, work: Path, tally: Tally, measure_memory: bool) -> tuple:
    """Untimed first pass whose outputs every later pass must reproduce.

    It also runs the gate: each graph record read back equals the graph
    written, and sampled windows equal ``reference.naive_build_graph``.
    Returns the output digests, the peak heap with ``measure_memory`` (else
    None), and the ``next_u64`` calls of the pass.  Those are counted only
    without ``measure_memory``, and here rather than in a timed pass,
    because the counting wrapper costs more than the call it counts.
    """
    written = []
    capture = spans.Tracer()
    capture.wrap(
        cg.formats, "write_graph_record", "capture",
        lambda args, _: written.append((gate.fingerprint(args[0]), args[1])),
    )
    if not measure_memory:
        capture.count_calls(cg.rng.SplitMix64, "next_u64", "rng.next_u64.calls")
    out = work / "reference"
    try:
        result = run_pass(cg, wl, inputs, out, measure_memory)
    finally:
        capture.uninstall()
    check_pass(cg, wl, result, out, None, tally, "reference pass")
    for graph, path in written:
        tally.add(1, gate.fingerprint(cg.formats.read_graph_record(path)) == graph, f"record {path} reads back changed")
    cfg, _ = cg.config.load_config(inputs["config"])
    windows = gate.fusion_windows(cg.formats.read_frames(inputs["frames"]), cfg.F)
    for i in gate.sample_indices(len(windows), wl.gate_windows):
        shared = cg.pipeline.build_graph(windows[i], cfg)
        naive = cg.reference.naive_build_graph(windows[i], cfg)
        tally.add(1, gate.fingerprint(shared) == gate.fingerprint(naive), f"window {i}: build_graph differs from naive_build_graph")
    digests = gate.output_digests(out)
    shutil.rmtree(out)
    return digests, result["peak"], capture.counts["rng.next_u64.calls"]


def summarize(samples: list, better: str) -> dict:
    """Median, count and the furthest tail percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        q = 100 * (n - 10) // n
        k = math.ceil(q * n / 100) - 1
        if better == "lower":
            out[f"p{q}"] = ordered[k]
        else:
            out[f"p{100 - q}"] = ordered[n - 1 - k]
    return out


def timed_run(cg, wl, inputs, work, seconds, tally) -> tuple:
    reference, peak, _ = reference_pass(cg, wl, inputs, work, tally, measure_memory=True)
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        out = work / "pass"
        result = run_pass(cg, wl, inputs, out)
        check_pass(cg, wl, result, out, reference, tally, f"timed pass {len(passes)}")
        passes.append(result)
    scaled = [p["times"]["scaled"] for p in passes]
    summaries = {
        "setup_s": summarize([t["setup"] for t in scaled], "lower"),
        "extract_frames_per_s": summarize([wl.input_frames / t["extract"] for t in scaled], "higher"),
        "infer_preds_per_s": summarize([wl.predictions / t["infer"] for t in scaled], "higher"),
        "path_s": summarize([t["path"] for t in scaled], "lower"),
        "peak_mem_mb": summarize([peak / 1e6], "lower"),
    }
    raw = {clock: [p["times"][clock] for p in passes] for clock in ("scaled", "cpu", "wall")}
    return summaries, reference, raw


def traced_run(cg, wl, inputs, work, seconds, tally) -> tuple:
    reference, _, rng_calls = reference_pass(cg, wl, inputs, work, tally, measure_memory=False)
    units = metric_units("per_layer")
    tracer = spans.Tracer()
    untraced_path, traced_path, layers, trace_log = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_path) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        out = work / "pass"
        result = run_pass(cg, wl, inputs, out)
        check_pass(cg, wl, result, out, reference, tally, f"untraced pass {len(untraced_path)}")
        untraced_path.append(result["times"]["scaled"]["path"])

        tracer.reset()
        spans.install(tracer, cg)
        try:
            result = run_pass(cg, wl, inputs, out)
        finally:
            tracer.uninstall()
        check_pass(cg, wl, result, out, reference, tally, f"traced pass {len(traced_path)}")
        traced_path.append(result["times"]["scaled"]["path"])
        graphs = out / "graphs"
        layers.append(
            spans.layer_metrics(
                tracer.spans,
                tracer.counts,
                sum(p.stat().st_size for p in graphs.glob("graph_*.bin")),
                sum(p.stat().st_size for p in graphs.glob("graph_*.txt")),
            )
        )
        trace_log.append(list(tracer.spans))
    values = {}
    for name in layers[0]:
        samples = [p[name] for p in layers]
        if units[name] == "s":
            values[name] = statistics.median(samples)
        else:  # work counts are exact and must repeat in every pass
            tally.add(1, len(set(samples)) == 1, f"{name} differs between traced passes: {samples}")
            values[name] = samples[0]
    # paired, because the two passes of a pair ran closest together in time
    values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_path, untraced_path))
    values["rng.next_u64.calls"] = rng_calls
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for i, recorded in enumerate(trace_log):
            for name, start, end, parent in recorded:
                fh.write(json.dumps({"pass": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
    extra = {"untraced_path_s": untraced_path, "traced_path_s": traced_path}
    return values, reference, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cg = import_cloudgraph()
    import numpy as np
    from workloads import WORKLOADS, write_inputs

    # Suppress the CLI's INFO lines; its basicConfig call is then a no-op.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    wl = WORKLOADS[args.workload]
    work = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = write_inputs(wl, args.seed, work / "inputs")
    tally = Tally()
    env = environment(np)
    print(f"# cloudgraph perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        values, reference, extra = traced_run(cg, wl, inputs, work, args.seconds, tally)
    else:
        summaries, reference, extra = timed_run(cg, wl, inputs, work, args.seconds, tally)
    ops_failed_frac = tally.failed / tally.attempted
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        values["ops_failed_frac"] = ops_failed_frac
    else:
        values = {name: s["median"] for name, s in summaries.items()}
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    else:
        for name, s in summaries.items():
            tail = " ".join(f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
            print(f"{name:22s} median={s['median']:.6g} {units[name]} {tail} n={s['n']}")
        print(f"{'ops_failed_frac':22s} {ops_failed_frac:.6g} ratio")
        for clock in ("cpu", "wall"):
            medians = {k: statistics.median(t[k] for t in extra[clock]) for k in extra[clock][0]}
            print(f"# unscaled {clock} medians per call, information only: "
                  + " ".join(f"{k}={v:.6g}s" for k, v in medians.items()))
    predictions_sha = reference.get("predictions.csv", "missing")
    print(f"# correctness: {tally.attempted} operations, {tally.failed} failed; "
          f"predictions sha256={predictions_sha} (information only)")
    for failure in tally.failures:
        print(f"# FAILED: {failure}")

    results = {
        "args": vars(args),
        "workload": asdict(wl),
        "env": env,
        "generator_seeds": [wl.generator_seed(args.seed, seq) for seq in range(wl.sequences)],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "ops_failed_frac": ops_failed_frac,
        "predictions_sha256": predictions_sha,
        "metrics": summaries if not args.trace else values,
        "passes": extra,
    }
    for leftover in ("inputs", "pass"):
        shutil.rmtree(work / leftover, ignore_errors=True)
    (work / "results.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"# results: {(work / 'results.json').relative_to(ROOT)}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
