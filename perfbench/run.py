"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload adafgl_serial --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` runs the workload untraced a few times (set-up, body,
teardown each time) and reports the end-to-end metrics; ``--trace 1`` runs it
once untraced and once with every layer wrapped, checks that both training
histories are bitwise-equal and reports the per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero, printing no result, when the
program under test cannot be imported or a workload raises.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: longest scratch path used as TMPDIR (Unix socket names stop at 107 bytes)
MAX_TMPDIR = 70


#: one BLAS thread per process: the pooled workloads already run one process
#: per core, and a second BLAS thread per process only adds contention noise
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program() -> None:
    """Put the checkout's ``src/`` and the benchmark package on the path.

    Runs before numpy is first imported, so the BLAS thread setting holds
    for this process and every worker it starts.
    """
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: program sources not found under {ROOT / 'src'}; "
            "run from a full checkout of the repository")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ.setdefault("REPRO_ARRAY_BACKEND", "numpy")


def make_workload(name: str, seconds: float, scratch: str):
    from perfbench.serve import ServeMixed
    from perfbench.workloads import AdaFGLSerial, PoolTcp, StoreHier

    if name == "adafgl_serial":
        return AdaFGLSerial(seconds)
    if name == "pool_tcp":
        return PoolTcp(seconds)
    if name == "store_hier":
        return StoreHier(seconds, scratch)
    if name == "serve_mixed":
        return ServeMixed(seconds)
    raise SystemExit(f"perfbench: unknown workload {name!r}")


WORKLOADS = ("adafgl_serial", "pool_tcp", "store_hier", "serve_mixed")


def benchmark_spec() -> Dict:
    """The content of ``BENCHMARK.json``, built from the catalogue.

    Regenerate the file with::

        python3 -c "import json, perfbench.run as r; \\
            print(json.dumps(r.benchmark_spec(), indent=2))" > BENCHMARK.json
    """
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.serve import ServeMixed
    from perfbench.workloads import AdaFGLSerial, PoolTcp, StoreHier

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": cls.name, "why": cls.why}
                      for cls in (AdaFGLSerial, PoolTcp, StoreHier,
                                  ServeMixed)],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _ in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in PER_LAYER],
    }


# ----------------------------------------------------------------------
def check(results, problems: List[str]) -> None:
    """Correctness verdicts shared by both modes."""
    for result in results:
        problems.extend(result.problems)
        if result.test_acc is not None \
                and not result.test_acc > result.chance:
            problems.append(
                f"test accuracy {result.test_acc:.4f} is not above chance "
                f"{result.chance:.4f}")


def teardown_cycles(results, setups):
    """The cycles whose teardowns are comparable: the set-up-only ones when
    the run has any (a body leaves more state to free, so mixing both kinds
    puts the median between two populations), else the full repetitions."""
    return setups[len(results):] or results


def end_to_end(workload, results, setups) -> Tuple[Dict[str, float], Dict]:
    """End-to-end metrics of the untraced repetitions.

    CPU-bound durations are scaled by each repetition's host-speed factor
    (``perfbench/calibrate.py``); teardowns spent joining workers and
    schedule-driven serving latencies are reported as measured.
    """
    from perfbench import harness

    def scaled(result) -> float:
        return result.speed if result.cpu_bound else 1.0

    ops = [op * scaled(result) for result in results for op in result.op_s]
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    quantile = harness.tail_quantile(len(ops))
    figures = {key: harness.median(result.figures[key] for result in results)
               for key in results[0].figures}
    if workload.name == "serve_mixed":
        ops_per_s = harness.median(result.figures["serve.service_qps"]
                                   / result.speed for result in results)
    else:
        ops_per_s = len(ops) / sum(ops)
    metrics = {
        "setup_s": harness.median(r.setup_s * r.speed for r in setups),
        "teardown_s": harness.median(
            r.teardown_s * (1.0 if workload.teardown_waits else r.speed)
            for r in teardown_cycles(results, setups)),
        "ops_per_s": ops_per_s,
        "op_p50_ms": harness.percentile(ops, 0.5) * 1000.0,
        "work_s": harness.median(result.work_s * scaled(result)
                                 for result in results),
        "peak_rss_mb": harness.peak_rss_mb(),
        "test_acc": harness.median(result.test_acc for result in setups
                                   if result.test_acc is not None),
        "ok_frac": 1.0 - harness.fail_frac(failed, attempted),
    }
    info = {"tail_quantile": quantile, "samples": len(ops),
            "tail_ms": harness.percentile(ops, quantile) * 1000.0,
            "attempted": attempted, "failed": failed, "figures": figures,
            "speed": harness.median(result.speed for result in setups)}
    return metrics, info


def descriptive_rows(workload, metrics, info) -> List[Tuple[str, float, str]]:
    """The end-to-end figures under their descriptive per-workload names."""
    figures = info["figures"]
    rows = [("setup_s", metrics["setup_s"], "s"),
            ("teardown_s", metrics["teardown_s"], "s")]
    if workload.name == "serve_mixed":
        rows += [
            ("serve.p50_ms", figures["serve.p50_ms"], "ms"),
            ("serve.p99_ms", figures["serve.p99_ms"], "ms"),
            ("serve.p95_ms.block_median",
             figures["serve.p95_ms.block_median"], "ms"),
            ("serve.samples", figures["serve.samples"], "count"),
            ("serve.capacity_qps", figures["serve.capacity_qps"], "qps"),
            ("serve.capacity_achieved_qps",
             figures["serve.capacity_achieved_qps"], "qps"),
            ("serve.service_qps", figures["serve.service_qps"], "qps"),
            ("serving.gen_lag_ms.max", figures["serving.gen_lag_ms.max"],
             "ms"),
            ("served_federation.test_acc", metrics["test_acc"], "fraction"),
        ]
        rows += [(key, value, "ms" if key.endswith("_ms") else
                  "qps" if key.endswith("_qps") else "flag")
                 for key, value in sorted(figures.items())
                 if key.startswith("serve.ladder_")]
    else:
        rows += [("step1_rounds_per_s", metrics["ops_per_s"], "rounds/s"),
                 ("step1_round_ms.p50", metrics["op_p50_ms"], "ms"),
                 (f"step1_round_ms.p{info['tail_quantile'] * 100:g}",
                  info["tail_ms"], "ms"),
                 ("step1_round.samples", info["samples"], "count")]
        if "step2_epochs" in figures:
            rows.append(("step2_epochs_per_s",
                         figures["step2_epochs"] / figures["step2_s"],
                         "epochs/s (as measured)"))
        rows.append(("test_acc", metrics["test_acc"], "fraction"))
    rows += [("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
             ("fail_frac", 1.0 - metrics["ok_frac"], "fraction"),
             ("host_speed_factor", info["speed"], "x")]
    return rows


def run_untraced(workload, seed: int):
    from perfbench.metrics import END_TO_END
    from perfbench.workloads import run_rep

    results = [run_rep(workload, seed, draw=draw)
               for draw in range(workload.reps)]
    setups = results + [
        run_rep(workload, seed, draw=workload.reps + extra, with_body=False)
        for extra in range(workload.extra_setups)]
    problems: List[str] = []
    check(setups, problems)
    metrics, info = end_to_end(workload, results, setups)
    print(f"workload {workload.name}: {workload.reps} repetitions, "
          f"{len(setups)} set-ups")
    for name, value, unit in descriptive_rows(workload, metrics, info):
        print(f"  {name:32s} {value:14.6g} {unit}")
    units = {name: unit for name, unit, *_ in END_TO_END}
    return (not problems and info["failed"] == 0, info["attempted"],
            info["failed"], {name: (metrics[name], units[name])
                             for name in units}, problems)


def layer_metrics(workload, tracer, untraced, traced) -> Dict[str, float]:
    from perfbench import harness
    from perfbench.metrics import PER_LAYER

    values = {name: 0.0 for name, *_ in PER_LAYER}
    busy, calls, counters = tracer.busy, tracer.calls, tracer.counters
    for key in ("autograd.matmul", "autograd.sparse", "models.prop_cache"):
        values[f"{key}.calls"] = float(calls.get(key, 0))
    for key in ("autograd.matmul", "autograd.backward", "autograd.sparse",
                "models.forward", "optim.step", "client.local_train",
                "client.eval", "core.step2_epoch", "core.knowledge",
                "core.hcs", "aggregation.fold", "codec.decode",
                "clientstore.pagein", "serving.extract", "serving.plan"):
        values[f"{key}.busy_s"] = busy.get(key, 0.0)
    values["models.prop_cache.calls"] = counters.get(
        "models.prop_cache.calls", 0.0)
    values["models.prop_cache.misses"] = counters.get(
        "models.prop_cache.misses", 0.0)
    values["autograd.matmul.gflop"] = counters.get(
        "autograd.matmul.flop", 0.0) / 1e9
    values["aggregation.folds"] = counters.get("aggregation.folds", 0.0)
    values["clientstore.clients_paged"] = counters.get(
        "clientstore.clients_paged", 0.0)
    values["transport.wait_s"] = busy.get("transport.wait", 0.0)
    values["pool.spawn_s"] = busy.get("pool.spawn", 0.0)
    values["pool.close_s"] = busy.get("pool.close", 0.0)
    values["data.generate_s"] = busy.get("data.generate", 0.0)
    values["data.split_s"] = busy.get("data.split", 0.0)
    waits = tracer.samples.get("serving.queue_wait_ms", [])
    if waits:
        values["serving.queue_wait_ms.p50"] = harness.percentile(
            waits, 0.5, min_beyond=1)
        values["serving.queue_wait_ms.p99"] = harness.percentile(
            waits, 0.99, min_beyond=1)
    if workload.name != "serve_mixed" and traced.op_s:
        rounds_ms = [op * 1000.0 for op in traced.op_s]
        values["pipeline.round_ms.p50"] = harness.percentile(
            rounds_ms, 0.5, min_beyond=1)
        values["pipeline.round_ms.p90"] = harness.percentile(
            rounds_ms, 0.9, min_beyond=1) if len(rounds_ms) >= 10 \
            else max(rounds_ms)
    values.update(traced.layer)
    values["trace.untraced_body_s"] = untraced.body_s
    values["trace.traced_body_s"] = traced.body_s
    values["trace.overhead_s"] = traced.body_s - untraced.body_s
    return values


def run_traced(workload, seed: int):
    from perfbench.metrics import PER_LAYER
    from perfbench.tracer import Tracer
    from perfbench.workloads import run_rep

    untraced = run_rep(workload, seed)
    tracer = Tracer()
    traced = run_rep(workload, seed, tracer=tracer)
    problems: List[str] = []
    check([untraced, traced], problems)
    if untraced.fingerprint != traced.fingerprint:
        problems.insert(0, "traced history differs from the untraced one")
    values = layer_metrics(workload, tracer, untraced, traced)
    print(f"workload {workload.name}: traced run "
          f"(untraced body {untraced.body_s:.3f} s, traced body "
          f"{traced.body_s:.3f} s)")
    if untraced.fingerprint is not None:
        print("  traced history bitwise-equal to untraced: "
              f"{untraced.fingerprint == traced.fingerprint}")
    units = {name: unit for name, unit, *_ in PER_LAYER}
    for name in units:
        print(f"  {name:32s} {values[name]:14.6g} {units[name]}")
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return (not problems and failed == 0, attempted, failed,
            {name: (values[name], units[name]) for name in units}, problems)


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()
    except OSError:
        pass


def stop_helpers() -> None:
    """Stop the multiprocessing helper processes this run started."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    # Registered before multiprocessing is first imported, so it runs after
    # multiprocessing's own exit handler has removed its temp directory.
    atexit.register(remove_scratch, scratch)
    if len(str(scratch)) <= MAX_TMPDIR:
        # multiprocessing puts its forkserver socket under TMPDIR; keep it in
        # the checkout unless the path would overflow a Unix socket name
        os.environ["TMPDIR"] = str(scratch)
        tempfile.tempdir = None
    try:
        workload = make_workload(args.workload, args.seconds, str(scratch))
        runner = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics, problems = runner(
            workload, args.seed)
    finally:
        stop_helpers()
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(f"  verdict: {'correct' if correct else 'INCORRECT'} "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
