"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-gradgcl --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps the
program's public functions in spans and prints every per-layer metric
instead, writing ``perfbench/out/trace-<workload>-<seed>.json`` (Chrome
trace events) and ``perfbench/out/layers-<workload>-<seed>.txt`` (the
self-time table).  Exits non-zero, printing no result, when the checkout
holds no program.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, spans  # noqa: E402

WORKLOADS = ("train-gradgcl", "eval-protocol", "serve-http")

END_TO_END = ("setup_s", "peak_rss_mb", "throughput_per_s", "p50_ms",
              "tail_ms")

#: Every per-layer metric and its unit.  A traced run reports all of them;
#: a layer its workload never calls reads 0.
PER_LAYER = {
    "pipeline.generate_s": "s", "graph.batch_s": "s", "gnn.encoder_s": "s",
    "gnn.projector_s": "s", "losses.loss_f_s": "s",
    "core.gradient_features_s": "s", "losses.loss_g_s": "s",
    "tensor.backward_s": "s", "nn.optim_step_s": "s",
    "train.batches": "count", "train.graphs": "count",
    "methods.embed_s": "s", "tensor.plan_hit_ratio": "ratio",
    "eval.svm_s": "s", "eval.logreg_s": "s", "eval.fit_iterations": "count",
    "eval.batched_ratio": "ratio",
    "serve.parse_s": "s", "serve.cache_get_s": "s",
    "serve.cache_hit_ratio": "ratio", "serve.queue_wait_s": "s",
    "serve.graphs_per_batch": "graphs", "serve.forward_s": "s",
    "serve.plan_hit_ratio": "ratio", "serve.service_s": "s",
    "http.overhead_ms": "ms", "loadgen.late_ms": "ms",
    "trace.wall_s": "s", "trace.untraced_s": "s",
}


def _workload(name: str):
    if name == "train-gradgcl":
        from perfbench import train_gradgcl as module
    elif name == "eval-protocol":
        from perfbench import eval_protocol as module
    else:
        from perfbench import serve_http as module
    return module


def _per_layer(args, out: dict, recorder, origin: float) -> dict:
    """Fill the per-layer metrics and write the trace and the table."""
    layers = out["layers"]
    rows, wall, ops = layers["rows"], layers["wall_s"], layers["ops"]
    metrics = {name: common.metric(0.0, unit)
               for name, unit in PER_LAYER.items()}
    metrics.update(layers["metrics"])
    metrics["trace.wall_s"] = common.metric(wall / ops, "s")
    untraced = next(s for name, s, _ in rows if name == "untraced")
    metrics["trace.untraced_s"] = common.metric(untraced / ops, "s")
    stem = f"{args.workload}-{args.seed}"
    recorder.write_chrome_trace(common.OUT / f"trace-{stem}.json", origin)
    table = spans.self_time_table(
        rows, wall, f"{args.workload} seed {args.seed}: self time over "
                    f"{ops} x {layers['op']}")
    (common.OUT / f"layers-{stem}.txt").write_text(table + "\n")
    print(table)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.load_program()
    except (common.ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.OUT.mkdir(parents=True, exist_ok=True)

    common.emit({"environment": common.environment(
        args.workload, args.seed, args.seconds, bool(args.trace))})
    recorder = spans.SpanRecorder() if args.trace else None
    origin = time.perf_counter()
    out = _workload(args.workload).run(args.seed, args.seconds, recorder)

    checks = {name: {"ok": bool(ok), "detail": detail}
              for name, (ok, detail) in out["checks"].items()}
    common.emit({"checks": checks, "notes": out["notes"]})
    if recorder is not None:
        metrics = _per_layer(args, out, recorder, origin)
    else:
        metrics = out["metrics"]
    common.emit({"correct": all(c["ok"] for c in checks.values()),
                 "attempted": int(out["attempted"]),
                 "failed": int(out["failed"]),
                 "metrics": metrics})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
