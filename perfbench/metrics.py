"""Metric catalogue: what each metric means and what it should move.

``END_TO_END`` lists the metrics every workload reports with ``--trace 0``;
``PER_LAYER`` the ones every workload reports with ``--trace 1`` (a layer a
workload does not exercise reads 0).  ``BENCHMARK.json`` mirrors both lists;
``test_harness.py`` checks that they agree.
"""

from __future__ import annotations

#: (name, unit, better, bound, meaning per workload).  "Host-scaled" times
#: are CPU-bound durations multiplied by the repetition's host-speed factor
#: (``calibrate.py``); the rest are reported as measured.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median over the run's set-ups, host-scaled, of workload start to the "
     "first timed round or query: data generation, split, trainer/store/"
     "snapshot build, pool spawn and warm-up round"),
    ("teardown_s", "s", "lower", 0.25,
     "median close() of the pool, trainer or engine plus collecting the "
     "freed objects, over the run's set-up-only cycles (pool_tcp: over its "
     "repetitions); host-scaled, except pool_tcp's, which waits out a "
     "worker join timeout"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "training: Step-1 rounds completed per second after warm-up (timed "
     "rounds over their host-scaled total time); serve_mixed: the engine's "
     "host-scaled service rate, queries answered per CPU second of the "
     "engine thread's batch flushing over all phases"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "training: median host-scaled Step-1 round time; serve_mixed: median "
     "latency at 1000 qps offered, from each query's scheduled send time"),
    ("work_s", "s", "lower", 0.25,
     "training: median host-scaled wall time of the fixed body (adafgl_serial "
     "Step 1 + Step 2, the others their Step-1 rounds); serve_mixed: time to "
     "serve the fixed open-loop schedule (nominal stream and ladder)"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident set of the coordinator process over the whole run"),
    ("test_acc", "fraction", "higher", 0.25,
     "median test accuracy at the workload's fixed horizon over the run's "
     "data draws (serve_mixed: of the federations its set-ups train)"),
    ("ok_frac", "fraction", "higher", 0.05,
     "1 - fail_frac: operations that neither failed, raised, were rejected, "
     "answered wrongly nor were dropped, over operations attempted"),
]

#: (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("autograd.matmul.calls", "count", "lower",
     "ops_per_s and work_s on adafgl_serial; serve.p99_ms (printed) on "
     "serve_mixed"),
    ("autograd.matmul.busy_s", "s", "lower",
     "ops_per_s and work_s on adafgl_serial; serve.p99_ms (printed) on "
     "serve_mixed"),
    ("autograd.matmul.gflop", "GFLOP", "lower",
     "ops_per_s and work_s on adafgl_serial"),
    ("autograd.backward.busy_s", "s", "lower",
     "ops_per_s and work_s on adafgl_serial"),
    ("autograd.sparse.calls", "count", "lower",
     "ops_per_s and work_s on adafgl_serial; serve.p99_ms (printed) on "
     "serve_mixed"),
    ("autograd.sparse.busy_s", "s", "lower",
     "ops_per_s and work_s on adafgl_serial; serve.p99_ms (printed) on "
     "serve_mixed"),
    ("models.forward.busy_s", "s", "lower",
     "ops_per_s on adafgl_serial; serve.p99_ms (printed) on serve_mixed"),
    ("models.prop_cache.calls", "count", "lower",
     "ops_per_s on adafgl_serial; serve.p99_ms (printed) on serve_mixed, "
     "serial path"),
    ("models.prop_cache.misses", "count", "lower",
     "ops_per_s on adafgl_serial; serve.p99_ms (printed) on serve_mixed, "
     "serial path"),
    ("optim.step.busy_s", "s", "lower", "ops_per_s on adafgl_serial"),
    ("client.local_train.busy_s", "s", "lower", "ops_per_s on adafgl_serial"),
    ("client.eval.busy_s", "s", "lower", "ops_per_s on adafgl_serial"),
    ("core.step2_epoch.busy_s", "s", "lower",
     "work_s on adafgl_serial (Step 2)"),
    ("core.knowledge.busy_s", "s", "lower",
     "work_s on adafgl_serial (Step 2)"),
    ("core.hcs.busy_s", "s", "lower", "work_s on adafgl_serial (Step 2)"),
    ("aggregation.folds", "count", "lower",
     "ops_per_s on pool_tcp and store_hier"),
    ("aggregation.fold.busy_s", "s", "lower",
     "ops_per_s on pool_tcp and store_hier"),
    ("codec.upload_floats_per_round", "floats", "lower",
     "ops_per_s on pool_tcp"),
    ("codec.decode.busy_s", "s", "lower", "ops_per_s on pool_tcp"),
    ("pool.spawn_s", "s", "lower", "setup_s on pool_tcp and store_hier"),
    ("pool.close_s", "s", "lower", "teardown_s on pool_tcp and store_hier"),
    ("transport.wait_s", "s", "lower",
     "ops_per_s on pool_tcp; nothing on store_hier (pipe)"),
    ("transport.frames_sent", "count", "lower", "ops_per_s on pool_tcp"),
    ("transport.bytes_sent", "bytes", "lower", "ops_per_s on pool_tcp"),
    ("transport.retransmits", "count", "lower", "ops_per_s on pool_tcp"),
    ("transport.reconnects", "count", "lower", "ops_per_s on pool_tcp"),
    ("pipeline.round_ms.p50", "ms", "lower",
     "ops_per_s and op_p50_ms on pool_tcp and store_hier"),
    ("pipeline.round_ms.p90", "ms", "lower",
     "the printed Step-1 round tail on pool_tcp and store_hier"),
    ("pipeline.worker_utilization", "fraction", "higher",
     "ops_per_s on pool_tcp"),
    ("pipeline.straggler_wait_s", "s", "lower", "ops_per_s on pool_tcp"),
    ("clientstore.clients_paged", "count", "lower",
     "ops_per_s and peak_rss_mb on store_hier"),
    ("clientstore.pagein.busy_s", "s", "lower",
     "ops_per_s and peak_rss_mb on store_hier"),
    ("data.generate_s", "s", "lower", "setup_s on every workload"),
    ("data.split_s", "s", "lower",
     "setup_s on adafgl_serial, pool_tcp, serve_mixed"),
    ("serving.queue_wait_ms.p50", "ms", "lower", "op_p50_ms on serve_mixed"),
    ("serving.queue_wait_ms.p99", "ms", "lower",
     "ops_per_s and serve.p99_ms (printed) on serve_mixed"),
    ("serving.batch_size.mean", "count", "higher", "ops_per_s on serve_mixed"),
    ("serving.flush.deadline_frac", "fraction", "lower",
     "op_p50_ms on serve_mixed"),
    ("serving.path.table", "count", "higher", "op_p50_ms on serve_mixed"),
    ("serving.path.fused", "count", "higher",
     "serve.p99_ms (printed) on serve_mixed"),
    ("serving.path.serial", "count", "lower",
     "serve.p99_ms (printed) on serve_mixed"),
    ("serving.lru.hit_ratio", "fraction", "higher",
     "serve.p99_ms (printed) on serve_mixed"),
    ("serving.lru.evictions", "count", "lower",
     "serve.p99_ms (printed) on serve_mixed"),
    ("serving.extract.busy_s", "s", "lower",
     "ops_per_s and serve.p99_ms (printed) on serve_mixed"),
    ("serving.plan.busy_s", "s", "lower",
     "ops_per_s and serve.p99_ms (printed) on serve_mixed"),
    ("serving.gen_lag_ms.max", "ms", "lower",
     "none: how late the load generator ran beside the latencies"),
    ("trace.untraced_body_s", "s", "lower",
     "none: body time of the untraced pass"),
    ("trace.traced_body_s", "s", "lower",
     "none: body time of the traced pass"),
    ("trace.overhead_s", "s", "lower",
     "none: traced minus untraced body time (tracing cost)"),
]
