"""The ``serve_mixed`` workload: open-loop queries against a QueryEngine.

Set-up trains a FedGCN federation, freezes it into a snapshot and starts a
:class:`~repro.serving.QueryEngine`.  The body then drives three phases from
one generator thread each, all on the same engine:

* **nominal** — a Poisson stream at 1000 qps; its p50/p99 are the latency
  figures;
* **ladder** — fixed offered rates; the capacity is the highest rung whose
  p99 meets the limit with no failed query and no growing backlog, scaled by
  the share of its realized schedule rate the engine achieved;
* **service rate** — over all phases, queries answered per second of CPU
  time the engine thread spends flushing batches: the rate it could
  sustain if never idle.

80% of queries read a known node (transductive), 20% predict a new node
attached to an anchor set (inductive).  Anchor sets are drawn Zipf-popular
from a pool five times larger than the engine's LRU, so the cache sees hits,
inserts and evictions.  Every answer is compared bitwise with a reference
computed before the first timed query: offline ``Client.predict`` for known
nodes, a forward of a freshly built model over ``extract_block`` for new
ones.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from perfbench.harness import (
    backlog_grows,
    blocked_percentile,
    capacity,
    percentile,
)
from perfbench.workloads import ARRAY_BACKEND, CALIBRATION_SAMPLES, Workload

NOMINAL_QPS = 1000.0
NOMINAL_QUERIES = 4000
#: queries per block of the nominal stream's per-block p99
TAIL_BLOCK = 1000
LADDER = ((600.0, 1200), (1200.0, 1200), (2400.0, 1200))
SLO_MS = 25.0
INDUCTIVE_FRACTION = 0.2
CACHE_SIZE = 128
ANCHOR_POOL = 5 * CACHE_SIZE
ZIPF_EXPONENT = 1.1
MAX_BATCH = 32
MAX_DELAY_MS = 2.0
HIDDEN = 32
TRAIN_ROUNDS = 20


class QueryPlan:
    """Seeded queries with their reference answers."""

    def __init__(self, snapshot, count: int, rng: np.random.Generator,
                 pool: List[Tuple[int, np.ndarray]], weights: np.ndarray):
        from repro.serving import InductiveQuery, TransductiveQuery

        ids = snapshot.client_ids
        self.queries = []
        for _ in range(count):
            if rng.random() < INDUCTIVE_FRACTION:
                client_id, anchors = pool[int(rng.choice(len(pool),
                                                         p=weights))]
                graph = snapshot.entry(client_id).graph
                base = np.asarray(graph.features)[int(anchors[0])]
                features = base + 0.1 * rng.standard_normal(base.shape)
                self.queries.append(
                    InductiveQuery(client_id, features, anchors))
            else:
                client_id = ids[int(rng.integers(len(ids)))]
                nodes = snapshot.entry(client_id).graph.num_nodes
                self.queries.append(
                    TransductiveQuery(client_id, int(rng.integers(nodes))))
        self.expected: List[np.ndarray] = []


def anchor_pool(snapshot, rng) -> Tuple[List[Tuple[int, np.ndarray]],
                                        np.ndarray]:
    """Inductive anchor sets and their Zipf popularity weights."""
    ids = snapshot.client_ids
    pool = []
    for _ in range(ANCHOR_POOL):
        client_id = ids[int(rng.integers(len(ids)))]
        nodes = snapshot.entry(client_id).graph.num_nodes
        pool.append((client_id, rng.choice(nodes, size=2, replace=False)))
    ranks = rng.permutation(ANCHOR_POOL) + 1
    weights = 1.0 / ranks.astype(np.float64) ** ZIPF_EXPONENT
    return pool, weights / weights.sum()


def references(plans: Sequence[QueryPlan], trainer, snapshot,
               seed: int) -> None:
    """Fill every plan's expected answers (outside all timed intervals)."""
    from repro.autograd import Tensor, functional as F, no_grad, use_backend
    from repro.fgl import make_model_factory
    from repro.serving import InductiveQuery, extract_block, receptive_depth

    offline = {}
    for client in trainer.clients:
        client.invalidate_cache()
        offline[client.client_id] = np.array(client.predict(), copy=True)
    factory = make_model_factory("gcn", hidden=HIDDEN, seed=seed,
                                 array_backend=ARRAY_BACKEND)
    blocks = {}
    with use_backend(ARRAY_BACKEND):
        for plan in plans:
            plan.expected = []
            for query in plan.queries:
                if not isinstance(query, InductiveQuery):
                    plan.expected.append(
                        offline[query.client_id][query.node_id])
                    continue
                entry = snapshot.entry(query.client_id)
                model = factory(entry.graph)       # cold: empty caches
                model.load_state_dict(entry.state)
                model.eval()
                key = (query.client_id, tuple(sorted(set(query.anchors))))
                block = blocks.get(key)
                if block is None:
                    block = blocks[key] = extract_block(
                        entry.graph, query.anchors, receptive_depth(model))
                features = np.concatenate(
                    [block.features, query.features.reshape(1, -1)], axis=0)
                with no_grad():
                    logits = model(Tensor(features), block.adjacency)
                    probs = F.softmax(logits, axis=-1).numpy()
                plan.expected.append(np.array(probs[block.new_index],
                                              copy=True))


def open_loop(engine, plan: QueryPlan, rate: float,
              rng: np.random.Generator) -> Dict:
    """Send ``plan`` at ``rate`` Poisson arrivals/s from one generator
    thread; check every answer.

    Latency runs from each query's scheduled send time, so a stalled engine
    charges its wait to every query scheduled behind it.
    """
    from repro.serving import AdmissionRejected

    count = len(plan.queries)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    sent: List[Tuple[int, float, object]] = []
    lags: List[float] = []
    errors = {"rejected": 0, "raised": 0}
    start_box: List[float] = []

    def generate():
        start = time.perf_counter()
        start_box.append(start)
        for index, (query, offset) in enumerate(zip(plan.queries, offsets)):
            target = start + float(offset)
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - target)
            try:
                sent.append((index, target, engine.submit(query)))
            except AdmissionRejected:
                errors["rejected"] += 1
            except Exception:
                errors["raised"] += 1

    thread = threading.Thread(target=generate, name="perfbench-generator")
    thread.start()
    thread.join()
    wrong = 0
    scheduled, latencies, completed = [], [], []
    paths: Dict[str, int] = {}
    for index, target, future in sent:
        try:
            answer = future.result(timeout=120)
        except Exception:
            errors["raised"] += 1
            continue
        if not np.array_equal(answer.probs, plan.expected[index]):
            wrong += 1
        paths[answer.path] = paths.get(answer.path, 0) + 1
        scheduled.append(target)
        latencies.append((answer.completed - target) * 1000.0)
        completed.append(answer.completed)
    failed = wrong + errors["rejected"] + errors["raised"]
    start = start_box[0]
    span = (max(completed) - start) if completed else float("nan")
    cell = {
        "offered_qps": rate,
        "queries": count,
        "failed": failed,
        "wrong": wrong,
        "rejected": errors["rejected"],
        "raised": errors["raised"],
        "span_s": span,
        "achieved_qps": len(completed) / span if completed else 0.0,
        # the seeded schedule's own rate: achieved over realized is how
        # much of the stream the engine kept up with
        "realized_qps": count / float(offsets[-1]),
        "gen_lag_ms_max": max(lags) * 1000.0 if lags else 0.0,
        "latencies_ms": latencies,
        "paths": paths,
    }
    if latencies:
        cell["p50_ms"] = percentile(latencies, 0.5)
        cell["p99_ms"] = percentile(latencies, 0.99, min_beyond=1)
        cell["backlog_growing"] = backlog_grows(scheduled, latencies, SLO_MS)
    else:
        cell.update(p50_ms=float("inf"), p99_ms=float("inf"),
                    backlog_growing=True)
    return cell


def time_flushes(engine) -> List[Tuple[float, int]]:
    """Record (CPU seconds, queries) of every batch flush the engine runs.

    An instance attribute over the bound ``_execute`` — the boundary where
    a flushed batch starts being answered — adds two clock reads per batch.
    The clock is the engine thread's CPU time: wall time would also charge
    the flush for waiting on the generator thread's GIL hand-offs and for
    co-tenants taking the core, which made it spread twice as much.
    """
    flushes: List[Tuple[float, int]] = []
    execute = engine._execute

    def timed(batch, trigger):
        start = time.thread_time()
        try:
            return execute(batch, trigger)
        finally:
            flushes.append((time.thread_time() - start, len(batch)))

    engine._execute = timed
    return flushes


class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("open-loop 80/20 known/new-node queries on a QueryEngine, Zipf "
           "anchors over a 5x-LRU pool: models/autograd forward-only on small "
           "blocks; training layers idle")
    reps = 2
    extra_setups = 10
    num_nodes = 1000
    num_clients = 5

    def setup(self, seed, tracer):
        from repro import datasets, simulation
        from repro.federated import FederatedConfig
        from repro.fgl import build_baseline
        from repro.serving import QueryEngine, ServingSnapshot

        graph = datasets.load_dataset("cora", seed=seed,
                                      num_nodes=self.num_nodes)
        clients = simulation.community_split(graph, self.num_clients,
                                             seed=seed)
        trainer = build_baseline(
            "fedgcn", clients, hidden=HIDDEN,
            config=FederatedConfig(rounds=TRAIN_ROUNDS, local_epochs=2,
                                   seed=seed, array_backend=ARRAY_BACKEND))
        history = trainer.run()
        snapshot = ServingSnapshot.from_trainer(trainer)
        engine = QueryEngine(snapshot, max_batch=MAX_BATCH,
                             max_delay_ms=MAX_DELAY_MS,
                             array_backend=ARRAY_BACKEND,
                             cache_size=CACHE_SIZE)
        return {"trainer": trainer, "snapshot": snapshot, "engine": engine,
                "seed": seed, "test_acc": float(history.test_accuracy[-1]),
                "chance": 1.0 / graph.num_classes}

    def phases(self) -> List[Tuple[str, float, int]]:
        """(name, offered qps, queries) of every phase, in order."""
        phases = [("warmup", NOMINAL_QPS, 200),
                  ("nominal", NOMINAL_QPS, NOMINAL_QUERIES)]
        phases += [(f"ladder_{rate:g}", rate, count) for rate, count in LADDER]
        return [(name, rate, max(1, int(round(count * self.scale))))
                for name, rate, count in phases]

    def plans(self, state) -> Dict[str, QueryPlan]:
        snapshot = state["snapshot"]
        rng = np.random.default_rng([state["seed"], 0x5E7E])
        pool, weights = anchor_pool(snapshot, rng)
        return {name: QueryPlan(snapshot, count, rng, pool, weights)
                for name, _, count in self.phases()}

    def prepare(self, state):
        state["plans"] = self.plans(state)
        references(state["plans"].values(), state["trainer"],
                   state["snapshot"], state["seed"])
        # The plans and references are the benchmark's own objects: freeze
        # them (and the set-up heap) out of the collector's generations so
        # the engine is not charged for scanning them.
        gc.collect()
        gc.freeze()

    def body(self, state, tracer, result, clock):
        engine = state["engine"]
        rng = np.random.default_rng([state["seed"], 0xA221])
        flushes = time_flushes(engine)
        cells = {}
        for name, rate, _ in self.phases():
            clock.sample(CALIBRATION_SAMPLES)        # engine idle here
            cells[name] = open_loop(engine, state["plans"][name], rate, rng)
        rungs = [cells[f"ladder_{rate:g}"] for rate, _ in LADDER]
        best = capacity(rungs, SLO_MS)
        nominal = cells["nominal"]
        attempted = sum(cell["queries"] for cell in cells.values())
        failed = sum(cell["failed"] for cell in cells.values())
        # Latencies under a fixed schedule are not CPU-bound: reported as
        # measured, like the time to serve the schedule (nominal + ladder).
        result.cpu_bound = False
        result.op_s = [latency / 1000.0 for latency in nominal["latencies_ms"]]
        result.work_s = sum(cells[name]["span_s"] for name in cells
                            if name == "nominal"
                            or name.startswith("ladder"))
        result.attempted = attempted
        result.failed = failed
        wrong = sum(cell["wrong"] for cell in cells.values())
        if wrong:
            result.problems.append(
                f"{wrong} served answers differ from their references")
        paths: Dict[str, int] = {}
        for cell in cells.values():
            for path, count in cell["paths"].items():
                paths[path] = paths.get(path, 0) + count
        batches = engine.batch_log
        cache = engine.cache
        lookups = cache.hits + cache.misses
        result.figures.update({
            "serve.p50_ms": nominal["p50_ms"],
            "serve.p99_ms": nominal["p99_ms"],
            "serve.p95_ms.block_median": blocked_percentile(
                nominal["latencies_ms"], 0.95, TAIL_BLOCK),
            "serve.samples": len(nominal["latencies_ms"]),
            "serve.capacity_qps": best["offered_qps"] if best else 0.0,
            "serve.capacity_achieved_qps":
                best["offered_qps"] * best["achieved_qps"]
                / best["realized_qps"] if best else 0.0,
            "serve.service_qps": sum(size for _, size in flushes)
            / sum(busy for busy, _ in flushes),
            "serve.capacity_rung_passed": float(best is not None),
            "serving.gen_lag_ms.max": max(
                cell["gen_lag_ms_max"] for cell in cells.values()),
            "serve.wrong": wrong,
        })
        for rate, _ in LADDER:
            rung = cells[f"ladder_{rate:g}"]
            result.figures[f"serve.ladder_{rate:g}.p99_ms"] = rung["p99_ms"]
            result.figures[f"serve.ladder_{rate:g}.achieved_qps"] = \
                rung["achieved_qps"]
            result.figures[f"serve.ladder_{rate:g}.backlog"] = \
                float(rung["backlog_growing"])
        result.layer.update({
            "serving.batch_size.mean":
                float(np.mean([b["size"] for b in batches])) if batches
                else 0.0,
            "serving.flush.deadline_frac":
                (sum(1 for b in batches if b["trigger"] == "deadline")
                 / len(batches)) if batches else 0.0,
            "serving.path.table": float(paths.get("table", 0)),
            "serving.path.fused": float(paths.get("fused", 0)),
            "serving.path.serial": float(paths.get("serial", 0)),
            "serving.lru.hit_ratio": cache.hits / lookups if lookups else 0.0,
            "serving.lru.evictions": float(cache.evictions),
            "serving.gen_lag_ms.max": result.figures["serving.gen_lag_ms.max"],
        })

    def teardown(self, state):
        engine = state.get("engine")
        if engine is not None:
            engine.close()
        gc.unfreeze()

