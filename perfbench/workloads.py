"""The four benchmark workloads.

Each workload is set up, run for a fixed body of work and torn down by
:func:`run_rep`; a benchmark run repeats that a few times in one fresh
process.  Inputs come only from the seed.  The program is imported from
``src/`` of the checkout the benchmark runs in (see ``run.py``).

* ``adafgl_serial`` — the paper's two-step AdaFGL, serial backend;
* ``pool_tcp`` — Step 1 of FedGCN over 60 tiny clients on a 1-worker
  process pool with the TCP transport and the ``qtopk`` codec;
* ``store_hier`` — hierarchical FedAvg over a 10k-client ``ClientStore``
  (pipe transport, lossless partials);
* ``serve_mixed`` — an open-loop query stream against a ``QueryEngine``
  (see :mod:`perfbench.serve`).
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import pickle
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from perfbench.calibrate import HostClock
from perfbench.tracer import Tracer

#: array backend every workload runs on (numba is optional and absent here)
ARRAY_BACKEND = "numpy"
#: worker processes of the store workload (the reference host has two
#: cores)
NUM_WORKERS = 2


@dataclass
class RepResult:
    """What one set-up → body → teardown repetition measured."""

    setup_s: float
    teardown_s: float = 0.0
    body_s: float = 0.0
    #: wall time of the body's fixed work, calibration samples taken inside
    #: it excluded (defaults to ``body_s``)
    work_s: Optional[float] = None
    #: durations (s) of the body's primary operation after its warm-up
    op_s: List[float] = field(default_factory=list)
    #: whether ``op_s`` and ``work_s`` are CPU-bound (scaled by ``speed``)
    #: or set by a schedule (reported as measured)
    cpu_bound: bool = True
    #: host-speed factor of this repetition (:meth:`HostClock.factor`)
    speed: float = 1.0
    #: sha256 of the training history (training workloads), for the bitwise
    #: comparison of a traced and an untraced run of the same inputs
    fingerprint: Optional[str] = None
    #: accuracy at the horizon (None for a set-up that trained nothing)
    test_acc: Optional[float] = None
    chance: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: wrong answers and other correctness violations (human text)
    problems: List[str] = field(default_factory=list)
    #: workload-specific figures, printed under their descriptive names
    figures: Dict[str, float] = field(default_factory=dict)
    #: per-layer figures read from live objects before teardown
    layer: Dict[str, float] = field(default_factory=dict)


def history_fingerprint(history) -> str:
    """Digest of every recorded value of a ``TrainingHistory``.

    Wall-clock fields (``client_round_sec``) are left out; pickled floats are
    exact, so equal digests mean bitwise-equal histories.
    """
    payload = (list(history.rounds), list(history.loss),
               list(history.train_accuracy), list(history.test_accuracy),
               [sorted(d.items()) for d in history.client_accuracy],
               sorted(history.participants.items()),
               sorted(history.client_drops.items()))
    return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()


class RoundClock:
    """Per-round wall time of a training loop, host calibration between.

    Every round loop calls ``history.record_participants`` once as its round
    begins.  The hook (an instance attribute over the bound method, so no
    layer is touched) closes the previous round, takes one calibration
    sample and opens the next round, so calibration time never counts as
    round time.
    """

    def __init__(self, history, clock: HostClock):
        self.clock = clock
        #: round start times, after the calibration sample
        self.starts: List[float] = []
        #: times the hook was entered (the previous round's end)
        self.ends: List[float] = []
        record = history.record_participants

        def stamped(round_index, ids):
            self.ends.append(time.perf_counter())
            clock.sample()
            self.starts.append(time.perf_counter())
            return record(round_index, ids)

        history.record_participants = stamped

    def durations(self, end: float) -> List[float]:
        """Round wall times, the body's first round dropped as warm-up."""
        closes = self.ends[1:] + [end]
        return [close - start
                for start, close in zip(self.starts, closes)][1:]

    def calibration_s(self) -> float:
        """Seconds the hook spent calibrating."""
        return sum(start - end for start, end in zip(self.starts, self.ends))


def derive_seed(seed: int, draw: int) -> int:
    """Input seed of a run's ``draw``-th data draw (draw 0 is ``seed``)."""
    if draw == 0:
        return int(seed)
    return int(np.random.SeedSequence([int(seed), int(draw)])
               .generate_state(1)[0] % (2 ** 31))


def fault_failures(fault_stats: Dict[str, int]) -> int:
    """Failed operations a backend's fault counters report."""
    return int(fault_stats.get("dropped_reports", 0)
               + fault_stats.get("crashes", 0)
               + fault_stats.get("timeouts", 0))


class Workload:
    name = ""
    why = ""
    #: full set-up → body → teardown repetitions per untraced run
    reps = 3
    #: extra set-up → teardown repetitions (no body), for the set-up median
    extra_setups = 0
    #: teardown is spent waiting on worker processes (not host-scaled)
    teardown_waits = False

    def __init__(self, seconds: float):
        #: body sizes scale with the run length (10 s is the reference)
        self.scale = max(float(seconds), 1.0) / 10.0

    def horizon(self, base: int, minimum: int = 3) -> int:
        return max(minimum, int(round(base * self.scale)))

    def setup(self, seed: int, tracer: Optional[Tracer]) -> Dict:
        """Build everything up to the first timed round or query.

        A ``"test_acc"`` entry in the returned state is the accuracy of a
        model the set-up itself trained.
        """
        raise NotImplementedError

    def prepare(self, state: Dict) -> None:
        """Untimed work between set-up and body (reference answers)."""

    def body(self, state: Dict, tracer: Optional[Tracer], result: RepResult,
             clock: HostClock) -> None:
        raise NotImplementedError

    def traced_extras(self, state: Dict, tracer: Tracer) -> None:
        """Untimed work a traced run adds after the body."""

    def teardown(self, state: Dict) -> None:
        """Release the workload's resources (the timed ``close``)."""

    def cleanup(self) -> None:
        """Remove the benchmark's own scratch files, after the timed
        teardown."""


#: calibration samples taken before set-up, after set-up and after the body
CALIBRATION_SAMPLES = 10


def run_rep(workload: Workload, seed: int, *, draw: int = 0,
            tracer: Optional[Tracer] = None,
            with_body: bool = True) -> RepResult:
    """One timed set-up, optional body and teardown of ``workload``.

    ``draw`` selects the data draw of ``seed`` (:func:`derive_seed`).  With a
    ``tracer`` the set-up layers are wrapped from the start and the compute
    layers from the end of set-up; everything is restored before returning.
    :meth:`Workload.prepare` runs between set-up and body, outside both
    timed intervals.
    """
    clock = HostClock()
    clock.sample(CALIBRATION_SAMPLES)
    if tracer is not None:
        tracer.install_setup()
    try:
        start = time.perf_counter()
        state = workload.setup(derive_seed(seed, draw), tracer)
        result = RepResult(setup_s=time.perf_counter() - start)
        result.test_acc = state.get("test_acc")
        result.chance = state.get("chance", 0.0)
        try:
            clock.sample(CALIBRATION_SAMPLES)
            if with_body:
                workload.prepare(state)
                if tracer is not None:
                    tracer.install_compute()
                start = time.perf_counter()
                workload.body(state, tracer, result, clock)
                result.body_s = time.perf_counter() - start
                if result.work_s is None:
                    result.work_s = result.body_s
                clock.sample(CALIBRATION_SAMPLES)
                if tracer is not None:
                    workload.traced_extras(state, tracer)
        finally:
            start = time.perf_counter()
            workload.teardown(state)
            state.clear()
            gc.collect()
            result.teardown_s = time.perf_counter() - start
            workload.cleanup()
    finally:
        if tracer is not None:
            tracer.restore()
    result.speed = clock.factor()
    return result


# ----------------------------------------------------------------------
# adafgl_serial
# ----------------------------------------------------------------------
class AdaFGLSerial(Workload):
    name = "adafgl_serial"
    why = ("paper's own two-step AdaFGL, serial: dense matmul/backward, "
           "models, optim and core do the work; pool, transport, codec and "
           "serving stay idle")
    reps = 5
    extra_setups = 11
    num_nodes = 2000
    num_clients = 10

    def setup(self, seed, tracer):
        from repro import datasets, simulation
        from repro.core import AdaFGL, AdaFGLConfig

        graph = datasets.load_dataset("cora", seed=seed,
                                      num_nodes=self.num_nodes)
        clients = simulation.structure_noniid_split(
            graph, self.num_clients, seed=seed)
        method = AdaFGL(clients, AdaFGLConfig(
            seed=seed, array_backend=ARRAY_BACKEND))
        method.run_step1(rounds=1)           # warm-up round
        return {"method": method, "chance": 1.0 / graph.num_classes}

    def body(self, state, tracer, result, clock):
        method = state["method"]
        rounds = self.horizon(40)
        epochs = self.horizon(10)
        timer = RoundClock(method.extractor.trainer.history, clock)
        start = time.perf_counter()
        method.run_step1(rounds=rounds)
        step1_end = time.perf_counter()
        method.run_step2(epochs=epochs)
        step2_end = time.perf_counter()
        result.op_s = timer.durations(step1_end)
        result.work_s = step2_end - start - timer.calibration_s()
        result.fingerprint = (history_fingerprint(method.step1_history)
                              + history_fingerprint(method.history))
        result.test_acc = float(method.history.test_accuracy[-1])
        result.attempted = rounds + epochs
        result.figures.update({
            "step1_rounds": rounds,
            "step2_epochs": epochs,
            "step2_s": step2_end - step1_end,
            "step1_test_acc": float(method.step1_history.test_accuracy[-1]),
        })

    def teardown(self, state):
        state["method"].close()


# ----------------------------------------------------------------------
# pool_tcp
# ----------------------------------------------------------------------
def transport_counters(backend) -> Dict[str, float]:
    """Wire counters of a live pool, read before ``close``."""
    pool = getattr(backend, "_pool", None)
    if pool is None or pool.closed:
        return {}
    stats = pool.network_stats()
    return {key: float(value) for key, value in stats.items()
            if isinstance(value, (int, float))}


class PoolTcp(Workload):
    name = "pool_tcp"
    why = ("Step 1 on 60 tiny clients over a 1-worker TCP pool with qtopk: "
           "dispatch, codec, wire, fold and pool lifecycle set the round")
    reps = 2
    teardown_waits = True
    #: one worker beside the coordinator: with two, three busy processes
    #: share the host's two cores, and a round ran 1.5x slower whenever the
    #: scheduler (or a co-tenant) left the workers one core between them
    num_workers = 1
    num_nodes = 3000
    num_clients = 60

    def setup(self, seed, tracer):
        from repro import datasets, simulation
        from repro.federated import FederatedConfig
        from repro.fgl import build_baseline

        graph = datasets.load_dataset("cora", seed=seed,
                                      num_nodes=self.num_nodes)
        clients = simulation.structure_noniid_split(
            graph, self.num_clients, seed=seed)
        config = FederatedConfig(
            rounds=1, local_epochs=2, lr=0.02, seed=seed,
            backend="process_pool", num_workers=self.num_workers,
            transport="tcp", delta_codec="qtopk", delta_top_k=32,
            delta_bits=8, array_backend=ARRAY_BACKEND)
        trainer = build_baseline("fedgcn", clients, config=config, hidden=32)
        trainer.close_backend_after_run = False
        state = {"trainer": trainer, "chance": 1.0 / graph.num_classes}
        trainer.run(1)                     # pool spawn + warm-up round
        return state

    def body(self, state, tracer, result, clock):
        trainer = state["trainer"]
        backend = trainer.backend
        rounds = self.horizon(90)
        uploaded_before = backend.transport.summary()["uploaded"]
        timer = RoundClock(trainer.history, clock)
        start = time.perf_counter()
        history = trainer.run(rounds)
        end = time.perf_counter()
        # everything below is read while the pool is still open
        stats = dict(backend.last_pipeline_stats or {})
        uploaded = backend.transport.summary()["uploaded"] - uploaded_before
        result.op_s = timer.durations(end)
        result.work_s = end - start - timer.calibration_s()
        result.fingerprint = history_fingerprint(history)
        result.test_acc = float(history.test_accuracy[-1])
        result.attempted = rounds
        result.failed = fault_failures(backend.fault_stats)
        result.figures["step1_rounds"] = rounds
        wire = transport_counters(backend)
        result.layer.update({
            "codec.upload_floats_per_round": uploaded / rounds,
            "transport.frames_sent": wire.get("frames_sent", 0.0),
            "transport.bytes_sent": wire.get("bytes_sent", 0.0),
            "transport.retransmits": wire.get("retransmits", 0.0),
            "transport.reconnects": wire.get("reconnects", 0.0),
            "pipeline.worker_utilization":
                float(stats.get("worker_utilization", 0.0)),
            "pipeline.straggler_wait_s":
                float(stats.get("straggler_wait_sec", 0.0)),
        })

    def teardown(self, state):
        state["trainer"].close()


# ----------------------------------------------------------------------
# store_hier
# ----------------------------------------------------------------------
STORE_FEATURES = 16
STORE_CLASSES = 3
STORE_NODES = 12
STORE_TEMPLATES = 256


def tiny_client_graph(seed: int):
    """A cross-device-sized client: a ring with label-signal features."""
    import scipy.sparse as sp

    from repro.graph import Graph

    rng = np.random.default_rng(seed)
    n = STORE_NODES
    labels = rng.integers(0, STORE_CLASSES, size=n)
    features = rng.normal(size=(n, STORE_FEATURES))
    features[np.arange(n), labels % STORE_FEATURES] += 2.0
    row = np.repeat(np.arange(n), 2)
    col = np.stack([(np.arange(n) + 1) % n, (np.arange(n) - 1) % n],
                   axis=1).ravel()
    adjacency = sp.csr_matrix((np.ones(row.size), (row, col)), shape=(n, n))
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[:n // 2] = True
    val[n // 2:3 * n // 4] = True
    test[3 * n // 4:] = True
    return Graph(adjacency=adjacency, features=features, labels=labels,
                 train_mask=train, val_mask=val, test_mask=test,
                 name=f"perfbench-{seed}",
                 metadata={"num_classes": STORE_CLASSES})


def store_spec(seed: int):
    from repro.federated.engine import ModelSpec

    return ModelSpec(model_name="gcn", hidden=8, dropout=0.5, seed=seed,
                     array_backend=ARRAY_BACKEND)


def _create_store(path: str, num_clients: int, seed: int) -> None:
    from repro.federated.engine import ClientStore

    pool = [tiny_client_graph(seed * 100_003 + index)
            for index in range(STORE_TEMPLATES)]
    ClientStore.create(path, (pool[index % STORE_TEMPLATES]
                              for index in range(num_clients)),
                       store_spec(seed))


def build_store(path: str, num_clients: int, seed: int) -> None:
    """Write the store from a forked child, so the arenas it dirties never
    count against the coordinator's peak RSS."""
    child = multiprocessing.get_context("fork").Process(
        target=_create_store, args=(path, num_clients, seed))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"store creation failed (exit {child.exitcode})")


class StoreHier(Workload):
    name = "store_hier"
    why = ("hierarchical FedAvg over a 10k-client store, 256-client cohorts "
           "on a pipe pool: store page-in and per-worker partial merges; "
           "TCP changes leave it unmoved")
    reps = 3
    extra_setups = 9
    num_clients = 10_000
    cohort = 256
    eval_sample = 1024

    def __init__(self, seconds: float, scratch: str):
        super().__init__(seconds)
        self.scratch = scratch
        self._count = 0
        #: stores whose trainer is closed, removed by :meth:`cleanup`
        self._spent: List[str] = []

    def setup(self, seed, tracer):
        from repro.federated.engine import ClientStore, StoreFederatedTrainer

        self._count += 1
        path = os.path.join(self.scratch, f"store-{self._count}")
        shutil.rmtree(path, ignore_errors=True)
        build = build_store if tracer is None else \
            tracer.timed("data.generate", build_store)
        build(path, self.num_clients, seed)
        store = ClientStore.open(path)
        rounds = self.horizon(12)
        trainer = StoreFederatedTrainer(
            store, rounds=rounds, local_epochs=1, lr=0.2,
            participation=self.cohort / self.num_clients, seed=seed,
            num_workers=NUM_WORKERS, eval_every=rounds + 1,
            eval_sample=self.eval_sample)
        state = {"trainer": trainer, "path": path, "rounds": rounds,
                 "chance": 1.0 / STORE_CLASSES}
        # The benchmark times close() on its own, so run() must leave the
        # pool up: shadow close on the instance until teardown.
        trainer.close = lambda: None
        trainer.rounds = 1
        trainer.run()                         # pool spawn + warm-up round
        trainer.rounds = rounds
        trainer.history = type(trainer.history)()
        return state

    def body(self, state, tracer, result, clock):
        trainer = state["trainer"]
        rounds = state["rounds"]
        timer = RoundClock(trainer.history, clock)
        start = time.perf_counter()
        history = trainer.run()
        end = time.perf_counter()
        result.op_s = timer.durations(end)
        result.work_s = end - start - timer.calibration_s()
        result.fingerprint = history_fingerprint(history)
        result.test_acc = float(history.test_accuracy[-1])
        result.attempted = rounds
        result.figures["step1_rounds"] = rounds

    def traced_extras(self, state, tracer):
        # Page-in runs inside the workers, which this benchmark does not
        # instrument; replay the last cohort's page-in here instead.
        from repro.federated.engine import ClientStore

        participants = state["trainer"].history.participants
        replay = ClientStore.open(state["path"], writable=False)
        for cid in participants[max(participants)]:
            replay.graph(cid)
            replay.materialize(cid)

    def teardown(self, state):
        trainer = state.get("trainer")
        try:
            if trainer is not None:
                del trainer.close
                trainer.close()
        finally:
            if "path" in state:
                self._spent.append(state["path"])

    def cleanup(self):
        # deleting the store is the benchmark's housekeeping, not the
        # program's close(), and file-system time is too erratic to time
        while self._spent:
            shutil.rmtree(self._spent.pop(), ignore_errors=True)
