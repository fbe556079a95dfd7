"""Layer timings traced from outside the program.

:class:`Tracer` replaces public functions and methods of the program's
layers with timing wrappers and puts every original back on
:meth:`Tracer.restore`.  Per layer key it keeps a call count and the busy
seconds of the outermost call (a call nested inside another call of the same
key is counted but not timed twice), plus free-form counters the hooks add.
Nothing under ``src/`` changes.

Wrappers are process-wide: they see the coordinator and, for the serving
workload, the engine thread.  Worker processes started with ``fork`` after
:meth:`Tracer.install_compute` would inherit them, so the workloads install
the compute layers only once their worker pools are up.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self):
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def add(self, counter: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def timed(self, key: str, fn: Callable, *,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None,
              when: Optional[Callable[[], bool]] = None) -> Callable:
        """``fn`` wrapped to account its calls under layer ``key``.

        ``before(*args, **kwargs)`` runs ahead of every outermost call and
        ``after(result, *args, **kwargs)`` after it; ``when()`` returning
        False skips all accounting for that call.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            depths = tracer._depths()
            if depths.get(key, 0):
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            depths[key] = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depths[key] = 0
                with tracer._lock:
                    tracer.busy[key] += elapsed
                    tracer.calls[key] += 1
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def patch(self, owner, attr: str, key: str, **hooks) -> None:
        """Replace ``owner.attr`` with a timed wrapper (restorable)."""
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.timed(key, raw.__func__, **hooks))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self.timed(key, raw.__func__, **hooks))
        else:
            replacement = self.timed(key, raw, **hooks)
        self._patches.append((owner, attr, raw, own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @property
    def active(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------
    # Layer installation
    # ------------------------------------------------------------------
    def install_setup(self) -> None:
        """Data generation, client split, pool spawn and pool close."""
        import repro.datasets
        import repro.simulation
        from repro.federated.engine import persistent

        self.patch(repro.datasets, "load_dataset", "data.generate")
        for name in ("structure_noniid_split", "community_split"):
            self.patch(repro.simulation, name, "data.split")
        self.patch(persistent.PersistentWorkerPool, "__init__", "pool.spawn")
        self.patch(persistent.PersistentWorkerPool, "shutdown", "pool.close")

    def install_compute(self) -> None:
        """Every layer the steady-state body runs through."""
        from repro.autograd import Tensor
        from repro.autograd.backend import ArrayBackend
        from repro.core import adafgl, knowledge
        from repro.federated import client, server
        from repro.federated.engine import (
            aggregation,
            backends,
            batched,
            clientstore,
            persistent,
            transport,
        )
        from repro.models.base import GraphModel
        from repro.optim import optimizers
        from repro.serving import engine

        # autograd: dense matmul forward + its backward closure, the whole
        # backward pass, and the array backend's sparse kernels
        def matmul_after(out, this, other):
            # 2·m·k·n per product, from the operand and output shapes; the
            # backward runs one product of that size per operand needing a
            # gradient
            flops = 2.0 * this.shape[-1]
            for dim in out.shape:
                flops *= dim
            self.add("autograd.matmul.flop", flops)
            closure = out._backward
            if closure is None:
                return
            grads = int(this.requires_grad) + int(
                getattr(other, "requires_grad", False))

            def backward(grad, _closure=closure):
                start = time.perf_counter()
                try:
                    _closure(grad)
                finally:
                    with self._lock:
                        self.busy["autograd.matmul"] += \
                            time.perf_counter() - start
                        self.counters["autograd.matmul.flop"] += flops * grads

            out._backward = backward

        self.patch(Tensor, "matmul", "autograd.matmul", after=matmul_after)
        self.patch(Tensor, "backward", "autograd.backward")
        for kernel in ("spmm", "spmm_backward", "spmm_batched", "sddmm",
                       "sddmm_backward", "spmm_pattern",
                       "spmm_pattern_backward_values",
                       "spmm_pattern_backward_dense"):
            self.patch(ArrayBackend, kernel, "autograd.sparse")

        # models: forward of every graph model, propagation-operator cache
        def prop_before(model, adjacency, *args, **kwargs):
            self.add("models.prop_cache.calls")
            if id(adjacency) not in getattr(model, "_prop_cache", {}):
                self.add("models.prop_cache.misses")

        self.patch(GraphModel, "__call__", "models.forward")
        self.patch(GraphModel, "propagation_matrix", "models.prop_cache",
                   before=prop_before)

        # optim
        for cls in (optimizers.SGD, optimizers.Adam):
            self.patch(cls, "step", "optim.step")

        # federated client
        self.patch(client.Client, "local_train", "client.local_train")
        self.patch(client.Client, "evaluate", "client.eval")

        # core (AdaFGL Step 2 and its knowledge products)
        self.patch(adafgl.PersonalizedClient, "train_epoch", "core.step2_epoch")
        for name in ("client_probabilities", "optimized_matrices"):
            self.patch(knowledge.FederatedKnowledgeExtractor, name,
                       "core.knowledge")
        self.patch(adafgl, "optimized_propagation_matrix", "core.knowledge")
        self.patch(adafgl, "homophily_confidence_score", "core.hcs")

        # aggregation folds (flat streaming folds and edge partial merges)
        def fold_before(*args, **kwargs):
            self.add("aggregation.folds")

        for name in ("add", "add_partial"):
            self.patch(aggregation.StreamingAggregate, name,
                       "aggregation.fold", before=fold_before)
        self.patch(aggregation.StreamingAggregate, "seal", "aggregation.fold")
        self.patch(server.DeterministicSum, "merge", "aggregation.fold",
                   before=fold_before)

        # codec decode on the coordinator (names as the backend binds them)
        for name in ("apply_state_delta", "apply_topk_delta",
                     "apply_stacked_delta"):
            self.patch(backends, name, "codec.decode")

        # transport: time the coordinator blocks waiting for replies
        for cls in (transport.PipeTransport, transport.TcpTransport):
            self.patch(cls, "wait", "transport.wait")

        # client store: ids shipped to store shards, coordinator-side reads
        shard_functions = (clientstore.train_store_shard,
                           clientstore.eval_store_shard)

        def batches_before(pool, batches, *args, **kwargs):
            for commands in batches.values():
                for command, payload in commands:
                    if command == "call" and payload[0] in shard_functions:
                        self.add("clientstore.clients_paged",
                                 len(payload[1][1]))

        self.patch(persistent.PersistentWorkerPool, "run_batches",
                   "pool.run_batches", before=batches_before)
        for name in ("open", "graph", "materialize"):
            self.patch(clientstore.ClientStore, name, "clientstore.pagein")

        # serving: block extraction and fused plans on the engine thread,
        # queue wait at each flush
        def on_engine_thread() -> bool:
            return threading.current_thread().name.startswith(
                "repro-serving")

        def flush_before(engine_self, batch, trigger, *args, **kwargs):
            now = time.perf_counter()
            for item in batch:
                self.sample("serving.queue_wait_ms",
                            (now - item.arrival) * 1000.0)

        self.patch(engine, "extract_block", "serving.extract")
        self.patch(batched, "build_eval_plan", "serving.plan",
                   when=on_engine_thread)
        self.patch(engine.QueryEngine, "_execute", "serving.flush",
                   before=flush_before)
