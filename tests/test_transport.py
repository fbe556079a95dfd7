"""Transport layer: framed TCP channels, WAN simulation, parity, recovery.

The tentpole bar this file enforces (see README "Transports"):

* frame codec integrity — CRC failures and stream desync are distinct,
  recoverable vs fatal conditions;
* the simulated WAN model is seed-deterministic;
* sync-path ``TrainingHistory`` is **bitwise-equal** between
  ``transport="pipe"`` and ``transport="tcp"`` on localhost — including the
  hierarchical fold and the lossy qtopk codec;
* injected network faults (``delay`` / ``drop_msg`` / ``reorder`` /
  ``partition``) cost time, never data: histories stay bitwise-equal to the
  failure-free run while the channel stats show the faults actually fired;
* a severed link that outlives the reconnect window surfaces as a dead
  worker and the PR 6 ``on_worker_failure`` supervision recovers bitwise;
* heartbeat liveness detects a silent (SIGSTOP'd) worker;
* externally launched workers (``python -m repro.cli worker``) serve the
  same command protocol over ``mode="external"``;
* a clean shutdown is event-driven: pools, idle listeners and listeners
  with a stalled handshake all close in well under a second, every TCP
  thread ends and every worker exits through the ``stop`` command.

CI runs this file as the ``transport-smoke`` job under the per-test hang
guard (``REPRO_TEST_TIMEOUT``), because a transport bug's natural failure
mode is a wedged round.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.federated import FederatedConfig
from repro.federated.engine import (
    FaultEvent,
    FaultPlan,
    PersistentWorkerPool,
    TcpTransport,
    WorkerCrash,
    WorkerError,
    make_transport,
)
from repro.federated.engine.backends import ProcessPoolBackend
from repro.federated.engine.transport import (
    F_DATA,
    FrameCorruption,
    StreamDesync,
    TransportKnobs,
    WanLink,
    WanModel,
    pack_frame,
    read_frame,
    _TcpChannel,
)
from repro.fgl.fedgnn import FederatedGNN
from repro.simulation import community_split

#: knobs that keep failure detection fast without destabilising slow CI
FAST_KNOBS = dict(heartbeat_interval=0.1, heartbeat_timeout=1.5,
                  retransmit_timeout=0.1)


@pytest.fixture(scope="module")
def four_clients(homophilous_graph):
    return community_split(homophilous_graph, 4, seed=0)


def _run(clients, rounds=3, **kwargs):
    defaults = dict(rounds=rounds, local_epochs=2, lr=0.02, seed=0,
                    backend="process_pool", num_workers=2,
                    intra_worker="serial")
    defaults.update(kwargs)
    trainer = FederatedGNN(clients, "gcn", hidden=16,
                           config=FederatedConfig(**defaults))
    history = trainer.run()
    return trainer, history


def _assert_history_bitwise(a, b):
    assert a.rounds == b.rounds
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
    np.testing.assert_array_equal(a.train_accuracy, b.train_accuracy)


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            left.sendall(pack_frame(F_DATA, 7, 3, b"payload bytes"))
            ftype, seq, ack, payload = read_frame(right)
            assert (ftype, seq, ack, payload) == (F_DATA, 7, 3,
                                                  b"payload bytes")
            left.sendall(pack_frame(F_DATA, 8, 3))     # empty payload
            assert read_frame(right)[3] == b""
        finally:
            left.close()
            right.close()

    def test_payload_corruption_is_detected_and_recoverable(self):
        left, right = socket.socketpair()
        try:
            frame = bytearray(pack_frame(F_DATA, 1, 0, b"x" * 64))
            frame[-1] ^= 0xFF                          # damage the payload
            left.sendall(bytes(frame))
            with pytest.raises(FrameCorruption):
                read_frame(right)
            # The stream stays aligned: the next clean frame still parses.
            left.sendall(pack_frame(F_DATA, 2, 0, b"clean"))
            assert read_frame(right)[3] == b"clean"
        finally:
            left.close()
            right.close()

    def test_header_corruption_is_fatal_desync(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"garbage!" + pack_frame(F_DATA, 1, 0, b"x"))
            with pytest.raises(StreamDesync):
                read_frame(right)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# Simulated WAN model
# ----------------------------------------------------------------------
class TestWanModel:
    def test_delay_accounts_latency_jitter_and_bandwidth(self):
        model = WanModel.from_spec({"latency_ms": 10, "jitter_ms": 5,
                                    "bandwidth_mbps": 8, "seed": 3})
        state = model.state_for(0, "down")
        delay = state.delay_for(1_000_000)     # 1 MB at 8 Mbit/s = 1 s
        assert 1.010 <= delay <= 1.015

    def test_seeded_links_are_deterministic(self):
        spec = {"latency_ms": 5, "jitter_ms": 10, "loss": 0.3, "seed": 11,
                "per_worker": {1: {"latency_ms": 80}}}
        a, b = WanModel.from_spec(spec), WanModel.from_spec(spec)
        for worker in (0, 1):
            for direction in ("down", "up"):
                sa = a.state_for(worker, direction)
                sb = b.state_for(worker, direction)
                assert [sa.delay_for(100) for _ in range(20)] == \
                    [sb.delay_for(100) for _ in range(20)]
                assert [sa.drops() for _ in range(20)] == \
                    [sb.drops() for _ in range(20)]
        assert a.link_for(1).latency_ms == 80
        assert a.link_for(0).latency_ms == 5

    def test_directions_and_workers_draw_independent_streams(self):
        model = WanModel.from_spec({"jitter_ms": 50, "seed": 0})
        down = [model.state_for(0, "down").delay_for(0) for _ in range(8)]
        up = [model.state_for(0, "up").delay_for(0) for _ in range(8)]
        other = [model.state_for(1, "down").delay_for(0) for _ in range(8)]
        assert down != up and down != other


# ----------------------------------------------------------------------
# Transport selection / validation
# ----------------------------------------------------------------------
class TestSelection:
    def test_pipe_takes_no_options(self):
        with pytest.raises(ValueError, match="no options"):
            make_transport("pipe", {"port": 1})
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("carrier-pigeon")

    def test_backend_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            ProcessPoolBackend(num_workers=2, transport="smoke-signal")

    def test_network_faults_require_tcp(self):
        plan = FaultPlan([FaultEvent(0, 2, "delay", duration=0.1)])
        with pytest.raises(ValueError, match="network"):
            ProcessPoolBackend(num_workers=2, fault_plan=plan)
        # The same plan is accepted when the transport has a wire.
        backend = ProcessPoolBackend(num_workers=2, fault_plan=plan,
                                     transport="tcp")
        assert backend.transport_name == "tcp"

    def test_pipe_channel_refuses_injection(self):
        pool = PersistentWorkerPool(1)
        try:
            with pytest.raises(WorkerError, match="network fault"):
                pool.inject_network_fault(0, "delay", 0.1)
        finally:
            pool.shutdown()

    def test_network_events_validate_durations(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(0, 1, "partition")
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(0, 1, "delay", duration=0.0)
        FaultEvent(0, 1, "drop_msg")     # loss events need no duration
        FaultEvent(0, 1, "reorder")


# ----------------------------------------------------------------------
# Bitwise parity: pipe vs tcp on localhost
# ----------------------------------------------------------------------
class TestTcpParity:
    def test_sync_history_bitwise_equal(self, four_clients):
        _, pipe = _run(four_clients)
        trainer, tcp = _run(four_clients, transport="tcp")
        _assert_history_bitwise(pipe, tcp)
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["transport"] == "tcp"
        assert stats["frames_sent"] > 0 and stats["crc_failures"] == 0

    def test_hierarchical_fold_bitwise_equal(self, four_clients):
        _, pipe = _run(four_clients, hierarchical=True)
        _, tcp = _run(four_clients, hierarchical=True, transport="tcp")
        _assert_history_bitwise(pipe, tcp)

    def test_qtopk_codec_bitwise_equal(self, four_clients):
        codec = dict(delta_codec="qtopk", delta_top_k=16, delta_bits=8)
        _, pipe = _run(four_clients, **codec)
        _, tcp = _run(four_clients, transport="tcp", **codec)
        _assert_history_bitwise(pipe, tcp)

    def test_wan_link_slows_but_never_changes_results(self, four_clients):
        _, pipe = _run(four_clients)
        trainer, tcp = _run(
            four_clients, transport="tcp",
            transport_options={"wan": {"latency_ms": 15, "jitter_ms": 5,
                                       "loss": 0.05, "seed": 4},
                               **FAST_KNOBS})
        _assert_history_bitwise(pipe, tcp)
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["transport"] == "tcp"
        assert stats["wan_dropped"] >= 1       # loss=0.05 fires, data survives


# ----------------------------------------------------------------------
# Network fault events: flaky links cost time, never data
# ----------------------------------------------------------------------
class TestNetworkFaults:
    def test_drop_reorder_delay_are_bitwise_transparent(self, four_clients):
        _, baseline = _run(four_clients, rounds=4)
        plan = FaultPlan([FaultEvent(0, 2, "drop_msg"),
                          FaultEvent(1, 2, "reorder"),
                          FaultEvent(0, 3, "delay", duration=0.3)])
        trainer, history = _run(four_clients, rounds=4, transport="tcp",
                                transport_options=dict(FAST_KNOBS),
                                fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert trainer.backend.fault_stats["network_faults"] == 3
        assert trainer.backend.fault_stats["crashes"] == 0
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["injected_faults"] == 3
        assert stats["retransmits"] >= 1          # the dropped frame

    def test_retransmit_survives_heartbeat_pacing(self, four_clients):
        """Regression: heartbeats must not suppress the retransmit gate.
        With ``heartbeat_interval < retransmit_timeout`` the outgoing
        heartbeats used to keep refreshing the write clock the gate paced
        on, so a lossy link's dropped DATA frame was never resent and the
        round wedged forever."""
        _, baseline = _run(four_clients)
        trainer, history = _run(
            four_clients, transport="tcp",
            transport_options={"heartbeat_interval": 0.05,
                               "heartbeat_timeout": 5.0,
                               "retransmit_timeout": 0.3,
                               "wan": {"loss": 0.25, "seed": 0}})
        _assert_history_bitwise(baseline, history)
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["wan_dropped"] >= 1
        assert stats["retransmits"] >= 1

    def test_partition_reconnects_and_resumes_bitwise(self, four_clients):
        """A short partition severs the socket mid-round; the worker dials
        back in, the session resumes from the cumulative acks, and the
        history stays bitwise-equal to failure-free — no crash recovery."""
        _, baseline = _run(four_clients, rounds=4)
        plan = FaultPlan([FaultEvent(1, 2, "partition", duration=0.4)])
        trainer, history = _run(four_clients, rounds=4, transport="tcp",
                                transport_options=dict(FAST_KNOBS),
                                fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert trainer.backend.fault_stats["crashes"] == 0
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["reconnects"] >= 1

    def test_dead_link_runs_crash_supervision_bitwise(self, four_clients):
        """A partition outliving the reconnect window is a dead worker: the
        PR 6 restart policy respawns it and recovery snapshots reproduce
        the failure-free history bitwise (the mid-round socket-kill bar)."""
        _, baseline = _run(four_clients, rounds=4)
        plan = FaultPlan([FaultEvent(0, 2, "partition", duration=30.0)])
        trainer, history = _run(
            four_clients, rounds=4, transport="tcp",
            transport_options={**FAST_KNOBS, "reconnect_window": 0.5},
            on_worker_failure="restart", fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert trainer.backend.fault_stats["crashes"] == 1
        assert trainer.backend.fault_stats["restarts"] == 1

    def test_worker_crash_over_tcp_restarts_bitwise(self, four_clients):
        """The PR 6 crash chaos, rerun over sockets: a dead TCP link must
        look exactly like a dead pipe to the supervision layer."""
        _, baseline = _run(four_clients, rounds=4)
        plan = FaultPlan([FaultEvent(1, 2, "crash")])
        trainer, history = _run(
            four_clients, rounds=4, transport="tcp",
            transport_options={**FAST_KNOBS, "reconnect_window": 0.5},
            on_worker_failure="restart", fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert trainer.backend.fault_stats["crashes"] == 1


# ----------------------------------------------------------------------
# Liveness and external workers
# ----------------------------------------------------------------------
class TestLiveness:
    def test_heartbeat_detects_silent_worker(self):
        """A SIGSTOP'd worker answers nothing and closes nothing — only
        heartbeat timeouts can tell the coordinator the link is gone."""
        transport = TcpTransport(heartbeat_interval=0.1,
                                 heartbeat_timeout=0.5,
                                 reconnect_window=0.5)
        pool = PersistentWorkerPool(1, transport=transport)
        process = pool._procs[0]
        try:
            assert pool.call(0, "fetch_all", False) == {}
            os.kill(process.pid, signal.SIGSTOP)
            try:
                pool.send(0, "fetch_all", False)
                with pytest.raises(WorkerCrash):
                    deadline = time.monotonic() + 15.0
                    while time.monotonic() < deadline:
                        if pool.poll(0):
                            pool.recv(0)
                            break
                        time.sleep(0.05)
                    else:
                        pytest.fail("heartbeat never declared the link dead")
            finally:
                os.kill(process.pid, signal.SIGCONT)
        finally:
            pool.shutdown()

    def test_external_worker_dials_in_via_cli(self):
        """mode='external' + ``python -m repro.cli worker`` is the
        cross-host deployment shape (here: localhost loopback)."""
        transport = TcpTransport(mode="external", token="s3cret",
                                 connect_timeout=60.0)
        pool = None
        worker = None
        try:
            pool = PersistentWorkerPool(1, transport=transport)
            host, port = transport.address
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                 env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--connect", f"{host}:{port}", "--worker-id", "0",
                 "--token", "s3cret"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            assert pool.call(0, "fetch_all", False) == {}
            assert pool.is_alive(0)
        finally:
            if pool is not None:
                pool.shutdown()
            if worker is not None:
                try:
                    worker.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait(timeout=10)
                    pytest.fail("external worker did not exit after stop")


# ----------------------------------------------------------------------
# Teardown: no fixed sleeps or join timeouts on a clean stop
# ----------------------------------------------------------------------
#: threads a TcpTransport and its channels own
TCP_THREADS = ("tcp-acceptor", "tcp-reader-", "tcp-writer-")


def _tcp_threads():
    return {thread for thread in threading.enumerate()
            if thread.name.startswith(TCP_THREADS)}


class TestTeardown:
    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_pool_shutdown_is_prompt_and_clean(self, num_workers):
        before = _tcp_threads()
        pool = PersistentWorkerPool(num_workers, transport=TcpTransport())
        try:
            for worker in range(num_workers):
                assert pool.call(worker, "fetch_all", False) == {}
            owned = _tcp_threads() - before
            assert len(owned) == 1 + 2 * num_workers   # acceptor + r/w
            processes = list(pool._procs)
        finally:
            start = time.perf_counter()
            pool.shutdown()
            elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"shutdown took {elapsed:.2f} s"
        assert [thread.name for thread in owned if thread.is_alive()] == []
        # exit code 0: the worker left through "stop", not terminate()
        assert [process.exitcode for process in processes] == \
            [0] * num_workers

    def test_worker_close_ends_when_the_coordinator_hangs_up(self):
        """The worker's reply to ``stop`` may never be acked: the
        coordinator can hang up first.  Its close must end with the link,
        not wait out the drain bound."""
        transport = TcpTransport(mode="external")
        coordinator, _process = transport.spawn(0)
        worker = _TcpChannel(0, TransportKnobs(),
                             dial=(transport.address, "", None))
        try:
            coordinator.send(("stop", None))
            assert worker.recv() == ("stop", None)
            coordinator.close()            # returns once "stop" is acked
            worker.send(("ok", None))      # nobody is left to ack this
            start = time.perf_counter()
            worker.close()
            assert time.perf_counter() - start < 0.25
        finally:
            worker.close()
            transport.close()

    def test_undialed_external_transport_closes_promptly(self):
        transport = TcpTransport(mode="external")
        start = time.perf_counter()
        transport.close()
        assert time.perf_counter() - start < 1.0
        assert not transport._acceptor.is_alive()

    def test_close_during_a_stalled_handshake_is_prompt(self):
        transport = TcpTransport(mode="external")
        dialer = socket.create_connection(transport.address)
        try:
            # The dialer never sends HELLO: the acceptor sits in its read.
            deadline = time.monotonic() + 10.0
            while transport._handshake is None:
                assert time.monotonic() < deadline, "connection not accepted"
                time.sleep(0.01)
            start = time.perf_counter()
            transport.close()
            assert time.perf_counter() - start < 1.0
            assert not transport._acceptor.is_alive()
        finally:
            dialer.close()
