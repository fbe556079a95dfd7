"""Coordinator↔worker transports: in-process pipes and framed TCP channels.

The persistent worker pool (:mod:`~repro.federated.engine.persistent`) drives
each worker through a duplex *channel*.  Historically that channel was a raw
``multiprocessing.Pipe``; this module abstracts it behind a small
:class:`WorkerTransport` interface so the same command protocol can cross a
host boundary:

* :class:`PipeTransport` — today's behavior, byte for byte: a duplex fork
  pipe per worker, ``multiprocessing.connection.wait`` for readiness.  The
  parity reference — every checked-in training history is produced over it.
* :class:`TcpTransport` — length-prefixed framed messages over sockets.  The
  coordinator listens; workers dial in (spawned locally by default, or run
  as separate processes/hosts via ``python -m repro.cli worker``).  The
  channel is *born fault-tolerant*:

  - **per-frame CRC32 in both directions** — a corrupted frame is dropped
    and NACKed, and the go-back-N retransmit path redelivers it;
  - **heartbeat liveness** — each side emits heartbeats on an idle link and
    declares the link down after ``heartbeat_timeout`` silent seconds.  A
    link that stays down past its reconnect window surfaces exactly like a
    dead pipe (``recv`` raises ``EOFError``), so the existing
    ``on_worker_failure`` supervision handles a dead socket and a dead
    process identically;
  - **automatic reconnect with exponential backoff + jitter** — a worker
    whose socket dies re-dials the coordinator; sequence-numbered frames
    and cumulative acks let both sides retransmit exactly the unacknowledged
    suffix, so an in-flight round *resumes* instead of restarting (and a
    worker process that did die is re-bootstrapped from the PR 6 recovery
    snapshots by the supervision layer, same as a dead pipe);
  - **send timeouts with bounded retries** — socket writes carry an
    ``io_timeout`` and retransmits are paced by ``retransmit_timeout``
    inside the heartbeat budget, so a flaky link degrades into the round
    loop's ``round_timeout``/drop path instead of wedging a round.

Determinism: message *content* and per-worker FIFO order are identical over
both transports, which is why sync-path training histories are bitwise-equal
across ``pipe`` and ``tcp`` (asserted in ``tests/test_transport.py``).

A seeded simulated WAN (:class:`WanLink`) can be attached to every link:
per-message delay = latency + jitter + bytes/bandwidth, plus an i.i.d. loss
probability, each drawn from a per-link, per-direction
``np.random.default_rng`` stream — deterministic given the seed.  Scheduled
network *events* (``delay``/``partition``/``reorder``/``drop_msg``) from a
:class:`~repro.federated.engine.faults.FaultPlan` are injected through
:meth:`_TcpChannel.inject` on the coordinator side of the link.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import random
import selectors
import socket
import struct
import threading
import time
import zlib
from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# ----------------------------------------------------------------------
# Frame codec: length-prefixed, CRC-protected messages
# ----------------------------------------------------------------------
#: frame header: magic, type, seq, cumulative ack, payload length, payload CRC
_HEADER = struct.Struct("!4sBIIII")
_MAGIC = b"RFT1"

F_DATA = 0    #: an application message (pickled command/reply)
F_ACK = 1     #: cumulative acknowledgement (no payload)
F_HB = 2      #: heartbeat (no payload, carries the ack)
F_HELLO = 3   #: connection handshake (pickled metadata)
F_NACK = 4    #: "retransmit everything after ack" (CRC failure / gap)

FRAME_OVERHEAD = _HEADER.size


class FrameCorruption(Exception):
    """A frame arrived with a payload that fails its CRC (recoverable)."""


class StreamDesync(Exception):
    """The byte stream lost frame alignment (bad magic) — link must reset."""


def pack_frame(ftype: int, seq: int, ack: int, payload: bytes = b"") -> bytes:
    """Serialise one frame: header (with CRC32 of the payload) + payload."""
    header = _HEADER.pack(_MAGIC, ftype, seq, ack, len(payload),
                          zlib.crc32(payload))
    return header + payload


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise EOFError("connection closed")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Tuple[int, int, int, bytes]:
    """Read one frame off a socket; returns ``(ftype, seq, ack, payload)``.

    Raises :class:`FrameCorruption` when the payload fails its CRC (the
    stream itself stays aligned — the corrupted payload was consumed) and
    :class:`StreamDesync` when the header magic is wrong (alignment lost,
    the link must be torn down and re-established).
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, ftype, seq, ack, length, crc = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise StreamDesync(f"bad frame magic {magic!r}")
    payload = _recv_exact(sock, length) if length else b""
    if zlib.crc32(payload) != crc:
        raise FrameCorruption(
            f"frame seq={seq} failed CRC ({length} bytes)")
    return ftype, seq, ack, payload


# ----------------------------------------------------------------------
# Simulated WAN links (deterministic, seeded)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WanLink:
    """One direction of a simulated WAN link.

    ``latency_ms`` is the propagation delay added to every message,
    ``jitter_ms`` the *upper bound* of a uniform extra delay,
    ``bandwidth_mbps`` the serialisation rate (0 = infinite) and ``loss``
    the i.i.d. probability that a frame's transmission is skipped (the
    retransmit machinery redelivers it — loss costs time, never data).
    """

    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    bandwidth_mbps: float = 0.0
    loss: float = 0.0


class LinkState:
    """A :class:`WanLink` bound to one (worker, direction) RNG stream."""

    def __init__(self, link: WanLink, seed: int, worker: int, direction: str):
        self.link = link
        self._rng = np.random.default_rng(
            (int(seed), int(worker), 0 if direction == "down" else 1))

    def delay_for(self, nbytes: int) -> float:
        """Seconds this message spends on the link (latency + serialise)."""
        link = self.link
        delay = link.latency_ms / 1000.0
        if link.jitter_ms > 0.0:
            delay += float(self._rng.random()) * link.jitter_ms / 1000.0
        if link.bandwidth_mbps > 0.0:
            delay += nbytes * 8.0 / (link.bandwidth_mbps * 1e6)
        return delay

    def drops(self) -> bool:
        """One seeded loss draw (False when the link is lossless)."""
        if self.link.loss <= 0.0:
            return False
        return float(self._rng.random()) < self.link.loss


class WanModel:
    """Per-worker WAN links (both directions), resolved from a plain spec.

    The spec is a dict with the :class:`WanLink` fields (applied to every
    link), an optional ``seed`` and an optional ``per_worker`` map of
    worker-index → link-field overrides::

        {"latency_ms": 20, "bandwidth_mbps": 100, "loss": 0.01, "seed": 7,
         "per_worker": {1: {"latency_ms": 80}}}
    """

    def __init__(self, default: WanLink, seed: int = 0,
                 per_worker: Optional[Dict[int, WanLink]] = None):
        self.default = default
        self.seed = int(seed)
        self.per_worker = dict(per_worker or {})

    @classmethod
    def from_spec(cls, spec) -> Optional["WanModel"]:
        if spec is None:
            return None
        if isinstance(spec, WanModel):
            return spec
        spec = dict(spec)
        seed = int(spec.pop("seed", 0))
        per_worker_spec = spec.pop("per_worker", {}) or {}
        default = WanLink(**spec)
        per_worker = {
            int(worker): WanLink(**{**spec, **dict(overrides)})
            for worker, overrides in per_worker_spec.items()}
        return cls(default, seed=seed, per_worker=per_worker)

    def link_for(self, worker: int) -> WanLink:
        return self.per_worker.get(int(worker), self.default)

    def state_for(self, worker: int, direction: str) -> LinkState:
        return LinkState(self.link_for(worker), self.seed, worker, direction)


# ----------------------------------------------------------------------
# Transport knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransportKnobs:
    """Fault-tolerance timing of a TCP channel (seconds).

    ``heartbeat_interval``/``heartbeat_timeout`` bound silent-link
    detection; ``reconnect_window`` is the retry budget a broken link gets
    before it is declared dead (the supervision layer then sees a crashed
    worker); ``retransmit_timeout`` paces go-back-N retransmits;
    ``backoff_base``/``backoff_max`` shape the dialer's exponential backoff
    (each attempt additionally jittered uniformly in [0, backoff)); and
    ``connect_timeout``/``io_timeout`` bound the initial handshake and any
    single blocking socket write.
    """

    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 5.0
    reconnect_window: float = 10.0
    retransmit_timeout: float = 0.25
    connect_timeout: float = 30.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    io_timeout: float = 30.0


#: injectable network fault directives (see faults.NETWORK_KINDS)
_INJECTABLE = ("delay", "partition", "reorder", "drop_msg")


# ----------------------------------------------------------------------
# The reliable framed channel (both ends of a TCP link)
# ----------------------------------------------------------------------
class _TcpChannel:
    """One sequenced, CRC-checked, auto-reconnecting message channel.

    Duck-types the subset of ``multiprocessing.connection.Connection`` the
    worker pool uses — ``send``/``recv``/``poll``/``close`` — with the same
    failure surface: ``send`` raises ``OSError`` and ``recv`` raises
    ``EOFError`` once the channel is dead, so a dead socket looks exactly
    like a dead pipe to the supervision layer.

    Both ends run the same machinery; the ``dial`` argument picks the role.
    The coordinator end is *passive* (the transport's acceptor re-attaches
    sockets as workers dial back in); the worker end is *active* (its writer
    thread dials with exponential backoff + jitter).  All unacknowledged
    frames are kept in a sequence-numbered outbox and retransmitted after a
    reconnect handshake exchanges cumulative acks — the message stream
    resumes without loss or duplication.
    """

    def __init__(self, worker: int, knobs: TransportKnobs,
                 link: Optional[LinkState] = None,
                 dial: Optional[Tuple] = None, transport=None):
        self.worker = worker
        self.knobs = knobs
        self._link = link
        self._dial = dial            # (address, token, session) or None
        self._transport = transport  # owner (coordinator side), for wait()
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)      # writer wake-ups
        self._readable = threading.Condition(self._lock)  # recv/poll waiters
        self._drained = threading.Condition(self._lock)   # close() waiters
        self._wmutex = threading.Lock()  # serialises socket writes only
        self._sock: Optional[socket.socket] = None
        self._session_gen = 0
        self._send_seq = 0           # last allocated outbound seq
        self._recv_seq = 0           # last in-order delivered inbound seq
        self._outbox: Dict[int, bytes] = {}      # unacked payloads by seq
        self._unsent: deque = deque()            # seqs awaiting (re)transmit
        self._reorder: Dict[int, bytes] = {}     # out-of-order arrivals
        self._inbox: deque = deque()             # delivered payload bytes
        self._dead = False
        self._dead_reason = ""
        self._last_heard = time.monotonic()
        self._last_write = 0.0
        self._last_data_write = 0.0
        self._last_progress = time.monotonic()   # last ack/attach progress
        self._attach_deadline = time.monotonic() + knobs.connect_timeout
        self._reject_until = 0.0                 # injected partition window
        # one-shot injected network fault directives (coordinator side)
        self._inject_delay = 0.0
        self._inject_drop = 0
        self._inject_reorder = False
        self._held_frame: Optional[Tuple[int, bytes]] = None
        self._held_since = 0.0
        self.stats: Dict[str, int] = {
            "frames_sent": 0, "bytes_sent": 0, "frames_received": 0,
            "retransmits": 0, "crc_failures": 0, "reconnects": 0,
            "wan_dropped": 0, "injected_faults": 0}
        self._readers: List[threading.Thread] = []
        self._writer = threading.Thread(target=self._writer_loop,
                                        daemon=True,
                                        name=f"tcp-writer-{worker}")
        self._writer.start()

    # -- Connection-compatible surface ---------------------------------
    def send(self, obj) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        with self._work:
            if self._dead:
                raise OSError(
                    f"channel to worker {self.worker} is dead "
                    f"({self._dead_reason})")
            self._send_seq += 1
            self._outbox[self._send_seq] = payload
            self._unsent.append(self._send_seq)
            self._work.notify_all()

    def recv(self):
        with self._readable:
            while not self._inbox and not self._dead:
                self._readable.wait()
            if self._inbox:
                payload = self._inbox.popleft()
            else:
                raise EOFError(
                    f"channel to worker {self.worker} is dead "
                    f"({self._dead_reason})")
        return pickle.loads(payload)

    def poll(self, timeout: float = 0.0) -> bool:
        deadline = time.monotonic() + (timeout or 0.0)
        with self._readable:
            while True:
                if self._inbox or self._dead:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._readable.wait(remaining)

    def close(self) -> None:
        # Let in-flight frames (the pool's "stop" command, the worker's
        # reply to it) be acknowledged before tearing the link down, so
        # workers exit via the clean stop path instead of burning their
        # reconnect budget against a vanished coordinator.  Acks wake the
        # wait (``_apply_ack`` notifies).  A closing channel never waits for
        # a *re*-attach: once a link that was up goes down, nothing is left
        # to wait for.  The 0.5 s bound only runs out on a wedged peer or a
        # channel that never attached at all.
        deadline = time.monotonic() + 0.5
        with self._drained:
            while not self._dead and self._outbox and (
                    self._sock is not None or self._session_gen == 0):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._drained.wait(remaining)
        self._die("closed")

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the writer and reader threads of a dead channel."""
        with self._lock:
            threads = [self._writer] + self._readers
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(timeout)

    # -- fault injection (coordinator side) ----------------------------
    def inject(self, kind: str, duration: float = 0.0) -> None:
        """Schedule one network fault on this link (next outbound frames).

        ``delay`` adds ``duration`` seconds to the next data frame;
        ``drop_msg`` skips the next data frame's first transmission (the
        retransmit path redelivers it); ``reorder`` swaps the next two data
        frames on the wire; ``partition`` severs the link immediately and
        refuses re-attachment for ``duration`` seconds (both directions go
        dark; the worker's dialer recovers the session afterwards, provided
        the reconnect window outlasts the partition).
        """
        if kind not in _INJECTABLE:
            raise ValueError(f"unknown network fault kind {kind!r}")
        with self._work:
            self.stats["injected_faults"] += 1
            if kind == "delay":
                self._inject_delay += float(duration)
            elif kind == "drop_msg":
                self._inject_drop += 1
            elif kind == "reorder":
                self._inject_reorder = True
            else:  # partition
                self._reject_until = time.monotonic() + float(duration)
                self._link_down("injected partition")
                return
            self._work.notify_all()

    def accepts_attach(self) -> bool:
        with self._lock:
            return not self._dead \
                and time.monotonic() >= self._reject_until

    # -- link lifecycle -------------------------------------------------
    def attach(self, sock: socket.socket, peer_ack: int) -> None:
        """Adopt a (re)connected socket; resume the sequenced stream.

        ``peer_ack`` is the peer's cumulative receive counter from the
        handshake: everything at or below it is pruned from the outbox,
        everything above is queued for retransmission.
        """
        sock.settimeout(self.knobs.io_timeout)
        with self._work:
            if self._dead:
                sock.close()
                raise OSError("channel is dead")
            if self._sock is not None:
                self._close_socket()
                self.stats["reconnects"] += 1
            elif self._session_gen > 0:
                self.stats["reconnects"] += 1
            self._sock = sock
            self._session_gen += 1
            gen = self._session_gen
            self._apply_ack(peer_ack)
            self._unsent = deque(sorted(self._outbox))
            self._held_frame = None
            now = time.monotonic()
            self._last_heard = now
            self._last_progress = now
            self._attach_deadline = float("inf")
            reader = threading.Thread(
                target=self._reader_loop, args=(sock, gen), daemon=True,
                name=f"tcp-reader-{self.worker}")
            reader.start()
            self._readers = [thread for thread in self._readers
                             if thread.is_alive()] + [reader]
            self._work.notify_all()

    def _close_socket(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _link_down(self, reason: str) -> None:
        with self._work:
            if self._dead or self._sock is None:
                return
            self._close_socket()
            self._session_gen += 1
            self._unsent.clear()
            self._held_frame = None
            self._attach_deadline = time.monotonic() \
                + self.knobs.reconnect_window
            self._work.notify_all()
            self._drained.notify_all()

    def _die(self, reason: str) -> None:
        with self._work:
            if self._dead:
                return
            self._dead = True
            self._dead_reason = reason
            self._close_socket()
            self._work.notify_all()
            self._readable.notify_all()
            self._drained.notify_all()
        if self._transport is not None:
            self._transport._notify()

    # -- reader ----------------------------------------------------------
    def _reader_loop(self, sock: socket.socket, gen: int) -> None:
        while True:
            try:
                ftype, seq, ack, payload = read_frame(sock)
            except FrameCorruption:
                with self._lock:
                    self.stats["crc_failures"] += 1
                self._send_control(F_NACK)
                continue
            except (OSError, EOFError, StreamDesync) as error:
                with self._work:
                    if gen != self._session_gen or self._dead:
                        return
                self._link_down(f"connection lost: {error!r}")
                return
            with self._work:
                if gen != self._session_gen:
                    return
                self._last_heard = time.monotonic()
                self.stats["frames_received"] += 1
                self._apply_ack(ack)
                if ftype == F_DATA:
                    self._accept_data(seq, payload)
                elif ftype == F_NACK:
                    # Peer saw corruption or a gap: retransmit the
                    # unacknowledged suffix (go-back-N).
                    self._queue_retransmit()
                    self._work.notify_all()

    def _accept_data(self, seq: int, payload: bytes) -> None:
        if seq <= self._recv_seq:
            pass                      # duplicate of a delivered frame
        elif seq == self._recv_seq + 1:
            self._recv_seq = seq
            self._inbox.append(payload)
            while self._recv_seq + 1 in self._reorder:
                self._recv_seq += 1
                self._inbox.append(self._reorder.pop(self._recv_seq))
            self._readable.notify_all()
            if self._transport is not None:
                self._transport._notify()
        else:
            self._reorder[seq] = payload
        self._send_control(F_ACK)

    def _apply_ack(self, ack: int) -> None:
        pruned = False
        for seq in [s for s in self._outbox if s <= ack]:
            del self._outbox[seq]
            pruned = True
        if pruned:
            self._last_progress = time.monotonic()
            while self._unsent and self._unsent[0] <= ack:
                self._unsent.popleft()
            self._drained.notify_all()

    def _queue_retransmit(self) -> None:
        queued = set(self._unsent)
        fresh = [seq for seq in sorted(self._outbox) if seq not in queued]
        if fresh:
            self.stats["retransmits"] += len(fresh)
            self._unsent.extend(fresh)
            self._unsent = deque(sorted(self._unsent))

    # -- writer ----------------------------------------------------------
    def _send_control(self, ftype: int) -> None:
        """Write an ACK/HB/NACK frame now (tiny, skips the WAN model)."""
        with self._lock:
            sock = self._sock
            frame = pack_frame(ftype, 0, self._recv_seq)
        if sock is None:
            return
        try:
            with self._wmutex:
                sock.sendall(frame)
        except OSError:
            pass  # the reader/writer liveness machinery handles teardown
        with self._lock:
            self._last_write = time.monotonic()

    def _writer_loop(self) -> None:
        knobs = self.knobs
        tick = max(0.01, min(knobs.heartbeat_interval,
                             knobs.retransmit_timeout) / 2.0)
        backoff_attempt = 0
        while True:
            with self._work:
                if self._dead:
                    return
                now = time.monotonic()
                if self._sock is None:
                    if now >= self._attach_deadline:
                        dead_line = True
                    elif self._dial is None:
                        # Passive side: wait for the acceptor to re-attach.
                        self._work.wait(
                            min(tick, self._attach_deadline - now))
                        continue
                    else:
                        dead_line = False
                else:
                    dead_line = False
                    backoff_attempt = 0
                    if now - self._last_heard > knobs.heartbeat_timeout:
                        self._link_down("heartbeat timeout")
                        continue
                    # Gauge retransmission on DATA writes only — heartbeats
                    # keep refreshing _last_write, and pacing on it would
                    # silence retransmits whenever heartbeat_interval <
                    # retransmit_timeout (a dropped frame would never be
                    # resent and the round would wedge).
                    if self._outbox and not self._unsent and \
                            now - max(self._last_progress,
                                      self._last_data_write) \
                            > knobs.retransmit_timeout:
                        self._queue_retransmit()
                    if not self._unsent:
                        if now - self._last_write > knobs.heartbeat_interval:
                            pass          # fall through to heartbeat below
                        elif self._held_frame is not None and \
                                now - self._held_since > 2 * tick:
                            pass          # flush a stale reorder hold
                        else:
                            self._work.wait(tick)
                            continue
            if dead_line:
                self._die("no connection within the reconnect window")
                return
            if self._sock is None:
                # Active side: dial with exponential backoff + jitter.
                if not self._dial_once():
                    delay = min(knobs.backoff_max,
                                knobs.backoff_base * (2 ** backoff_attempt))
                    self._pause(delay + random.uniform(0.0, delay))
                    backoff_attempt += 1
                continue
            self._pump_once()

    def _pause(self, seconds: float) -> None:
        """Sleep the writer up to ``seconds``; a dying channel cuts it short."""
        deadline = time.monotonic() + seconds
        with self._work:
            while not self._dead:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._work.wait(remaining)

    def _pump_once(self) -> None:
        """Send at most one data frame (or a heartbeat) outside the lock."""
        with self._lock:
            sock = self._sock
            if sock is None:
                return
            if self._held_frame is not None and not self._unsent:
                seq, frame = self._held_frame
                self._held_frame = None
                to_send, delay, dropped = (seq, frame), 0.0, False
            elif self._unsent:
                seq = self._unsent.popleft()
                payload = self._outbox.get(seq)
                if payload is None:
                    return
                frame = pack_frame(F_DATA, seq, self._recv_seq, payload)
                delay = self._inject_delay
                self._inject_delay = 0.0
                dropped = False
                if self._inject_drop > 0:
                    self._inject_drop -= 1
                    dropped = True
                if self._link is not None:
                    delay += self._link.delay_for(len(frame))
                    if not dropped and self._link.drops():
                        self.stats["wan_dropped"] += 1
                        dropped = True
                if not dropped and self._inject_reorder \
                        and self._held_frame is None:
                    self._inject_reorder = False
                    self._held_frame = (seq, frame)
                    self._held_since = time.monotonic()
                    return
                to_send = (seq, frame)
            else:
                frame = pack_frame(F_HB, 0, self._recv_seq)
                to_send, delay, dropped = (0, frame), 0.0, False
        if dropped:
            # The (simulated) loss still counts as the transmission attempt:
            # the retransmit gate paces from here.
            with self._lock:
                self._last_data_write = time.monotonic()
            return
        if delay > 0.0:
            self._pause(delay)
        seq, frame = to_send
        with self._lock:
            sock = self._sock
        if sock is None:
            if seq:
                # The link went down mid-delay; requeue for the next session.
                with self._lock:
                    if seq in self._outbox and seq not in self._unsent:
                        self._unsent.append(seq)
                        self._unsent = deque(sorted(self._unsent))
            return
        try:
            with self._wmutex:
                sock.sendall(frame)
        except OSError as error:
            self._link_down(f"send failed: {error!r}")
            return
        with self._lock:
            self._last_write = time.monotonic()
            if seq:
                self._last_data_write = self._last_write
            self.stats["frames_sent"] += 1
            self.stats["bytes_sent"] += len(frame)

    # -- active-side dialing --------------------------------------------
    def _dial_once(self) -> bool:
        address, token, session = self._dial
        try:
            sock = socket.create_connection(
                address, timeout=min(5.0, self.knobs.connect_timeout))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = {"worker": self.worker, "token": token,
                     "session": session, "ack": self._recv_seq}
            sock.sendall(pack_frame(
                F_HELLO, 0, self._recv_seq,
                pickle.dumps(hello, protocol=pickle.HIGHEST_PROTOCOL)))
            ftype, _seq, _ack, payload = read_frame(sock)
            if ftype != F_HELLO:
                raise OSError(f"handshake expected HELLO, got {ftype}")
            reply = pickle.loads(payload)
            self.attach(sock, int(reply["ack"]))
            return True
        except (OSError, EOFError, FrameCorruption, StreamDesync,
                pickle.UnpicklingError, KeyError):
            try:
                sock.close()
            except (OSError, UnboundLocalError, NameError):
                pass
            return False


# ----------------------------------------------------------------------
# Transport implementations
# ----------------------------------------------------------------------
class WorkerTransport:
    """How the pool reaches its workers: spawn channels, wait on them."""

    name = "base"

    def spawn(self, index: int):
        """Start worker ``index``; returns ``(channel, process-or-None)``."""
        raise NotImplementedError

    def wait(self, channels: Sequence, timeout: Optional[float] = None
             ) -> List:
        """Block until ≥1 channel is readable (or dead); return the ready."""
        raise NotImplementedError

    def stats(self) -> Dict:
        return {"transport": self.name}

    def close(self) -> None:
        """Release transport-owned resources (listeners, acceptor threads)."""


class PipeTransport(WorkerTransport):
    """The classic in-host channel: one duplex fork pipe per worker.

    The channel object *is* the parent ``Connection`` — no wrapper, no
    behavioral delta — so every history trained over ``pipe`` is bitwise
    identical to the pre-transport engine (the parity reference).
    """

    name = "pipe"

    def __init__(self):
        methods = mp.get_all_start_methods()
        self._context = mp.get_context("fork" if "fork" in methods else None)

    def spawn(self, index: int):
        from repro.federated.engine.persistent import _worker_loop

        parent, child = self._context.Pipe(duplex=True)
        process = self._context.Process(target=_worker_loop, args=(child,),
                                        daemon=True)
        process.start()
        child.close()
        return parent, process

    def wait(self, channels, timeout=None):
        from multiprocessing.connection import wait as connection_wait

        ready = connection_wait(list(channels), timeout=timeout)
        ready_ids = {id(conn) for conn in ready}
        return [conn for conn in channels if id(conn) in ready_ids]


def _tcp_worker_main(address, worker: int, token: str,
                     session: Optional[str], knob_dict: Dict,
                     link_spec: Optional[Tuple]) -> None:
    """Entry point of a spawned TCP worker process: dial, run, exit."""
    run_tcp_worker(address, worker, token=token, session=session,
                   knobs=TransportKnobs(**knob_dict), link_spec=link_spec)


def run_tcp_worker(address, worker: int, *, token: str = "",
                   session: Optional[str] = None,
                   knobs: Optional[TransportKnobs] = None,
                   link_spec: Optional[Tuple] = None) -> None:
    """Run one worker command loop against a coordinator at ``address``.

    This is what ``python -m repro.cli worker`` calls: it dials the
    coordinator's :class:`TcpTransport` listener (retrying with backoff
    inside the connect budget), then serves the persistent pool's command
    protocol until the coordinator stops it or the channel dies.

    ``link_spec`` optionally carries ``(WanLink-fields-dict, seed)`` for the
    uplink direction of the simulated WAN.
    """
    from repro.federated.engine.persistent import _worker_loop

    link = None
    if link_spec is not None:
        fields, seed = link_spec
        link = LinkState(WanLink(**fields), seed, worker, "up")
    channel = _TcpChannel(worker, knobs or TransportKnobs(), link=link,
                          dial=(tuple(address), token, session))
    try:
        _worker_loop(channel)
    finally:
        channel.close()


class TcpTransport(WorkerTransport):
    """Framed TCP channels: coordinator listener + dialing workers.

    ``mode="process"`` (default) spawns local worker processes that dial
    back over loopback — a drop-in replacement for :class:`PipeTransport`
    that exercises the real wire protocol.  ``mode="external"`` spawns
    nothing: the transport waits (within ``connect_timeout``) for externally
    launched workers — ``python -m repro.cli worker --connect HOST:PORT
    --worker-id N`` — to dial in, which is how workers run on other hosts.

    Spawned processes use the ``forkserver``/``spawn`` start method, not
    ``fork``: the coordinator runs acceptor/reader/writer threads, and a
    forked child would additionally inherit every connected socket fd,
    keeping links half-open after the coordinator closes them.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 mode: str = "process", token: str = "",
                 wan=None, advertise_host: Optional[str] = None, **knobs):
        if mode not in ("process", "external"):
            raise ValueError(
                f"tcp transport mode must be 'process' or 'external', "
                f"got {mode!r}")
        self.mode = mode
        self.token = token
        self.knobs = TransportKnobs(**knobs)
        self.wan = WanModel.from_spec(wan)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.address = (advertise_host or host or "127.0.0.1",
                        self._listener.getsockname()[1])
        # close() wakes the acceptor through this pair: closing a listener
        # does not interrupt a thread blocked on it on every platform.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._handshake: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._wait_cv = threading.Condition(self._lock)
        self._wait_version = 0
        self._channels: Dict[int, _TcpChannel] = {}
        self._sessions: Dict[int, Optional[str]] = {}
        self._spawn_counts: Dict[int, int] = {}
        self._all_channels: List[_TcpChannel] = []
        self._closed = False
        methods = mp.get_all_start_methods()
        start = "forkserver" if "forkserver" in methods else "spawn"
        self._context = mp.get_context(start)
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          daemon=True, name="tcp-acceptor")
        self._acceptor.start()

    # ------------------------------------------------------------------
    def _notify(self) -> None:
        with self._wait_cv:
            self._wait_version += 1
            self._wait_cv.notify_all()

    def spawn(self, index: int):
        with self._lock:
            if self._closed:
                raise OSError("transport is closed")
            count = self._spawn_counts.get(index, 0)
            self._spawn_counts[index] = count + 1
            session = f"{index}.{count}" if self.mode == "process" else None
            link = self.wan.state_for(index, "down") if self.wan else None
            channel = _TcpChannel(index, self.knobs, link=link,
                                  transport=self)
            self._channels[index] = channel
            self._sessions[index] = session
            self._all_channels.append(channel)
        process = None
        if self.mode == "process":
            link_spec = None
            if self.wan is not None:
                link_spec = (asdict(self.wan.link_for(index)), self.wan.seed)
            process = self._context.Process(
                target=_tcp_worker_main,
                args=(self.address, index, self.token, session,
                      asdict(self.knobs), link_spec),
                daemon=True)
            process.start()
        return channel, process

    def _accept_loop(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_recv, selectors.EVENT_READ)
            while True:
                ready = {key.fileobj for key, _ in selector.select()}
                if self._wake_recv in ready:
                    return  # transport closed
                try:
                    sock, _peer = self._listener.accept()
                except (BlockingIOError, ConnectionAbortedError):
                    continue  # the dialer gave up before we got to it
                except OSError:
                    return
                with self._lock:
                    if self._closed:
                        sock.close()
                        return
                    # close() shuts this socket down to end a stalled HELLO
                    self._handshake = sock
                try:
                    self._handshake_one(sock)
                finally:
                    with self._lock:
                        self._handshake = None

    def _handshake_one(self, sock: socket.socket) -> None:
        """Read a dialer's HELLO and hand the socket to its channel."""
        try:
            sock.settimeout(5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            ftype, _seq, _ack, payload = read_frame(sock)
            if ftype != F_HELLO:
                raise OSError("expected HELLO")
            hello = pickle.loads(payload)
            worker = int(hello["worker"])
            with self._lock:
                channel = self._channels.get(worker)
                expected = self._sessions.get(worker)
            if channel is None or not channel.accepts_attach():
                raise OSError(f"no open channel for worker {worker}")
            if hello.get("token", "") != self.token:
                raise OSError(f"bad token from worker {worker}")
            if expected is not None \
                    and hello.get("session") != expected:
                # A stale dialer from before a respawn: refuse it so it
                # cannot hijack the replacement channel.
                raise OSError(f"stale session from worker {worker}")
            reply = {"ack": channel._recv_seq}
            sock.sendall(pack_frame(
                F_HELLO, 0, channel._recv_seq,
                pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)))
            channel.attach(sock, int(hello.get("ack", 0)))
        except (OSError, EOFError, FrameCorruption, StreamDesync,
                pickle.UnpicklingError, KeyError, ValueError):
            try:
                sock.close()
            except OSError:
                pass

    def wait(self, channels, timeout=None):
        # Channels are polled *outside* the wait lock (poll takes each
        # channel's own lock; holding both here would deadlock against
        # reader threads notifying the transport).  The version counter
        # closes the poll→wait race: a delivery between the two bumps the
        # version, so the wait falls through and re-polls immediately.
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._wait_cv:
                version = self._wait_version
            ready = [ch for ch in channels if ch.poll(0)]
            if ready:
                return ready
            with self._wait_cv:
                if self._wait_version == version:
                    if deadline is None:
                        self._wait_cv.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return []
                        self._wait_cv.wait(remaining)

    def stats(self) -> Dict:
        with self._lock:
            channels = list(self._all_channels)
        totals: Dict[str, int] = {}
        for channel in channels:
            for key, value in channel.stats.items():
                totals[key] = totals.get(key, 0) + value
        totals["transport"] = self.name
        return totals

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channels = list(self._channels.values())
            every_channel = list(self._all_channels)
            handshake = self._handshake
        for channel in channels:
            channel.close()
        # Wake the acceptor: out of select() via the wake pair, out of a
        # stalled HELLO read by shutting that socket down.
        self._wake_send.close()
        if handshake is not None:
            try:
                handshake.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        # Both joins return as soon as the threads exit; their bounds only
        # matter if a thread is wedged.
        self._acceptor.join(timeout=5.0)
        for channel in every_channel:
            channel.join(timeout=5.0)
        self._listener.close()
        self._wake_recv.close()


# ----------------------------------------------------------------------
TRANSPORTS = ("pipe", "tcp")


def make_transport(name: str, options: Optional[Dict] = None
                   ) -> WorkerTransport:
    """Resolve a transport by name with its keyword options.

    ``pipe`` takes no options; ``tcp`` accepts ``host``/``port``/``mode``/
    ``token``/``wan``/``advertise_host`` plus every :class:`TransportKnobs`
    field.
    """
    options = dict(options or {})
    if name == "pipe":
        if options:
            raise ValueError(
                f"transport 'pipe' takes no options, got {sorted(options)}")
        return PipeTransport()
    if name == "tcp":
        return TcpTransport(**options)
    raise ValueError(
        f"unknown transport {name!r}; expected one of {TRANSPORTS}")
