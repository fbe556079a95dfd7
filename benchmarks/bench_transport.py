"""Transport harness: codec bytes → wall-clock rounds/sec under real links.

Two sections:

* **transport_parity** — the same sync Step-1 training over ``pipe`` and
  ``tcp`` on localhost, asserting the histories are **bitwise-equal** (the
  tentpole bar) and reporting the wire statistics (frames, bytes,
  retransmits) the framed channel accumulates;
* **wan_codec_sweep** — a grid of simulated WAN presets (LAN, WAN,
  slow/thin, lossy) × upload delta codecs (``bitdelta``/``topk``/``qtopk``)
  over the TCP transport, reporting the steady per-round link cost, the
  codec's communicated float volume and the wire counters, so the plot
  "fewer codec bytes → more rounds/sec as the link thins" falls straight
  out of ``BENCH_transport.json``.

Every run is timed in three phases, so pool start-up and shutdown never
blur the per-round figure:

* ``startup_s`` — what the first round costs beyond a steady one: worker
  spawn, client adoption and the first dispatch;
* ``round_s`` — the median wall time of rounds 2..R (``rounds_per_sec`` is
  its inverse);
* ``close_s`` — ``trainer.close()``: the close-time worker-state sync (one
  ``fetch_all`` round trip per worker, so it grows with link latency) and
  the pool shutdown (stop handshake, channel drain, joins).

``wall_sec`` is the whole run, start-up to closed pool.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_transport.py            # full
    PYTHONPATH=src:. python benchmarks/bench_transport.py --smoke    # CI

The full run writes ``benchmarks/results/BENCH_transport.json``; ``--smoke``
writes ``BENCH_transport_smoke.json``.

Every TCP federation spawns worker processes via forkserver/spawn, so this
module must stay importable as ``__main__`` without side effects (the
``if __name__ == "__main__"`` guard below is load-bearing).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional

import numpy as np

from benchmarks.bench_utils import record_json
from repro.datasets import load_dataset
from repro.federated import FederatedConfig
from repro.fgl import build_baseline
from repro.simulation import community_split

#: simulated links for the sweep: (name, WAN spec or None for a raw socket)
WAN_PRESETS = [
    ("loopback", None),
    ("lan", {"latency_ms": 0.5, "jitter_ms": 0.2,
             "bandwidth_mbps": 1000.0, "seed": 7}),
    ("wan", {"latency_ms": 20.0, "jitter_ms": 5.0,
             "bandwidth_mbps": 100.0, "loss": 0.01, "seed": 7}),
    ("slow", {"latency_ms": 80.0, "jitter_ms": 10.0,
              "bandwidth_mbps": 10.0, "seed": 7}),
    ("lossy", {"latency_ms": 40.0, "jitter_ms": 10.0,
               "bandwidth_mbps": 50.0, "loss": 0.05, "seed": 7}),
]

#: per-cell timing keys, in report order
PHASES = ("startup_s", "round_s", "close_s", "wall_sec", "rounds_per_sec")

#: upload codecs, lossless first (the parity reference)
CODECS = [
    dict(delta_codec="bitdelta"),
    dict(delta_codec="topk", delta_top_k=32),
    dict(delta_codec="qtopk", delta_top_k=32, delta_bits=8),
]

#: keep failure detection snappy without tripping on loaded CI machines
KNOBS = dict(heartbeat_interval=0.25, heartbeat_timeout=10.0,
             retransmit_timeout=0.5)


def _train(clients, *, rounds: int, transport: str,
           transport_options: Optional[Dict] = None, seed: int = 0,
           **codec) -> Dict:
    """One sync process-pool training; returns history, phases and wire."""
    if rounds < 2:
        raise ValueError("a steady round needs rounds >= 2")
    config = FederatedConfig(rounds=rounds, local_epochs=2, lr=0.02,
                             seed=seed, backend="process_pool",
                             num_workers=2, intra_worker="serial",
                             transport=transport,
                             transport_options=transport_options, **codec)
    trainer = build_baseline("fedgcn", clients, config=config, hidden=32)
    trainer.close_backend_after_run = False   # close() is timed on its own
    # Every round loop records its participants once as the round begins.
    starts: List[float] = []
    record = trainer.history.record_participants

    def stamped(round_index, ids):
        starts.append(time.perf_counter())
        return record(round_index, ids)

    trainer.history.record_participants = stamped
    begin = time.perf_counter()
    history = trainer.run()
    finished = time.perf_counter()
    stats = trainer.backend.last_pipeline_stats
    # the pool-IPC accounting (codec-aware parameter_delta volume), not the
    # backend-invariant logical tracker
    comm_floats = trainer.backend.transport.summary()
    trainer.close()
    closed = time.perf_counter()
    ends = starts[1:] + [finished]
    round_s = float(np.median([end - start for start, end
                               in zip(starts[1:], ends[1:])]))
    return {
        "history": history,
        "startup_s": ends[0] - begin - round_s,
        "round_s": round_s,
        "close_s": closed - finished,
        "wall_sec": closed - begin,
        "rounds_per_sec": 1.0 / round_s,
        "comm_floats": comm_floats,
        "wire": stats.get("transport", {}),
        "accuracy": history.test_accuracy[-1],
    }


def _phases(result: Dict) -> str:
    return (f"start-up {result['startup_s']:.2f}s  "
            f"round {1000 * result['round_s']:.1f}ms  "
            f"close {result['close_s']:.3f}s")


def _bitwise_equal(a, b) -> bool:
    return (a.rounds == b.rounds
            and np.array_equal(a.loss, b.loss)
            and np.array_equal(a.test_accuracy, b.test_accuracy)
            and np.array_equal(a.train_accuracy, b.train_accuracy))


def run_parity_section(clients, *, rounds: int, seed: int = 0) -> Dict:
    """pipe vs tcp on localhost: bitwise histories, relative wall-clock."""
    pipe = _train(clients, rounds=rounds, transport="pipe", seed=seed)
    tcp = _train(clients, rounds=rounds, transport="tcp",
                 transport_options=dict(KNOBS), seed=seed)
    equal = _bitwise_equal(pipe["history"], tcp["history"])
    section = {
        "bitwise_equal": equal,
        "pipe": {key: pipe[key] for key in PHASES},
        "tcp": {**{key: tcp[key] for key in PHASES}, "wire": tcp["wire"]},
    }
    print(f"  parity: bitwise={equal}")
    print(f"    pipe  {_phases(pipe)}")
    print(f"    tcp   {_phases(tcp)}  "
          f"({tcp['wire'].get('bytes_sent', 0)} bytes down, "
          f"{tcp['wire'].get('retransmits', 0)} retransmits)")
    return section


def run_wan_codec_sweep(clients, *, rounds: int, presets, codecs,
                        seed: int = 0) -> List[Dict]:
    """TCP training per (link preset × upload codec) cell."""
    reference = None
    points = []
    for preset_name, wan in presets:
        options = dict(KNOBS)
        if wan is not None:
            options["wan"] = wan
        for codec in codecs:
            result = _train(clients, rounds=rounds, transport="tcp",
                            transport_options=options, seed=seed, **codec)
            if reference is None:       # loopback/bitdelta cell
                reference = result
            point = {
                "link": preset_name,
                "wan": wan,
                "codec": codec["delta_codec"],
                **{key: result[key] for key in PHASES},
                "uploaded_floats": result["comm_floats"]["uploaded"],
                "downloaded_floats": result["comm_floats"]["downloaded"],
                "accuracy": result["accuracy"],
                "wire": result["wire"],
                # lossless cells must reproduce the reference bitwise; the
                # lossy codecs trade exactness for bytes by design
                "bitwise_vs_reference": _bitwise_equal(
                    result["history"], reference["history"]),
            }
            points.append(point)
            print(f"  link={preset_name:8s} codec={point['codec']:8s} "
                  f"{_phases(result)}  "
                  f"up {point['uploaded_floats']:.0f} floats  "
                  f"retx {result['wire'].get('retransmits', 0)}  "
                  f"dropped {result['wire'].get('wan_dropped', 0)}")
    return points


def run_transport_suite(*, smoke: bool = False,
                        output_name: Optional[str] = None,
                        seed: int = 0) -> Dict:
    if smoke:
        num_nodes, num_clients, rounds = 200, 4, 3
        presets = [WAN_PRESETS[0], WAN_PRESETS[2]]      # loopback + wan
        codecs = [CODECS[0], CODECS[2]]                 # bitdelta + qtopk
    else:
        num_nodes, num_clients, rounds = 400, 4, 10
        presets = WAN_PRESETS
        codecs = CODECS

    graph = load_dataset("cora", seed=seed, num_nodes=num_nodes)
    clients = community_split(graph, num_clients, seed=seed)

    print("transport parity (pipe vs tcp):")
    parity = run_parity_section(clients, rounds=rounds, seed=seed)
    print("wan × codec sweep:")
    sweep = run_wan_codec_sweep(clients, rounds=rounds, presets=presets,
                                codecs=codecs, seed=seed)

    slowest = min(sweep, key=lambda point: point["rounds_per_sec"])
    fastest = max(sweep, key=lambda point: point["rounds_per_sec"])
    report = {
        "setup": {"dataset": "cora", "num_nodes": num_nodes,
                  "num_clients": num_clients, "num_workers": 2,
                  "rounds": rounds, "seed": seed,
                  "presets": [name for name, _wan in presets],
                  "codecs": [codec["delta_codec"] for codec in codecs]},
        "transport_parity": parity,
        "wan_codec_sweep": sweep,
        "headline": {
            "bitwise_parity": parity["bitwise_equal"],
            "fastest": {key: fastest[key]
                        for key in ("link", "codec", "rounds_per_sec")},
            "slowest": {key: slowest[key]
                        for key in ("link", "codec", "rounds_per_sec")},
        },
    }
    name = output_name or ("BENCH_transport_smoke" if smoke
                           else "BENCH_transport")
    record_json(name, report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="transport parity + WAN/codec sweep harness")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid for CI (BENCH_transport_smoke.json)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = run_transport_suite(smoke=args.smoke, seed=args.seed)
    assert report["transport_parity"]["bitwise_equal"]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
