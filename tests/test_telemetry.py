"""External metrics push (F4): DogStatsD datagrams over a Unix socket —
the reference's DataDog.UdsPublisher posture (``main.scala:111-116``,
``DatagramSocketConfig``).  The manifest remains the durable metrics
copy; the push is fire-and-forget."""

import socket
import threading

import pytest

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.gen import small_spec, write_ctlog
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import StreamRunner
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    prepare_watermark,
)
from arcane_stream_sqlserver_change_tracking_ray.state.telemetry import (
    _CYCLE_METRICS,
    StatsdPublisher,
)


def _drain(sock) -> list[str]:
    out = []
    sock.settimeout(0.2)
    try:
        while True:
            out.append(sock.recv(8192).decode())
    except (TimeoutError, socket.timeout):
        return out


def test_statsd_wire_format(tmp_path):
    sock_path = str(tmp_path / "dsd.socket")
    srv = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
    srv.bind(sock_path)
    pub = StatsdPublisher(f"uds://{sock_path}", prefix="arcane.stream",
                          tags={"stream": "t1", "env": "test"})
    pub.count("changes_in", 42)
    pub.gauge("watermark", 1000)
    pub.timing_ms("cycle_s", 1.5)
    lines = _drain(srv)
    assert "arcane.stream.changes_in:42|c|#env:test,stream:t1" in lines
    assert "arcane.stream.watermark:1000|g|#env:test,stream:t1" in lines
    assert "arcane.stream.cycle_s:1500.0|ms|#env:test,stream:t1" in lines
    pub.close()
    srv.close()


def test_publish_cycle_sends_one_datagram(tmp_path):
    """A cycle's metrics leave as ONE newline-joined datagram, so a full
    receive queue drops a whole cycle or nothing of it."""
    sock_path = str(tmp_path / "dsd.socket")
    srv = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
    srv.bind(sock_path)
    pub = StatsdPublisher(f"uds://{sock_path}", tags={"stream": "t1"})
    pub.publish_cycle({"changes_in": 7, "watermark": 1000, "cycle_s": 0.25})
    packets = _drain(srv)
    assert packets == [
        "arcane.stream.changes_in:7|c|#stream:t1\n"
        "arcane.stream.watermark:1000|g|#stream:t1\n"
        "arcane.stream.cycle_s:250.0|ms|#stream:t1"
    ]
    pub.close()
    srv.close()


def test_statsd_target_validation():
    with pytest.raises(ValueError, match="statsd target"):
        StatsdPublisher("carrier-pigeon://x")
    assert StatsdPublisher.from_ctx(type("O", (), {"statsd_target": ""})()) is None


def test_engine_pushes_cycle_metrics_over_uds(tmp_lake, tmp_path):
    """A full replay with statsdTarget set: every committed cycle pushes
    its counters, and the pushed changes_in total equals the manifest's
    (the push mirrors the durable copy).  A drain thread plays the agent
    — AF_UNIX datagram queues are tiny (net.unix.max_dgram_qlen is 10 on
    this host) and the publisher DROPS rather than blocks on overflow,
    so an undrained socket would lose datagrams by design."""
    sock_path = str(tmp_path / "dsd.socket")
    srv = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
    srv.bind(sock_path)
    lines: list[str] = []
    stop = threading.Event()

    def agent():
        srv.settimeout(0.05)
        while not stop.is_set():
            try:  # one datagram per cycle, one metric per line
                lines.extend(srv.recv(8192).decode().split("\n"))
            except (TimeoutError, socket.timeout):
                continue

    th = threading.Thread(target=agent, daemon=True)
    th.start()

    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4},
            "throughput": {"rows_per_group": 200},
            "observability": {
                "statsdTarget": f"uds://{sock_path}",
                "metricTags": {"stream": "e2e"},
            },
        }
    )
    runner = StreamRunner(ctx)
    runner.run()
    runner.close()
    stop.set()
    th.join(timeout=2)
    srv.close()
    pushed = sum(
        int(ln.split(":")[1].split("|")[0])
        for ln in lines
        if ln.startswith("arcane.stream.changes_in:")
    )
    log = ManifestLog(tgt)
    durable = sum(
        int(log.read(v).metrics.get("changes_in", 0) or 0) for v in log.versions()
    )
    assert pushed == durable > 0
    assert any("|#stream:e2e" in ln for ln in lines)
    # every published cycle metric leaves the process, not just some
    arrived = {ln.split(":")[0] for ln in lines}
    assert arrived >= {f"arcane.stream.{name}" for name, _, _ in _CYCLE_METRICS}
    last_wm = max(
        int(ln.split(":")[1].split("|")[0])
        for ln in lines
        if ln.startswith("arcane.stream.watermark:")
    )
    assert last_wm == log.require_watermark().watermark


def test_push_failure_never_fails_the_cycle(tmp_lake, tmp_path):
    """Target socket does not exist: the replay must still converge
    (fire-and-forget; the manifest keeps the metrics)."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4},
            "throughput": {"rows_per_group": 200},
            "observability": {"statsdTarget": f"uds://{tmp_path}/nobody.socket"},
        }
    )
    StreamRunner(ctx).run()
    assert ManifestLog(tgt).require_watermark().watermark > 0
