"""External metrics publisher (F4's push half).

The reference wires ``DataDog.UdsPublisher`` — zio-metrics StatsD
datagrams over a Unix domain socket — into every stream
(``main.scala:111-116``; ``DatagramSocketConfig`` in
``MicrosoftSqlServerPluginStreamContext.scala:17``).  The Ray engine
already persists every cycle's metrics durably in the manifest (the
pull half: ``cdc_cycle_metrics`` reads them back hash-exactly); this
module adds the push half with the same transport and wire format:

- ``uds:///path/to/dsd.socket`` — DogStatsD over a Unix DATAGRAM
  socket (the reference's deployment: a DataDog agent sidecar socket),
- ``udp://host:port`` — plain StatsD/DogStatsD over UDP,
- ``""`` (default) — disabled, zero overhead.

Wire format is DogStatsD: ``name:value|type|#tag:v,tag:v``; a cycle's
metrics travel as one newline-separated datagram.

Publishing is strictly fire-and-forget: the socket is datagram
(connectionless), sends never block the cycle, and ANY send error is
swallowed after the first warning — losing a metric datagram must
never fail ingestion, because the manifest already holds the durable
copy.
"""

from __future__ import annotations

import logging
import socket

logger = logging.getLogger("arcane_ray.telemetry")

#: (published name, cycle-metrics key, statsd type), sent per committed batch
_CYCLE_METRICS = (
    ("changes_in", "changes_in", "c"),
    ("upserts", "upserts", "c"),
    ("deletes", "deletes", "c"),
    ("combined_away", "precombined_rows", "c"),
    ("bytes_written", "bytes", "c"),
    ("watermark", "watermark", "g"),
    ("cycle_s", "cycle_s", "ms"),
    ("merge_s", "merge_s", "ms"),
    # only the first cycle committed after a (re)start carries it
    ("first_commit_s", "first_commit_s", "ms"),
)


class StatsdPublisher:
    """DogStatsD publisher for one stream; construct via :meth:`from_ctx`.

    ``target`` grammar: ``uds://<abspath>`` | ``udp://<host>:<port>``.
    Unknown schemes raise at construction (configuration error — the
    one failure that SHOULD be loud); send-time errors are swallowed.
    """

    def __init__(self, target: str, prefix: str = "arcane.stream",
                 tags: dict[str, str] | None = None):
        self.prefix = prefix.rstrip(".")
        self._tagstr = (
            "|#" + ",".join(f"{k}:{v}" for k, v in sorted((tags or {}).items()))
            if tags
            else ""
        )
        self._warned = False
        scheme, _, rest = target.partition("://")
        if scheme == "uds":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
            self._addr: str | tuple[str, int] = "/" + rest.lstrip("/")
        elif scheme == "udp":
            host, _, port = rest.rpartition(":")
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._addr = (host or "127.0.0.1", int(port))
        else:
            raise ValueError(
                f"unknown statsd target {target!r} (use uds://<path> or "
                "udp://<host>:<port>)"
            )
        # AF_UNIX datagram sockets are FLOW-CONTROLLED: sendto blocks when
        # the receiver's queue is full (unlike UDP).  Fire-and-forget must
        # never block the cycle, so drop on EAGAIN instead.
        self._sock.setblocking(False)

    @classmethod
    def from_ctx(cls, obs) -> "StatsdPublisher | None":
        """None when ``observability.statsd_target`` is unset."""
        if not getattr(obs, "statsd_target", ""):
            return None
        return cls(
            obs.statsd_target,
            prefix=getattr(obs, "metrics_prefix", "arcane.stream"),
            tags=dict(getattr(obs, "metric_tags", {}) or {}),
        )

    # -- wire ------------------------------------------------------------
    def _line(self, name: str, value, mtype: str) -> str:
        """One metric line; a timing's *value* is in seconds."""
        if mtype == "c":
            value = int(value)
        elif mtype == "ms":
            value = round(float(value) * 1000.0, 3)
        return f"{self.prefix}.{name}:{value}|{mtype}{self._tagstr}"

    def _send(self, payload: str) -> None:
        try:
            self._sock.sendto(payload.encode("utf-8"), self._addr)
        except BlockingIOError:
            pass  # receiver queue full: drop the datagram, never block
        except OSError as e:
            if not self._warned:
                logger.warning("statsd publish failed (%s); metrics remain "
                               "in the manifest", e)
                self._warned = True

    def count(self, name: str, value) -> None:
        self._send(self._line(name, value, "c"))

    def gauge(self, name: str, value) -> None:
        self._send(self._line(name, value, "g"))

    def timing_ms(self, name: str, seconds: float) -> None:
        self._send(self._line(name, seconds, "ms"))

    # -- engine hook -------------------------------------------------------
    def publish_cycle(self, metrics: dict) -> None:
        """All of a cycle's published metrics in ONE datagram, one metric
        per line (DogStatsD accepts newline-separated metrics in a
        packet), so a full receive queue drops a whole cycle or nothing
        of it — never its last few metrics."""
        lines = [
            self._line(name, metrics[key], mtype)
            for name, key, mtype in _CYCLE_METRICS
            if key in metrics
        ]
        if lines:
            self._send("\n".join(lines))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
