"""The user-extension surface: the ``ChangeSource`` protocol.

The reference's extension model IS its plugin architecture — a plugin
supplies a ``PluginStreamContext`` plus source layers and reuses every
framework processor downstream (``main.scala:69-117``;
``MicrosoftSqlServerPluginStreamContext.scala:21-30``; SURVEY.md §2.8).
The Ray-native equivalent: implement this protocol (a tailer that plans
version ranges and returns lazy Datasets) and hand it to
``StreamRunner`` — everything downstream (transforms, merge, manifest,
maintenance) is source-agnostic.

``ChangeFeedTailer`` (the parquet CT-log source) is the bundled
implementation; a Kafka/binlog/WAL source only needs to map its offsets
onto a monotone ``sys_change_version`` domain and emit batches with the
essential columns (``types.CHANGE_SCHEMA``).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class ChangeSource(Protocol):
    """A version-ordered change feed (the S1 surface).

    Contract (pinned by the engine's exactly-once design):

    - versions are a DB-global monotone int64 domain; ``plan`` must
      only offer contiguous ranges ``(watermark, hi]`` — never skip a
      hole (SURVEY.md §7.5.6),
    - ``poll`` is side-effect-free and replayable: the same planned
      range must yield the same rows until ``advance`` moves the
      cursor (a failed cycle re-polls),
    - batches carry ``sys_change_version`` plus the payload post-image;
      ``sys_change_operation`` ∈ {'I','U','D'} (``types.CHANGE_SCHEMA``).
    """

    watermark: int

    def plan(self) -> tuple[list[str], int] | None:
        """Next contiguous range above the cursor, or None when caught up."""
        ...

    def poll(self, planned=None):
        """The planned range as a lazy ``ray.data.Dataset`` + hi version."""
        ...

    def advance(self, hi: int) -> None:
        """Move the cursor — called only after the cycle's manifest commit."""
        ...

    def next_interval(self) -> float:
        """Seconds to sleep before the next poll (interval ± jitter)."""
        ...
