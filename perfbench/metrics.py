"""Metric names, units and directions: the single list ``BENCHMARK.json``
mirrors (``tests/test_smoke.py`` checks that the two agree)."""

from __future__ import annotations

import numpy as np

#: (name, unit, better) reported with ``--trace 0`` by every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ingest_events_per_s", "events/s", "higher"),
    ("cycle_p50_s", "s", "lower"),
    ("stored_bytes_per_event", "bytes/event", "lower"),
    ("lookup_p50_s", "s", "lower"),
    ("lookup_p90_s", "s", "lower"),
    ("lookup_folded_p50_s", "s", "lower"),
    ("scan_p50_s", "s", "lower"),
    ("ok_op_share", "ratio", "higher"),
)

#: span name -> per-layer metric stem; each is reported as ``<stem>``
#: (total seconds), ``<stem>.count`` and the self-time name
TIMED_LAYERS = (
    ("runner.cycle", "runner.cycle_s", "runner.driver_self_s"),
    ("ctlog.plan", "ctlog.plan_s", "ctlog.plan_s.self"),
    ("ctlog.poll", "ctlog.poll_s", "ctlog.poll_s.self"),
    ("runner.transform", "runner.transform_s", "runner.transform_s.self"),
    ("merge.apply", "merge.apply_s", "merge.read_decode_s"),
    ("merge.precombine_hash", "merge.precombine_hash_s", "merge.precombine_hash_s.self"),
    ("merge.cast", "merge.cast_s", "merge.cast_s.self"),
    ("fs.encode_fsync", "fs.encode_fsync_s", "fs.encode_fsync_s.self"),
    ("manifest.latest", "manifest.latest_s", "manifest.latest_s.self"),
    ("manifest.commit", "manifest.commit_s", "manifest.commit_s.self"),
    ("maintenance.run", "maintenance.run_s", "maintenance.run_s.self"),
    ("maintenance.optimize", "maintenance.optimize_s", "maintenance.optimize_s.self"),
    ("maintenance.expire", "maintenance.expire_s", "maintenance.expire_s.self"),
    ("read.resolve", "read.resolve_s", "read.resolve_s.self"),
    ("op.changefeed", "read.changefeed_s", "read.changefeed_s.self"),
)

#: spans of the ingest data path count only inside cycles; the read
#: path's casts and the fold's writes belong to their own layers
CYCLE_ONLY = {"runner.transform", "merge.precombine_hash", "merge.cast", "fs.encode_fsync"}

#: (name, unit, better) count metrics taken beside the spans
COUNTED_LAYERS = (
    ("ctlog.segments_listed", "count", "lower"),
    ("ctlog.lag_versions", "versions", "lower"),
    ("manifest.latest_calls", "1/cycle", "lower"),
    ("manifest.versions_listed", "count", "lower"),
    ("manifest.bytes", "bytes", "lower"),
    ("merge.rows_routed_per_row_in", "ratio", "lower"),
    ("merge.skew_max_over_mean", "ratio", "lower"),
    ("merge.cow_rewrite_bytes", "bytes/cycle", "lower"),
    ("fs.files_written", "files/cycle", "lower"),
    ("fs.bytes_written", "bytes/cycle", "lower"),
    ("maintenance.folded_deltas", "count", "lower"),
    ("maintenance.bytes_rewritten", "bytes", "lower"),
    ("read.files_read_per_lookup", "count", "lower"),
    ("read.bloom_skip_share", "ratio", "higher"),
    ("read.changefeed_pids", "count", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    out = []
    for _, stem, self_name in TIMED_LAYERS:
        out += [(stem, "s", "lower"), (stem + ".count", "count", "lower"), (self_name, "s", "lower")]
    return out + list(COUNTED_LAYERS)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for no samples."""
    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def per_layer(spans: list[dict], selfs: dict[str, float], counts: list[dict],
              cycle_metrics: list[dict], lookup_stats: list[dict],
              cow: bool) -> dict[str, tuple[float, str]]:
    """The per-layer table of one traced run: ``name -> (value, unit)``.

    Timings are totals over the timed section; spans of the ingest data
    path count only inside cycle traces.  Counts are means per call,
    per cycle or per fold, as their units say."""
    out: dict[str, tuple[float, str]] = {}
    in_cycle = lambda s: str(s["trace_id"]).startswith("cycle-")  # noqa: E731
    for span, stem, self_name in TIMED_LAYERS:
        mine = [s for s in spans if s["name"] == span and (span not in CYCLE_ONLY or in_cycle(s))]
        out[stem] = (sum(s["end"] - s["start"] for s in mine), "s")
        out[stem + ".count"] = (float(len(mine)), "count")
        out[self_name] = (sum(selfs[s["id"]] for s in mine), "s")

    def mean_count(name: str, cycles_only: bool = False) -> float:
        vals = [c["value"] for c in counts
                if c["name"] == name and (not cycles_only or str(c["trace_id"]).startswith("cycle-"))]
        return float(np.mean(vals)) if vals else 0.0

    n_cycles = max(len(cycle_metrics), 1)
    latest_in_cycles = sum(1 for s in spans if s["name"] == "manifest.latest" and in_cycle(s))
    changes = sum(int(m.get("changes_in", 0)) for m in cycle_metrics)
    routed = changes - sum(int(m.get("precombined_rows", 0)) for m in cycle_metrics)
    skews = [m["skew"]["max_over_mean"] for m in cycle_metrics if m.get("skew")]
    lookups = max(len(lookup_stats), 1)
    read = sum(st.get("files_read", 0) for st in lookup_stats)
    skipped = sum(st.get("files_skipped", 0) for st in lookup_stats)
    cf_ops = [s["trace_id"] for s in spans if s["name"] == "op.changefeed"]
    cf_pids = sum(1 for s in spans if s["name"] == "read.changefeed_pid")
    counted = {
        "ctlog.segments_listed": mean_count("ctlog.segments_listed", cycles_only=True),
        "ctlog.lag_versions": mean_count("ctlog.lag_versions"),
        "manifest.latest_calls": latest_in_cycles / n_cycles if cycle_metrics else 0.0,
        "manifest.versions_listed": mean_count("manifest.versions_listed"),
        "manifest.bytes": mean_count("manifest.bytes", cycles_only=True),
        "merge.rows_routed_per_row_in": routed / changes if changes else 0.0,
        "merge.skew_max_over_mean": float(np.mean(skews)) if skews else 0.0,
        "merge.cow_rewrite_bytes": (
            sum(int(m.get("bytes", 0)) for m in cycle_metrics) / n_cycles if cow else 0.0
        ),
        "fs.files_written": mean_count("fs.files_written"),
        "fs.bytes_written": mean_count("fs.bytes_written"),
        "maintenance.folded_deltas": mean_count("maintenance.folded_deltas"),
        "maintenance.bytes_rewritten": mean_count("maintenance.bytes_rewritten"),
        "read.files_read_per_lookup": read / lookups,
        "read.bloom_skip_share": skipped / (read + skipped) if read + skipped else 0.0,
        "read.changefeed_pids": cf_pids / len(cf_ops) if cf_ops else 0.0,
    }
    units = {name: unit for name, unit, _ in COUNTED_LAYERS}
    out.update({k: (float(v), units[k]) for k, v in counted.items()})
    return out
