"""Correctness gate: every result the timed section produced is compared
with a DuckDB / pandas last-writer-wins oracle over the same feed."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

KEY = "url"
VERSION = "sys_change_version"
OP = "sys_change_operation"


def canonical(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """*table* projected and cast to *schema*, sorted by key."""
    t = table.select(schema.names).cast(schema)
    return t.take(pc.sort_indices(t, [(KEY, "ascending")])).combine_chunks()


class Oracle:
    """The feed's events in memory, for every check of one run."""

    def __init__(self, source_dir: str):
        import duckdb

        con = duckdb.connect()
        try:
            events = con.sql(
                f"SELECT {KEY}, {VERSION}, {OP} FROM read_parquet('{source_dir}/*.parquet')"
            ).arrow()
        finally:
            con.close()
        self.events = events.to_pandas()
        self.source_dir = source_dir
        self._states: dict[int, tuple[pa.Table, dict[str, int]]] = {}

    def state(self, upto_version: int) -> tuple[pa.Table, dict[str, int]]:
        """The LWW table at *upto_version* (``gen.expected_final_state``),
        sorted by key, and each live key's row index."""
        st = self._states.get(upto_version)
        if st is None:
            from arcane_stream_sqlserver_change_tracking_ray.gen import expected_final_state

            want = expected_final_state(self.source_dir, upto_version)
            want = canonical(want, pa.schema(sorted(want.schema, key=lambda f: f.name)))
            st = self._states[upto_version] = (
                want, {k: i for i, k in enumerate(want[KEY].to_pylist())}
            )
        return st

    def table_ok(self, got: pa.Table, upto_version: int) -> bool:
        """Same rows, same values, no extra payload columns."""
        want, _ = self.state(upto_version)
        extra = set(got.column_names) - set(want.column_names) - {OP}
        if extra or got.num_rows != want.num_rows:
            return False
        return canonical(got, want.schema).equals(want)

    def lookup_ok(self, got: pa.Table, key: str, upto_version: int) -> bool:
        want, index = self.state(upto_version)
        if key not in index:
            return got.num_rows == 0
        return got.num_rows == 1 and canonical(got, want.schema).equals(want.slice(index[key], 1))

    def scan_ok(self, got: pa.Table, upto_version: int, lang: str) -> bool:
        want, _ = self.state(upto_version)
        want = want.filter(pc.equal(want["lang"], lang))
        schema = pa.schema([want.schema.field(KEY), want.schema.field(VERSION)])
        return got.num_rows == want.num_rows and canonical(got, schema).equals(
            canonical(want, schema)
        )

    def changefeed_ok(self, got: pa.Table, wm_from: int, wm_to: int) -> bool:
        """Net changes in ``(wm_from, wm_to]``: the per-key winner in the
        window, classified against the key's state at ``wm_from``."""
        ev = self.events
        win = ev[(ev[VERSION] > wm_from) & (ev[VERSION] <= wm_to)]
        win = win.sort_values(VERSION).drop_duplicates(KEY, keep="last")
        alive_before = set(self.state(wm_from)[1]) if wm_from > 0 else set()
        existed = win[KEY].isin(alive_before).to_numpy()
        is_del = (win[OP] == "D").to_numpy()
        kind = np.where(is_del, "delete", np.where(existed, "update", "insert"))
        keep = ~is_del | existed
        want = sorted(zip(win[KEY][keep], win[VERSION][keep].astype(int), kind[keep]))
        g = got.select([KEY, VERSION, "change_type"]).to_pandas()
        return sorted(zip(g[KEY], g[VERSION].astype(int), g["change_type"])) == want
