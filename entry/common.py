"""Shared plumbing for the driver-contract query modules.

Split out of the original single-file __ray_entry__.py (r3 verdict #5);
the facade at /root/repo/__ray_entry__.py re-exports everything so the
driver contract (entry / queries / oracle_sql) is unchanged.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from arcane_stream_sqlserver_change_tracking_ray.functions import transforms as T
from arcane_stream_sqlserver_change_tracking_ray.functions.text import (
    BPE_ISH_PATTERN,
    PUNCT_PATTERN,
    STOPWORDS,
    UPPER_PATTERN,
    WORD_PATTERN,
    FingerprintStage,
    LangIdStage,
    QualityScoreStage,
    TfidfTopKStage,
    TokenCountStage,
    _stopword_regex,
    contamination_counts,
    token_count_partials,
    escape_html_text,
    rolling_window_hashes,
)
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    VERSION_COL,
)


def _register_package_by_value() -> None:
    """Ship this repo's code to Ray workers BY VALUE.

    The driver calls ``ray.init`` before importing this module, possibly
    from a cwd where ``/root/repo`` is not importable by worker processes
    (workers inherit the raylet's cwd/PYTHONPATH, not the driver's
    ``sys.path``).  Registering every package module with Ray's
    cloudpickle makes all map_batches callables, closures and the merge
    writers' task functions self-contained — no import needed on
    workers."""
    try:
        from ray import cloudpickle

        import arcane_stream_sqlserver_change_tracking_ray  # noqa: F401
        # import the submodules queries() relies on so they are registered
        from arcane_stream_sqlserver_change_tracking_ray.functions import (  # noqa: F401
            dedup, join, multimodal, similarity, text, transforms, web,
        )
        from arcane_stream_sqlserver_change_tracking_ray.pipelines import runner  # noqa: F401
        from arcane_stream_sqlserver_change_tracking_ray.stages import (  # noqa: F401
            maintenance, merge, schema_evo, staging,
        )

        pkg_root = __name__.rpartition(".")[0]  # the 'entry' package
        for name, mod in list(sys.modules.items()):
            # the engine package AND every entry.* query module: both
            # define map_batches callables / closures shipped to workers
            if name.startswith("arcane_stream_sqlserver_change_tracking_ray") or (
                pkg_root and (name == pkg_root or name.startswith(pkg_root + "."))
            ):
                cloudpickle.register_pickle_by_value(mod)
        # the facade module defines the driver contract itself
        for facade in ("__ray_entry__",):
            mod = sys.modules.get(facade)
            if mod is not None:
                cloudpickle.register_pickle_by_value(mod)
    except Exception:
        pass  # ray not importable yet / vendored API changed: fall back to
        # normal by-reference pickling (works whenever workers share the cwd)



def _read(sf_dir: str, table: str, **kw):
    """read_parquet with the file's schema minus its pandas metadata: a
    pa.Schema carrying metadata is UNHASHABLE (hash(schema) raises on the
    metadata dict), which defeats Ray Data's schema-dedup at every
    unify/groupby boundary and spams 'Failed to hash the schemas'
    warnings.  (Pre-projected to the column subset — read_parquet
    requires schema and columns to agree.)"""
    import pyarrow.parquet as pq
    import ray.data

    path = f"{sf_dir}/{table}.parquet"
    schema = pq.read_schema(path).remove_metadata()
    cols = kw.get("columns")
    if cols:
        schema = pa.schema([schema.field(c) for c in cols])
    # Don't let min_parallelism shatter a tiny table into dozens of
    # near-empty blocks — every downstream stage then runs a task per
    # block for ~ms of work (at sf0.01 a 500-row documents read split
    # into 64 blocks made span_dedup 7 stages x 64 tasks of overhead).
    # ~128 rows/block keeps full 32-way parallelism from sf0.1 up.
    if "override_num_blocks" not in kw:
        n_rows = pq.ParquetFile(path).metadata.num_rows
        kw["override_num_blocks"] = max(1, min(128, -(-n_rows // 128)))
    return ray.data.read_parquet(path, schema=schema, **kw)

