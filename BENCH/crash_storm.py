"""Randomized SIGKILL storm: kill the streaming CLI at random points N
times, then let it finish; final table must match the oracle exactly."""
import json, os, random, shutil, subprocess, sys, time

sys.path.insert(0, "/root/repo")
root = "/tmp/crash_storm"
shutil.rmtree(root, ignore_errors=True)
ct, tgt = root + "/ct", root + "/tgt"
# TARGET_SCHEME=mock runs the identical storm with the lake on the
# object-store protocol facade (conditional-PUT CAS, no rename/fsync)
if os.environ.get("TARGET_SCHEME") == "mock":
    tgt = "mock://" + root + "/tgt"

import ray
ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
from arcane_stream_sqlserver_change_tracking_ray.gen import CtLogSpec, write_ctlog, expected_final_state
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import prepare_watermark
write_ctlog(ct, CtLogSpec(n_keys=2000, n_events=40000, events_per_file=2000))
prepare_watermark(tgt, 0, num_partitions=8)
ray.shutdown()

spec = root + "/spec.json"
sink = {"target_root": tgt, "num_partitions": 8}
# PARTITION_BY=day(warc_ts) re-runs the identical storm with value
# clustering + write-time bounds in play (CoW so base files cluster)
if os.environ.get("PARTITION_BY"):
    sink.update({"partition_by": [os.environ["PARTITION_BY"]],
                 "merge_mode": "cow"})
with open(spec, "w") as f:
    json.dump({
        "source": {"ctlog_dir": ct, "key_columns": ["url"]},
        "sink": sink,
        "throughput": {"rows_per_group": 2000},
        "maintenance": {"enabled": True, "batch_threshold": 5,
                        "analyze_included_columns": ["url"]},
    }, f)
cmd = [sys.executable, "-m", "arcane_stream_sqlserver_change_tracking_ray", "stream", "--spec", spec]
env = dict(os.environ, RAY_ADDRESS="local")
rng = random.Random(7)
kills = 0
for attempt in range(6):
    p = subprocess.Popen(cmd, cwd="/root/repo", env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    t_kill = rng.uniform(6.0, 15.0)
    try:
        p.wait(timeout=t_kill)
        break  # finished cleanly
    except subprocess.TimeoutExpired:
        p.kill(); p.wait(); kills += 1
        print(f"attempt {attempt}: SIGKILL after {t_kill:.1f}s", flush=True)
else:
    pass  # storm over; the final run below must converge

r = subprocess.run(cmd, cwd="/root/repo", env=env, capture_output=True, text=True, timeout=600)
assert r.returncode == 0, r.stderr[-1000:]

import ray
ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target_table, get_watermark
import pandas as pd
g = read_target_table(tgt).to_pandas().sort_values("url").reset_index(drop=True)
e = expected_final_state(ct).to_pandas().sort_values("url").reset_index(drop=True)
pd.testing.assert_frame_equal(g[sorted(e.columns)], e[sorted(e.columns)], check_like=True)
print(f"CRASH-STORM OK: {kills} SIGKILLs, final table byte-matches oracle "
      f"({len(g)} rows), watermark={get_watermark(tgt)}")
ray.shutdown()
