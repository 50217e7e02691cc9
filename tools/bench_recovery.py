"""Measure crash-recovery time: snapshot + tail replay vs full replay.

Builds paired single-shard runs of growing journal length — one that
checkpoints (``repro-shard-snapshot/1``) with a small fixed tail past
the last checkpoint, one that never checkpoints — then times a cold
:class:`~repro.service.shard.ShardCore` reopen of each.  The
checkpointed reopen is *snapshot load + tail replay*; the twin's is a
full-journal replay.  Recovery from a checkpoint must be O(events since
the checkpoint): flat as the total grows, while full replay grows
linearly.

Budgets (enforced; nonzero exit on violation):

* both recovery paths must land on bit-identical per-tenant digests at
  every size — a fast recovery that disagrees with the journal is a
  corruption, not a win;
* at the largest size, snapshot recovery must be at least
  ``--min-speedup`` (default 5) times faster than full replay.

Writes a ``repro-bench-recovery/1`` record::

    python tools/bench_recovery.py --out BENCH_recovery.json
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(_SRC))

from repro.service.shard import ShardCore  # noqa: E402
from repro.workloads.program import WorkloadConfig, generate_trace  # noqa: E402

BENCH_SCHEMA = "repro-bench-recovery/1"
SPEC = "btb:entries=128,assoc=2"
TENANTS = ("alpha", "beta", "gamma")
TAIL_BATCHES = 2
TOTALS = (16, 96, 448)  # batches per run; each batch is ~100 events


def batch_for(bid, tenant_index):
    trace = generate_trace(WorkloadConfig(
        name="bench", events=20, seed=bid * 10 + tenant_index))
    return list(trace.pcs), list(trace.targets)


def build_run(run_dir: Path, total_batches: int, checkpointed: bool) -> int:
    """Serve ``total_batches`` rounds; returns total events applied."""
    core = ShardCore(0, SPEC, run_dir)
    events = 0
    compact_at = total_batches - TAIL_BATCHES
    # Retention lags by one compaction (the journal base is the *prev*
    # checkpoint's watermark), so compact twice back-to-back near the
    # end: the second compaction trims the journal to the records since
    # the first, leaving the short tail a checkpointed shard really
    # replays on restart.
    compact_points = {compact_at - 1, compact_at} if checkpointed else set()
    for bid in range(1, total_batches + 1):
        for index, tenant in enumerate(TENANTS):
            pcs, targets = batch_for(bid, index)
            reply = core.handle(tenant, bid, pcs, targets)
            assert reply["status"] == "ok", reply
            events += len(pcs)
        if bid in compact_points:
            report = core.compact()
            assert report["completed"], report
    core.close()
    return events


def time_recovery(run_dir: Path):
    """(seconds, source, tail_events, digests) of one cold reopen."""
    started = time.perf_counter()
    core = ShardCore(0, SPEC, run_dir)
    elapsed = time.perf_counter() - started
    recovery = core.recovery
    digests = {tenant: meta["digest"]
               for tenant, meta in core.store.snapshot().items()}
    core.close()
    return elapsed, recovery["source"], recovery["tail_events"], digests


def measure(total_batches: int, scratch: Path) -> dict:
    checkpointed = scratch / f"ck-{total_batches}"
    full = scratch / f"full-{total_batches}"
    checkpointed.mkdir()
    full.mkdir()
    total_events = build_run(checkpointed, total_batches, checkpointed=True)
    build_run(full, total_batches, checkpointed=False)
    snap_s, snap_source, tail_events, snap_digests = time_recovery(checkpointed)
    full_s, full_source, _, full_digests = time_recovery(full)
    if snap_source != "checkpoint":
        raise SystemExit(f"error: checkpointed run recovered from "
                         f"{snap_source!r}, not its checkpoint")
    if full_source != "journal":
        raise SystemExit(f"error: twin run recovered from {full_source!r}, "
                         f"not a full replay")
    if snap_digests != full_digests:
        raise SystemExit(f"error: recovery paths disagree at "
                         f"{total_batches} batches — corruption")
    return {
        "total_batches": total_batches,
        "total_events": total_events,
        "tail_events": tail_events,
        "snapshot_recovery_s": round(snap_s, 6),
        "full_replay_s": round(full_s, 6),
        "speedup": round(full_s / max(snap_s, 1e-9), 2),
    }


def check_record(record: dict) -> None:
    """Exit nonzero unless the record is internally consistent.

    Points grow in journal length, each speedup is derivable from its
    two times, and the headline is the largest point.
    """
    last_total = 0
    for point in record["points"]:
        if point["total_batches"] <= last_total \
                or not 0 < point["tail_events"] <= point["total_events"] \
                or not point["snapshot_recovery_s"] > 0 \
                or not point["full_replay_s"] > 0:
            raise SystemExit(f"error: inconsistent point {point}")
        derived = point["full_replay_s"] / point["snapshot_recovery_s"]
        if abs(point["speedup"] - derived) > 0.05 * derived + 0.01:
            raise SystemExit(f"error: speedup {point['speedup']} vs derived "
                             f"{derived:.2f}")
        last_total = point["total_batches"]
    if not record["points"]:
        raise SystemExit("error: no measurement points")
    headline, largest = record["headline"], record["points"][-1]
    if headline["speedup_vs_full_replay"] != largest["speedup"] \
            or headline["snapshot_recovery_s"] \
            != largest["snapshot_recovery_s"]:
        raise SystemExit("error: headline is not the largest point")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark snapshot recovery vs full journal replay.")
    parser.add_argument("--out", default="BENCH_recovery.json",
                        metavar="FILE")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required speedup at the largest size "
                             "(default: 5)")
    args = parser.parse_args(argv)

    points = []
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as scratch:
        for total in TOTALS:
            point = measure(total, Path(scratch))
            points.append(point)
            print(f"  {point['total_batches']:>4} batches "
                  f"({point['total_events']:,} events): snapshot "
                  f"{point['snapshot_recovery_s'] * 1000:.1f} ms vs full "
                  f"replay {point['full_replay_s'] * 1000:.1f} ms "
                  f"({point['speedup']:.1f}x)")
    headline_point = points[-1]
    record = {
        "schema": BENCH_SCHEMA,
        "spec": SPEC,
        "tenants": len(TENANTS),
        "tail_batches": TAIL_BATCHES,
        "points": points,
        "headline": {
            "speedup_vs_full_replay": headline_point["speedup"],
            "snapshot_recovery_s": headline_point["snapshot_recovery_s"],
            "full_replay_s": headline_point["full_replay_s"],
        },
    }
    check_record(record)
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if headline_point["speedup"] < args.min_speedup:
        print(f"error: recovery speedup {headline_point['speedup']:.1f}x "
              f"< required {args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
