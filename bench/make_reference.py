"""Regenerate ``bench/reference/``: sha256 digests of the correct outputs.

Runs one pass of each offline workload on the per-event engine (the
oracle, ``--kernel event``) and writes, per workload, the digest of
every experiment rendering (``reproduce``) or printed table
(``sweep-long``)::

    python bench/make_reference.py

Rerun it only when an intended change alters what the experiments
print; a benchmark run fails on any rendering that does not match.
"""

from __future__ import annotations

import json
import shutil
import sys

import common


def main() -> int:
    common.require_source()
    sys.path.insert(0, str(common.SRC))
    import offline

    for workload, run_pass in offline.PASSES.items():
        work = common.WORK / "reference" / workload
        done = run_pass(work, traced=False, extra=("--kernel", "event"))
        if done.errors:
            print("\n".join(done.errors), file=sys.stderr)
            return 1
        scale = (offline.REPRODUCE_SCALE if workload == "reproduce"
                 else offline.SWEEP_SCALE)
        record = {
            "workload": workload,
            "scale": scale,
            "kernel": "event",
            "digests": {name: offline.digest(data)
                        for name, data in sorted(done.renderings.items())},
        }
        target = offline.REFERENCE_DIR / f"{workload}.json"
        target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {target} ({len(record['digests'])} digests)")
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
