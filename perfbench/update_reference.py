"""Rewrite perfbench/reference.json from the current code.

    python3 perfbench/update_reference.py

Runs one pass of `corpus` and `random` and the fixed-seed checks of the
`mc_*` workloads, and stores each row's quality fingerprint.  Run it only in
a change that means to alter compiled output or Monte Carlo draws, and say
so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import worker


def main() -> int:
    for var in worker.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(worker.ROOT / "src"))
    import spec
    import workloads
    ref = {}
    for name in spec.WORKLOADS:
        wl = workloads.build(name, worker.ROOT, seed=0)
        ops = (wl.run_pass(0) if wl.kind == "compile" else []) + wl.finish()
        if not all(op.ok for op in ops):
            print(f"{name}: a check failed; reference not written",
                  file=sys.stderr)
            return 1
        for row, fp in sorted(worker.check_fingerprints(ops).items()):
            ref[f"{name}/{row}"] = fp
    path = worker.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
