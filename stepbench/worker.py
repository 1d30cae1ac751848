"""One benchmark worker: a fresh process that imports the program, runs one
workload's set-up operation and measured window, checks its outputs, and
prints one JSON line.

Started by ``run.py`` with a single JSON argument::

    {"workload": "finetune", "scale": "full", "seed": 1, "index": 0,
     "trace": false, "check": true, "corrupt": null}

``corrupt`` is ``null``, ``"shift"`` or ``"nan"`` (see ``run.py --corrupt-output``).

``first_op_done`` is a ``time.monotonic()`` reading, which Linux keeps on one
clock for every process, so the parent turns it into set-up time by
subtracting the moment it spawned this process.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    started = time.perf_counter()
    import workloads  # imports numpy and every repro module the workloads use

    import_s = time.perf_counter() - started
    cfg = workloads.SCALES[spec["scale"]][spec["workload"]]
    workload = workloads.WORKLOADS[spec["workload"]](cfg, spec["seed"], spec["index"])
    workload.setup_op()
    first_op_done = time.monotonic()
    # Freeze what imports and set-up built.  The collector then neither scans
    # it nor counts it towards when a full collection is due, so the
    # collection cadence, and with it peak RSS, follows what the measured
    # operations allocate, not how many objects the modules happen to create
    # (without this, adding a few functions moved finetune's peak RSS by 20%).
    gc.collect()
    gc.freeze()
    if spec["trace"]:
        workload.instrument()
    result = workload.run(spec["trace"])
    checks = workload.check(spec["corrupt"]) if spec["check"] else []
    result.update(
        import_s=import_s,
        first_op_done=first_op_done,
        checks=[[name, problem] for name, problem in checks],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
