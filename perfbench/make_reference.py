"""Record the reference outputs that run.py checks against.

    python3 perfbench/make_reference.py

Runs one iteration of each workload that has recorded outputs (train32 and
screen64), for every seed class 0..15 and both sizes, and writes
``reference.json`` next to this file. Run it only at a commit whose outputs
are known to be right: every later run is checked against these values.
"""

import shutil
import sys

import run  # sets the BLAS thread count before numpy is imported

run.import_program()

import json  # noqa: E402

from workloads import REFERENCE_SEEDS, SIZES, WORKLOADS  # noqa: E402


def main() -> int:
    work = run.ROOT / ".bench_work" / "reference"
    reference: dict = {}
    try:
        for size in SIZES:
            for name in ("train32", "screen64"):
                wl = WORKLOADS[name]
                for seed in range(REFERENCE_SEEDS):
                    state = wl.setup(work / f"{size}-{name}-{seed}", seed, size)
                    out = wl.run(state)
                    if out.problems:
                        sys.exit(f"{size} {name} seed {seed}: {out.problems}")
                    extra = wl.final_check(state, None)[2]
                    reference.setdefault(size, {}).setdefault(name, {})[str(seed)] = out.outputs | extra
                    print(f"{size} {name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
