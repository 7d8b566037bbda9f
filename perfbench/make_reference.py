"""Write reference.json: each workload's outputs at the reference seed.

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; the benchmark
compares every run against this file at the stored tolerance.
"""

import json
import shutil
import sys

from run import OUT_DIR, REFERENCE, checks, workloads

# BLAS may sum in another order on another machine or thread count. The
# tolerance absorbs that rounding; any other change to the outputs shows.
TOLERANCE = {"rtol": 1e-9, "atol": 1e-12}


def main() -> int:
    out = {"tolerance": TOLERANCE, "seed": workloads.REFERENCE_SEED,
           "workloads": {}}
    work = OUT_DIR / "make-reference"
    try:
        for name, wl in workloads.WORKLOADS.items():
            wl.prepare(work)
            ref = wl.reference()
            ref["sha256"] = checks.digest(ref)
            out["workloads"][name] = ref
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(out) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
