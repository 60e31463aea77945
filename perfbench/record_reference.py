"""Record the final ratios the scenarios and sweep checks compare against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``. Run it only on a commit whose numerics
are the accepted ones; the committed file was recorded at the commit that
added the benchmark.
"""

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    workloads = run.import_pinnet()
    run.WORK.mkdir(parents=True, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=run.WORK)
    try:
        reference = workloads.record_reference(run.Path(out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
