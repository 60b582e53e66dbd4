"""Record the reference values the CLI cases are checked against.

Runs every CLI case of the ``readme`` and ``bulk`` workloads once, at both
sizes, and writes the fingerprint of each output to ``reference.json``.
Run it only at a commit whose outputs are known to be right; the
benchmark then reports any later change of those outputs as a failure.

    python3 perfbench/record.py
"""

import json
import os
import shutil
import sys
import tempfile

import worker
import workloads


def main() -> int:
    worker.import_program()
    from treeshell import cli

    reference = {}
    os.makedirs(os.path.join(worker.HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(worker.HERE, "out"))
    try:
        for workload, table in (("readme", workloads.README),
                                ("bulk", workloads.BULK)):
            for size in workloads.SIZES:
                for key, template in table[size]:
                    out = os.path.join(workdir, f"{key}.csv")
                    summary = os.path.join(workdir, f"{key}.json")
                    argv = workloads.cli_argv(template, out, summary)
                    if cli.main(argv) != 0:
                        raise SystemExit(f"{workload}.{key} failed: {argv}")
                    reference[f"{workload}.{size}.{key}"] = \
                        workloads.output_record(
                            out, summary if "--summary" in argv else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} records to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
