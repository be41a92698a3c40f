"""Write the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py

Runs each workload once per size with seed 0 and stores its result CSVs
under ``reference/<size>/<workload>/``. ``trajectory.csv`` keeps only the
columns the check compares. Seed-dependent rows (``cauchy_ratio``) are
stored but checked by verdict only. Regenerate only when the program's
results are meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
from pathlib import Path

from check import TRAJECTORY_COLUMNS, read_csv
from run import REFERENCE, WORK, run_child
from workloads import SIZES, WORKLOADS


def main() -> None:
    WORK.mkdir(exist_ok=True)
    for size in SIZES:
        for name, workload in WORKLOADS.items():
            work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
            try:
                config = work / "run.cfg"
                config.write_text(workload.config_text(size))
                out = work / "out"
                record, stderr = run_child(workload, config, out, 0, False, work)
                if record is None or record["rc"] != 0:
                    raise SystemExit(f"{size}/{name} failed: {stderr}")
                dest = REFERENCE / size / name
                dest.mkdir(parents=True, exist_ok=True)
                for output in workload.outputs:
                    if output == "trajectory.csv":
                        header, rows = read_csv(str(out / output))
                        keep = [header.index(c) for c in TRAJECTORY_COLUMNS]
                        with open(dest / output, "w", newline="") as fh:
                            writer = csv.writer(fh, lineterminator="\n")
                            writer.writerow(TRAJECTORY_COLUMNS)
                            writer.writerows([r[i] for i in keep] for r in rows)
                    else:
                        shutil.copyfile(out / output, dest / output)
                print(f"{size}/{name}: {record['wall_s']:.2f} s")
            finally:
                shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
