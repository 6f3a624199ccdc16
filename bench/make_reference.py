"""Write the reference CSVs the sweep gate compares against.

    python3 bench/make_reference.py

Runs each sweep workload once at the default seed and pass size and writes
`bench/reference/<workload>.csv` with full-precision floats. Run it only on
the commit whose output is the reference; the files committed here come
from the code as first benchmarked.
"""

import envsetup

envsetup.pin_process()

from mimosim import experiment  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, spec in workloads.SWEEPS.items():
        text = workloads.config_text(name, workloads.DEFAULT_SEED, spec["trials"])
        rows = experiment.run_sweep(experiment.parse_config(text))
        path = workloads.REFERENCE_DIR / f"{name}.csv"
        path.write_text(workloads.reference_text(rows))
        print(f"wrote {len(rows)} rows to {path}")


if __name__ == "__main__":
    main()
