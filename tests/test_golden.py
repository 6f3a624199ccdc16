"""Golden curves: each shipped figure config, cut to three trials, against
CSVs written before the sweep was restructured.

The files in `tests/golden/` hold every float at full `repr` precision.
Rows must match at rtol 1e-9, atol 0: tight enough to catch any change in
the numerics, loose enough for BLAS/LAPACK to move the last few ulps.
fig4 (`qr-mld` under `ezf` and `mrt`) has no other reference of this kind.

Regenerate only on a commit whose output should become the golden curves:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from mimosim.experiment import CSV_HEADER, parse_config, run_sweep

from conftest import CONFIG_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_TRIALS = 3
RTOL = 1e-9
FIGURES = ("fig3", "fig4", "fig5")
_NUMERIC = ("su_sinr_db", "mu_se_mean", "su_se_mean", "ratio_mean", "interference_power_mean")


def golden_rows(figure: str):
    config = parse_config((CONFIG_DIR / f"{figure}.cfg").read_text())
    return run_sweep(dataclasses.replace(config, trials=GOLDEN_TRIALS))


def golden_text(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        numbers = ",".join(repr(float(getattr(r, f))) for f in _NUMERIC)
        lines.append(f"{r.precoder},{r.detector},{numbers},{r.trials},{r.base_seed}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("figure", FIGURES)
def test_sweep_matches_golden_curve(figure):
    lines = (GOLDEN_DIR / f"{figure}.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    expected = [line.split(",") for line in lines[1:]]
    rows = golden_rows(figure)
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert [row.precoder, row.detector, str(row.trials), str(row.base_seed)] == [
            want[0], want[1], want[7], want[8]
        ]
        got = np.array([getattr(row, f) for f in _NUMERIC])
        np.testing.assert_allclose(
            got, [float(v) for v in want[2:7]], rtol=RTOL, atol=0.0,
            err_msg=f"{figure} {row.precoder}/{row.detector} at {row.su_sinr_db} dB",
        )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for figure in FIGURES:
        path = GOLDEN_DIR / f"{figure}.csv"
        path.write_text(golden_text(golden_rows(figure)))
        print(f"wrote {path}")
