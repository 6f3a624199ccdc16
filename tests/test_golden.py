"""Golden outputs: each shipped figure config, cut to three trials, against
CSVs written before the sweep was restructured, and `mimosim check` stdout.

The CSVs in `tests/golden/` hold every float at full `repr` precision.
Rows must match at rtol 1e-9, atol 0: tight enough to catch any change in
the numerics, loose enough for BLAS/LAPACK to move the last few ulps.
fig4 (`qr-mld` under `ezf` and `mrt`) has no other reference of this kind.

`check.txt` pins the residuals each check suite prints, which its pass
thresholds alone would let drift by orders of magnitude. All text outside
the numbers must match exactly. A printed number (4 significant digits) at
or above CHECK_FLOOR must agree within rtol CHECK_RTOL; one below it is
rounding noise, and must stay below it.

Regenerate only on a commit whose output should become the golden files
(it rewrites the CSVs and `check.txt`):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

import numpy as np
import pytest

from mimosim.cli import main
from mimosim.experiment import CSV_HEADER, parse_config, run_sweep

from conftest import CONFIG_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_TRIALS = 3
RTOL = 1e-9
FIGURES = ("fig3", "fig4", "fig5")
_NUMERIC = ("su_sinr_db", "mu_se_mean", "su_se_mean", "ratio_mean", "interference_power_mean")
CHECK_RTOL = 1e-3
CHECK_FLOOR = 1e-12
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e[-+]?\d+)?")


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


def check_text() -> str:
    """What `mimosim check` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check"])
    return out.getvalue()


def test_check_output_matches_golden():
    want = (GOLDEN_DIR / "check.txt").read_text().splitlines()
    got = check_text().splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        assert _NUMBER.split(got_line) == _NUMBER.split(want_line), got_line
        for g, w in zip(map(float, _NUMBER.findall(got_line)),
                        map(float, _NUMBER.findall(want_line))):
            if w < CHECK_FLOOR:
                assert g < CHECK_FLOOR, (got_line, want_line)
            else:
                assert g == pytest.approx(w, rel=CHECK_RTOL, abs=0.0), (got_line, want_line)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for figure in FIGURES:
        path = GOLDEN_DIR / f"{figure}.csv"
        path.write_text(golden_text(golden_rows(figure)))
        print(f"wrote {path}")
    path = GOLDEN_DIR / "check.txt"
    path.write_text(check_text())
    print(f"wrote {path}")
