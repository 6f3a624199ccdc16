"""Error-contract probe: 500 random sweep configs and what each one gives.

Each config text is drawn from `random.Random(29)`: mixed user shapes,
antenna counts 4-32, grids from -300 to 300 dB, every precoder and detector,
and 1-23 trials, so that a run can cross two chunk boundaries. No config
sets `power`: precoders have unit power, and the draw that once chose a
power is still made, so every other field keeps its value.
`tests/golden/sweep_errors.txt` holds one line per config: `ok <row count>`
for a sweep that finishes, otherwise its exception chain, `Class: message`
followed along `__cause__` to three levels. Any exception is recorded, not
only the library's own, so a bare numpy error escaping a sweep shows up as
a changed line.

numpy `RuntimeWarning`s are raised as errors while probing, so a sweep
that overflows shows up as a changed line whatever the warning filter.

Regenerate only on a commit whose error contract should become the golden
file:

    PYTHONPATH=src python tests/test_sweep_errors.py
"""

import random
import warnings
from pathlib import Path

from mimosim.experiment import parse_config, run_sweep

GOLDEN = Path(__file__).resolve().parent / "golden" / "sweep_errors.txt"
CONFIGS = 500
SHAPES = ("4x2", "2x1", "8x4", "4x4", "2x2", "3x1", "1x1")
POWERS = ("1.0", "2.5", "1e-300", "1e300")
PRECODERS = ("zf", "ezf", "mrt")
DETECTORS = ("mmse-irc", "mmse", "gen-lse(0.1)", "gen-lse(1000)", "lse-limit", "qr-mld")
CHAIN_DEPTH = 3


def config_texts() -> list[str]:
    rng = random.Random(29)
    texts = []
    for _ in range(CONFIGS):
        users = ", ".join(f"{rng.choice(SHAPES)} *{rng.randint(1, 3)}"
                          for _ in range(rng.randint(1, 3)))
        start, step = rng.randint(-300, 300), rng.choice((5, 10, 20))
        stop = start + step * (rng.randint(1, 4) - 1)
        t = rng.choice((4, 8, 16, 32))
        rng.choice(POWERS)  # the retired power line's draw
        texts.append("\n".join((
            f"t = {t}",
            f"users = {users}",
            f"grid = {start}:{stop}:{step}",
            f"precoders = {', '.join(rng.sample(PRECODERS, rng.randint(1, 2)))}",
            f"detectors = {', '.join(rng.sample(DETECTORS, rng.randint(1, 3)))}",
            f"trials = {rng.randint(1, 23)}",
            f"seed = {rng.randint(0, 99)}",
        )) + "\n")
    return texts


def chain(exc: BaseException) -> str:
    links = []
    while exc is not None and len(links) < CHAIN_DEPTH:
        links.append(f"{type(exc).__name__}: {exc}".replace("\n", "\\n"))
        exc = exc.__cause__
    return " <- ".join(links)


def outcome(text: str) -> str:
    try:
        return f"ok {len(run_sweep(parse_config(text)))}"
    except Exception as exc:  # noqa: BLE001 - a bare numpy error is part of the record
        return chain(exc)


def probe_lines() -> list[str]:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return [f"{i:03d} {outcome(text)}" for i, text in enumerate(config_texts())]


def test_config_texts_cover_the_edges():
    texts = config_texts()
    assert len(set(texts)) == CONFIGS
    assert not any("power" in text for text in texts)
    for needle in ("grid = -", "trials = 23",
                   "qr-mld", "lse-limit", "gen-lse(1000)", "precoders = zf", "8x4"):
        assert any(needle in text for text in texts), needle


def test_sweep_errors_match_golden():
    want = GOLDEN.read_text().splitlines()
    got = probe_lines()
    assert len(got) == len(want)
    changed = [(g, w) for g, w in zip(got, want) if g != w]
    assert not changed, changed[:5]


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(probe_lines()) + "\n")
    print(f"wrote {GOLDEN}")
