"""Acceptance gate: one test per criterion, printed as pass/fail lines.

Criterion 6b holds the fig3 SU/MU ratio at 40 dB within 1% of the ratio
that complete interference cancellation gives, not within 1% of 1. The
single-user leg serves each user alone with its own eigen zero-forcing
precoder at power P * p_k / p, so layer i sees SINR (P / p) * s_i^2 / sigma^2.
The multi-user leg shares one RCZF scale P / trace((V V^H)^-1) across all p
layers, V being the stacked reduced channel, so even with no leaked
interference every layer loses the beamforming-loss factor
trace((V V^H)^-1) / p in SINR. That factor averages ~1.29 over the fig3
trials (t=64, 16 layers), worth ~0.37 bits/layer against ~13 bits/layer at
40 dB, which puts the interference-free floor of the ratio at ~1.0285 rather
than 1 (it would need t on the order of 1500 antennas to reach 1.01, since
the loss goes like 1 + (p-1)/t). The test computes that floor from the
channel SVDs of the same seeded trials, independently of mimosim.metrics,
and checks both interference-rejecting detectors against it from both
sides: leaked interference pushes the ratio above the floor, an inflated
multi-user SE below it. Plain MMSE, which does not reject the residual
interference of the other users' weak eigenmodes, serves as the negative
control and must land outside the band.
"""

import dataclasses

import numpy as np
import pytest

from mimosim import checks
from mimosim.detection import build_covariance, qpsk, qr_mld_detect
from mimosim.experiment import (
    parse_config,
    rows_to_csv,
    run_sweep,
    trial_seed,
    write_csv,
)
from mimosim.precoding import rczf_precode, reduce_ezf
from mimosim.system import Scenario, calibrate_noise, generate_channels

from conftest import CONFIG_DIR, crandn


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


def _by_scheme(rows, precoder, detector):
    return {
        r.su_sinr_db: r for r in rows if r.precoder == precoder and r.detector == detector
    }


@pytest.fixture(scope="module")
def fig3_rows():
    return run_sweep(parse_config((CONFIG_DIR / "fig3.cfg").read_text()))


@pytest.fixture(scope="module")
def fig4_rows():
    return run_sweep(parse_config((CONFIG_DIR / "fig4.cfg").read_text()))


@pytest.fixture(scope="module")
def fig5_sweep():
    """fig5 with the interference-aware baseline in the same sweep: same
    scenario, grid, seed and trials, so both curves share every channel draw."""
    cfg = parse_config((CONFIG_DIR / "fig5.cfg").read_text())
    return run_sweep(dataclasses.replace(cfg, detectors=("mmse", "mmse-irc")))


@pytest.fixture(scope="module")
def fig5_rows(fig5_sweep):
    return [r for r in fig5_sweep if r.detector == "mmse"]


@pytest.fixture(scope="module")
def fig5_irc_rows(fig5_sweep):
    """Interference-aware baseline at fig5's exact scenario/grid/seed."""
    return [r for r in fig5_sweep if r.precoder == "ezf" and r.detector == "mmse-irc"]


def test_criterion_01_identity_suite():
    res = checks.identity_suite()
    _report(1, res.passed, res.detail)
    assert res.passed, res.detail


def test_criterion_02_mmse_irc_equality_and_rate():
    eq = checks.mmse_irc_noiseless_suite()
    rate = checks.mmse_irc_rate_suite()
    _report(2, eq.passed and rate.passed, f"{eq.detail}; {rate.detail}")
    assert eq.passed, eq.detail
    assert rate.passed, rate.detail


def test_criterion_03_lambda_independence():
    res = checks.lambda_independence_suite()
    _report(3, res.passed, res.detail)
    assert res.passed, res.detail


def test_criterion_04_limit_and_qr_identities():
    lim = checks.lse_limit_suite()
    qr = checks.qr_factor_identity_suite()
    rot = checks.whitener_invariance_suite()
    ok = lim.passed and qr.passed and rot.passed
    _report(4, ok, f"{lim.detail}; {qr.detail}; {rot.detail}")
    assert lim.passed, lim.detail
    assert qr.passed, qr.detail
    assert rot.passed, rot.detail


def test_criterion_05_qr_mld_limit():
    res = checks.qr_mld_limit_suite()
    _report(5, res.passed, res.detail)
    assert res.passed, res.detail


def test_criterion_06a_fig3_ratio_monotone(fig3_rows):
    worst_step = -np.inf
    for detector in ("mmse-irc", "qr-mld"):
        curve = _by_scheme(fig3_rows, "ezf", detector)
        dbs = sorted(curve)
        ratios = [curve[db].ratio_mean for db in dbs]
        worst_step = max(
            worst_step, max(b - a for a, b in zip(ratios, ratios[1:]))
        )
    passed = worst_step <= 0.0
    _report(6, passed, f"fig3 ratio_mean monotone non-increasing, worst step {worst_step:+.3e}")
    assert passed, f"ratio_mean increased along the grid by {worst_step}"


def _ideal_ratio(cfg, su_sinr_db):
    """Mean SU/MU ratio under complete interference cancellation.

    Built from the channel SVDs alone: SU layer i has SINR (P/p) s_i^2 / sigma^2,
    the ideal MU layer P s_i^2 / (trace((V V^H)^-1) sigma^2). Returns the
    per-trial mean ratio and the mean beamforming-loss factor trace(.)/p.
    """
    ratios, losses = [], []
    for i in range(cfg.trials):
        scenario = Scenario(cfg.t, cfg.users, cfg.total_power, trial_seed(cfg.base_seed, i))
        channels = generate_channels(scenario)
        sigma2 = calibrate_noise(channels, su_sinr_db) ** 2
        gains, rows = [], []
        for h, (_, p_k) in zip(channels.matrices, cfg.users):
            _, s, vh = np.linalg.svd(h)
            gains.append(s[:p_k] ** 2)
            rows.append(vh[:p_k])
        gains = np.concatenate(gains)
        v = np.vstack(rows)
        loss = np.trace(np.linalg.inv(v @ v.conj().T)).real / gains.size
        su_sinr = cfg.total_power / gains.size * gains / sigma2
        su = np.sum(np.log2(1.0 + su_sinr))
        mu = np.sum(np.log2(1.0 + su_sinr / loss))
        ratios.append(su / mu)
        losses.append(loss)
    return float(np.mean(ratios)), float(np.mean(losses))


def test_criterion_06b_fig3_ratio_near_unity_at_40db(fig3_rows):
    cfg = parse_config((CONFIG_DIR / "fig3.cfg").read_text())
    ideal, loss = _ideal_ratio(cfg, 40.0)
    vals = {
        det: _by_scheme(fig3_rows, "ezf", det)[40.0].ratio_mean
        for det in ("mmse-irc", "qr-mld")
    }
    worst = max(vals.values(), key=lambda r: abs(r / ideal - 1.0))
    passed = abs(worst / ideal - 1.0) < 0.01
    detail = (
        f"fig3 ratio_mean(40 dB) = {worst:.7f} vs interference-free {ideal:.7f} "
        f"(beamforming loss {loss:.3f}; required within 1%)"
    )
    _report(6, passed, detail)
    assert passed, detail

    # Negative control: plain MMSE leaves the residual interference in place.
    mmse_cfg = dataclasses.replace(cfg, detectors=("mmse",), su_sinr_grid_db=(40.0,))
    (mmse_row,) = run_sweep(mmse_cfg)
    assert abs(mmse_row.ratio_mean / ideal - 1.0) >= 0.01, (
        f"plain MMSE ratio_mean(40 dB) = {mmse_row.ratio_mean:.7f} lies within 1% of "
        f"the interference-free {ideal:.7f}: the band does not separate the detectors"
    )


def test_criterion_07_fig4_saturation_vs_growth(fig4_rows):
    ezf = _by_scheme(fig4_rows, "ezf", "qr-mld")
    mrt = _by_scheme(fig4_rows, "mrt", "qr-mld")
    ezf_gain = ezf[40.0].mu_se_mean - ezf[30.0].mu_se_mean
    mrt_gain = mrt[40.0].mu_se_mean - mrt[30.0].mu_se_mean
    growth = ezf[40.0].mu_se_mean / ezf[10.0].mu_se_mean
    ok = (
        mrt_gain < 0.1 * ezf_gain
        and growth > 2.0
        and mrt_gain < 0.2  # frozen from the oracle run: measured 0.13
        and ezf_gain > 3.0  # frozen from the oracle run: measured 53.1
    )
    _report(
        7,
        ok,
        f"fig4 MRT gain(30->40) = {mrt_gain:.3f} vs EZF gain {ezf_gain:.2f} "
        f"(< 10% required), EZF mu(40)/mu(10) = {growth:.2f} (> 2 required)",
    )
    assert mrt_gain < 0.1 * ezf_gain
    assert growth > 2.0
    assert mrt_gain < 0.2
    assert ezf_gain > 3.0


def test_criterion_08_fig5_plain_mmse_saturation(fig5_rows, fig5_irc_rows):
    mmse = _by_scheme(fig5_rows, "ezf", "mmse")
    irc = _by_scheme(fig5_irc_rows, "ezf", "mmse-irc")
    mmse_gain = mmse[40.0].mu_se_mean - mmse[30.0].mu_se_mean
    irc_gain = irc[40.0].mu_se_mean - irc[30.0].mu_se_mean
    frac = mmse_gain / irc_gain
    ok = frac < 0.25
    _report(
        8,
        ok,
        f"fig5 EZF+MMSE gain(30->40) = {mmse_gain:.2f} = {100 * frac:.1f}% of "
        f"EZF+MMSE-IRC gain {irc_gain:.2f} (< 25% required)",
    )
    assert ok, f"plain-MMSE gain fraction {frac:.3f} >= 0.25"


def test_criterion_09_qr_mld_sic_end_to_end():
    # Monte-Carlo leg: 10^4 symbol vectors through the full noisy link.
    scenario = Scenario(t=64, users=((4, 2),) * 8, total_power=1.0, seed=1)
    channels = generate_channels(scenario)
    sigma = calibrate_noise(channels, 30.0)
    w, _ = rczf_precode(reduce_ezf(channels), 1.0)
    (stack,) = build_covariance(channels, w)
    r = stack.interference + sigma**2 * np.eye(4)
    c = qpsk()
    rng = np.random.default_rng(2024)
    n_vec = 10_000
    idx = rng.integers(0, 4, size=(16, n_vec))
    sent = c.points[idx]
    x = w @ sent
    errors = 0
    for k, h in enumerate(channels.matrices):
        y = h @ x + sigma * crandn(rng, 4, n_vec)
        out = qr_mld_detect(y, stack.effective[k], r[k], c)
        errors += int(np.sum(~np.isclose(out, sent[2 * k:2 * k + 2], atol=1e-9)))
    ser = errors / (16 * n_vec)

    # Exhaustive leg: triangular coupling 1.2. Sub-unit coupling can never
    # flip an equal-amplitude QPSK decision (per-axis perturbation c/sqrt(2)
    # against a decision distance of 1/sqrt(2)), so c > 1 is required for a
    # non-vacuous one-shot comparison.
    t = np.array([[1.0, 1.2], [0.0, 1.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    one_shot_failures = 0
    for s1 in c.points:
        for s2 in c.points:
            s = np.array([s1, s2])
            y = t @ s
            np.testing.assert_allclose(qr_mld_detect(y, t, eye, c), s, atol=1e-9)
            if not np.allclose(c.nearest(y), s, atol=1e-9):
                one_shot_failures += 1

    ok = ser < 1e-3 and one_shot_failures >= 1
    _report(
        9,
        ok,
        f"SER = {ser:.2e} over {16 * n_vec} symbols (< 1e-3 required); "
        f"SIC exact on all 16 coupled pairs, one-shot slicing fails {one_shot_failures}",
    )
    assert ser < 1e-3
    assert one_shot_failures >= 1


def test_sweep_curve_invariants(fig3_rows, fig4_rows, fig5_rows):
    """mu_se non-decreasing along the grid and ratio >= 1 on averaged curves."""
    for rows in (fig3_rows, fig4_rows, fig5_rows):
        assert all(r.ratio_mean >= 1.0 - 1e-9 for r in rows)
        schemes = {(r.precoder, r.detector) for r in rows}
        for precoder, detector in schemes:
            curve = _by_scheme(rows, precoder, detector)
            mu = [curve[db].mu_se_mean for db in sorted(curve)]
            assert all(b >= a for a, b in zip(mu, mu[1:])), (precoder, detector)


def test_criterion_10_csv_byte_determinism(tmp_path):
    text = (CONFIG_DIR / "fig3.cfg").read_text()
    cfg = parse_config(text)
    cfg = dataclasses.replace(
        cfg, trials=3, su_sinr_grid_db=(0.0, 20.0), output_path=str(tmp_path / "a.csv")
    )
    rows_a = run_sweep(cfg)
    rows_b = run_sweep(cfg)
    write_csv(rows_a, tmp_path / "a.csv")
    write_csv(rows_b, tmp_path / "b.csv")
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    same_text = rows_to_csv(rows_a) == rows_to_csv(rows_b)
    _report(10, identical and same_text, "two runs produce byte-identical CSV")
    assert identical and same_text
