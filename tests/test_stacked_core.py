"""The stacked, noise-split detector core against a per-user numpy oracle.

The sweep and `su_mu_report` stack users by shape, factor each detector's
noise-free matrix once and take every noise level as a shift of its
eigenvalues. The oracle here rebuilds each user's covariance
R_k = sum_{j != k} H_k W_j W_j^H H_k^H + sigma^2 I directly and solves it per
user with `np.linalg.solve`; it uses nothing from `mimosim.detection`.
"""

import numpy as np
import pytest

from mimosim.detection import build_covariance
from mimosim.metrics import (
    DETECTOR_SCHEMES,
    make_precoder,
    parse_detector_scheme,
    stacked_detectors,
    su_mu_report,
)
from mimosim.system import Scenario, calibrate_noise, generate_channels

SCENARIO = Scenario(t=32, users=((4, 2),) * 3 + ((2, 1),) * 2 + ((8, 4),), seed=3)
SCHEMES = DETECTOR_SCHEMES + ("gen-lse(0.1)", "gen-lse(10)")
GRID_DB = (0.0, 10.0, 20.0, 30.0, 40.0)
RTOL = 1e-10


def _h(m):
    return m.conj().T


def oracle_filter(scheme, a, r_int, sigma):
    """Per-user filter from its textbook formula."""
    base, lam = parse_detector_scheme(scheme)
    q = a.shape[0]
    if base == "mmse":
        return _h(np.linalg.solve(a @ _h(a) + sigma**2 * np.eye(q), a))
    r = r_int + sigma**2 * np.eye(q)
    if base in ("mmse-irc", "gen-lse"):
        return _h(np.linalg.solve(a @ _h(a) + lam * r, a))
    # lse-limit and the linear part of qr-mld: whitened least squares.
    rinv_a = np.linalg.solve(r, a)
    return np.linalg.solve(_h(a) @ rinv_a, _h(rinv_a))


def oracle_sinr(g, h, w_stacked, start, sigma):
    """Per-layer SINR: own diagonal against own off-diagonal, cross columns and noise."""
    link = g @ h @ w_stacked
    p = g.shape[0]
    out = []
    for i in range(p):
        signal = abs(link[i, start + i]) ** 2
        self_leak = np.sum(np.abs(link[i, start:start + p]) ** 2) - signal
        cross = np.sum(np.abs(link[i, :start]) ** 2) + np.sum(np.abs(link[i, start + p:]) ** 2)
        noise = sigma**2 * np.sum(np.abs(g[i]) ** 2)
        out.append(signal / (self_leak + cross + noise))
    return np.array(out)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("precoder_name", ["ezf", "mrt"])
def test_stacked_core_matches_per_user_oracle(precoder_name, scheme):
    channels = generate_channels(SCENARIO)
    precoder = make_precoder(channels, precoder_name, SCENARIO.total_power)
    blocks, w = precoder.blocks, precoder.stacked
    starts = np.cumsum((0,) + SCENARIO.layer_counts)
    stacks = build_covariance(channels, precoder)
    assert [len(s.users) for s in stacks] == [3, 2, 1]
    cores = stacked_detectors(stacks, scheme)
    for db in GRID_DB:
        noise = calibrate_noise(channels, db)
        filters = {}
        for stack, core in zip(stacks, cores):
            filters.update(zip(stack.users, core.filters(noise.sigma**2)))
        report = su_mu_report(channels, precoder_name, scheme, noise)
        for k, h in enumerate(channels.matrices):
            a = h @ blocks[k]
            r_int = sum(h @ b @ _h(b) @ _h(h) for j, b in enumerate(blocks) if j != k)
            g0 = oracle_filter(scheme, a, r_int, noise.sigma)
            where = f"{precoder_name}/{scheme} at {db} dB, user {k}"
            err = np.linalg.norm(filters[k] - g0) / np.linalg.norm(g0)
            assert err <= RTOL, f"{where}: filter relative error {err:.3g}"
            np.testing.assert_allclose(
                report.sinr[k], oracle_sinr(g0, h, w, starts[k], noise.sigma),
                rtol=RTOL, atol=0.0, err_msg=where,
            )
