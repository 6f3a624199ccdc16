"""The stacked, noise-split detector core against a per-user numpy oracle.

The sweep and `su_mu_report` stack users by shape; `detection.filters`
factors a detector's noise-free matrix once per call and takes every noise
level as a shift of its eigenvalues. The oracle here rebuilds each user's
covariance R_k = sum_{j != k} H_k W_j W_j^H H_k^H + sigma^2 I directly and
solves it per user with `np.linalg.solve`; it uses nothing from
`mimosim.detection`.
"""

import numpy as np
import pytest

from mimosim.detection import build_covariance, filters
from mimosim.errors import SingularMatrixError
from mimosim.metrics import (
    DETECTOR_SCHEMES,
    effective_links,
    parse_detector_scheme,
    sinr_per_layer,
    su_mu_report,
)
from mimosim.precoding import mrt_precode, rczf_precode, reduce_ezf
from mimosim.system import Scenario, calibrate_noise, generate_channels

from conftest import stack_filters

SCENARIO = Scenario(t=32, users=((4, 2),) * 3 + ((2, 1),) * 2 + ((8, 4),), seed=3)
SCHEMES = DETECTOR_SCHEMES + ("gen-lse(0.1)", "gen-lse(10)")
GRID_DB = (0.0, 10.0, 20.0, 30.0, 40.0)
RTOL = 1e-10
PRECODERS = {"ezf": lambda channels, power: rczf_precode(reduce_ezf(channels), power),
             "mrt": mrt_precode}


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
    w, _ = PRECODERS[precoder_name](channels, SCENARIO.total_power)
    starts = np.cumsum((0,) + SCENARIO.layer_counts)
    blocks = np.split(w, starts[1:-1], axis=1)
    stacks = build_covariance(channels, w)
    assert [len(s.users) for s in stacks] == [3, 2, 1]
    for db in GRID_DB:
        sigma = calibrate_noise(channels, db)
        filters, sinrs = {}, {}
        for stack in stacks:
            g = stack_filters(stack, scheme, sigma**2)
            sinr = sinr_per_layer(effective_links(stack, g), stack.starts, g, sigma)
            filters.update(zip(stack.users, g))
            sinrs.update(zip(stack.users, sinr))
        oracle_se = 0.0
        for k, h in enumerate(channels.matrices):
            a = h @ blocks[k]
            r_int = sum(h @ b @ _h(b) @ _h(h) for j, b in enumerate(blocks) if j != k)
            g0 = oracle_filter(scheme, a, r_int, sigma)
            where = f"{precoder_name}/{scheme} at {db} dB, user {k}"
            err = np.linalg.norm(filters[k] - g0) / np.linalg.norm(g0)
            assert err <= RTOL, f"{where}: filter relative error {err:.3g}"
            sinr0 = oracle_sinr(g0, h, w, starts[k], sigma)
            np.testing.assert_allclose(sinrs[k], sinr0, rtol=RTOL, atol=0.0, err_msg=where)
            oracle_se += float(np.sum(np.log2(1.0 + sinr0)))
        report = su_mu_report(channels, precoder_name, scheme, sigma)
        np.testing.assert_allclose(
            report.mu_se, oracle_se, rtol=RTOL, atol=0.0,
            err_msg=f"{precoder_name}/{scheme} at {db} dB: mu_se",
        )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("precoder_name", ["ezf", "mrt"])
def test_grid_filters_equal_each_points_filters(precoder_name, scheme):
    # The sweep's one call over the grid, bit for bit against a one-point
    # grid and against the scalar noise power the detector functions pass.
    channels = generate_channels(SCENARIO)
    stacks = build_covariance(channels, PRECODERS[precoder_name](channels, 1.0)[0])
    s2 = np.array([calibrate_noise(channels, db) ** 2 for db in GRID_DB])
    for stack in stacks:
        grid = stack_filters(stack, scheme, s2)
        n, q, p = stack.effective.shape
        assert grid.shape == (len(GRID_DB), n, p, q)
        for i in range(len(GRID_DB)):
            one_point = stack_filters(stack, scheme, s2[i:i + 1])[0]
            assert grid[i].tobytes() == one_point.tobytes(), (scheme, i)
            assert grid[i].tobytes() == stack_filters(stack, scheme, s2[i]).tobytes(), (scheme, i)


def test_unknown_scheme_raises_instead_of_running_another():
    channels = generate_channels(SCENARIO)
    stack = build_covariance(channels, PRECODERS["ezf"](channels, 1.0)[0])[0]
    with pytest.raises(KeyError, match="sphere"):
        filters("sphere", 1.0, stack.users, stack.effective, stack.interference, 0.01)


def _later_seed_singular():
    """Links of users 3 and 5 at two seeds, 4x2 each; R0 is I at seed 0 and 0 at seed 1."""
    a = np.random.default_rng(0).standard_normal((2, 2, 4, 2)) + 0j
    r0 = np.zeros((2, 2, 4, 4), complex)
    r0[0] = np.eye(4)
    return a, r0


@pytest.mark.parametrize("s2", [0.0, np.zeros(1), np.zeros((1, 2))], ids=["scalar", "G", "GxS"])
def test_guard_names_a_later_seeds_user_for_any_noise_layout(s2):
    # mmse-irc fails only at seed 1 (rank 2 in 4 dimensions, no interference): the guard
    # names its first user whether the noise powers carry the seed axis or not.
    a, r0 = _later_seed_singular()
    with pytest.raises(SingularMatrixError, match="^user 3: signal-plus-noise covariance is"):
        filters("mmse-irc", 1.0, [3, 5], a, r0, s2)


def test_guard_reports_the_failing_grid_points_noise_power():
    # Plain mmse fails only at the second grid point, sigma^2 = 0, at both seeds.
    a, _ = _later_seed_singular()
    with pytest.raises(SingularMatrixError, match=r"^user 3: .* and sigma\^2=0 is too small"):
        filters("mmse", 1.0, [3, 5], a, None, np.array([1e-2, 0.0]))
