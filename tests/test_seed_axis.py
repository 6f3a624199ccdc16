"""Seed-stacked stages against their one-seed functions.

`system.generate_groups`, `precoding.ezf_groups`, `precoding.zero_forcing`,
`precoding.matched_filter`, `detection.user_stacks` and `detection.reference_ic`
take a leading seed axis; `generate_channels`, `reduce_ezf`, `rczf_precode`,
`mrt_precode`, `build_covariance` and `reference_ic` at one scale are their
one-seed cases. `detection.filters` and `metrics.mu_report` take a (G, S)
noise grid for S seeds. Over random scenarios, seed i of each stacked stage
must equal the one-seed function at seed i bit for bit, and the stacked
zero-forcing precoders must null every cross link.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings

from mimosim.detection import build_covariance, reference_ic, user_stacks
from mimosim.metrics import DETECTOR_SCHEMES, mu_report, su_spectral_efficiency
from mimosim.precoding import (
    ezf_groups,
    matched_filter,
    mrt_precode,
    precode,
    rczf_precode,
    reduce_ezf,
    zero_forcing,
)
from mimosim.system import (
    Scenario,
    generate_channels,
    generate_groups,
    noise_for_target,
    su_layer_gains,
    ungroup,
)

from conftest import per_user, scenarios, stack_filters


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _stacks(groups, scenario: Scenario, precoder: str) -> tuple:
    """The sweep's user stacks of one precoder scheme."""
    return user_stacks(groups, scenario.layer_counts, precode(groups, scenario, precoder)[0])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(scenarios())
def test_seed_stacked_stages_equal_each_seeds_functions(case):
    scenario, seeds = case
    groups = generate_groups(scenario, seeds)
    reduced = ezf_groups(groups, scenario.layer_counts)
    # Every seed's reduced channels stacked in user order: (seeds, layers, t).
    v = np.concatenate(ungroup((users, vg.swapaxes(0, 1)) for users, vg, _ in reduced), axis=-2)
    zf, mrt = zero_forcing(v), matched_filter(v)
    stacks = {"zf": user_stacks(groups, scenario.layer_counts, zf[0]),
              "mrt": user_stacks(groups, scenario.layer_counts, mrt[0])}
    refs = reference_ic(reduced, zf[1])
    for i, seed in enumerate(seeds):
        channels = generate_channels(dataclasses.replace(scenario, seed=seed))
        one_reduced = reduce_ezf(channels)
        one_v, one_b = per_user(one_reduced)
        for (users, h, u, s), (_, vg, bg), (_, one_h, one_u, one_s) in zip(
            groups, reduced, channels.groups
        ):
            assert _same(h[i], one_h) and _same(u[i], one_u) and _same(s[i], one_s)
            for j, k in enumerate(users):
                assert _same(vg[i, j], one_v[k])
                assert _same(bg[i, j], one_b[k])
        precoders = {"zf": (zf, rczf_precode(one_reduced)),
                     "mrt": (mrt, mrt_precode(channels))}
        for name, ((w, scales), (one_w, one_scale)) in precoders.items():
            assert _same(w[i], one_w) and scales[i] == one_scale, name
            for stack, one in zip(stacks[name], build_covariance(channels, one_w)):
                assert np.array_equal(stack.users, one.users)
                assert np.array_equal(stack.starts, one.starts)
                for field in ("links", "effective", "interference"):
                    assert _same(getattr(stack, field)[i], getattr(one, field)), (name, field)
        # Each seed's reference filters are its own B_k / scale.
        for (users, g), (one_users, one_g) in zip(refs, reference_ic(one_reduced, zf[1][i])):
            assert np.array_equal(users, one_users) and _same(g[i], one_g)
    # V_i W_j = scale * delta_ij I: each seed's V W is its scaled identity.
    w, scales = zf
    gram = v @ w / scales[:, np.newaxis, np.newaxis]
    assert np.abs(gram - np.eye(v.shape[-2])).max() < 1e-10


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(scenarios())
def test_seed_stacked_reports_equal_each_seeds_reports(case):
    # S seeds under a (G, S) noise grid: filters and reports at seed i are the
    # one-seed calls at seed i's (G,) noise levels, bit for bit.
    scenario, seeds = case
    groups = generate_groups(scenario, seeds)
    gains = su_layer_gains(scenario, groups)
    sigma = np.array([[noise_for_target(power, db) for power in np.mean(gains, axis=-1)]
                      for db in (0.0, 15.0, 30.0)])
    su_se = su_spectral_efficiency(gains, sigma)
    one = [generate_channels(dataclasses.replace(scenario, seed=seed)) for seed in seeds]
    for precoder in ("ezf", "mrt"):
        stacks = _stacks(groups, scenario, precoder)
        one_stacks = [_stacks(channels.groups, channels.scenario, precoder) for channels in one]
        for detector in DETECTOR_SCHEMES:
            filters = [stack_filters(stack, detector, sigma**2) for stack in stacks]
            reports = mu_report(stacks, detector, sigma, su_se)
            for i, one_stack in enumerate(one_stacks):
                for g, stack in zip(filters, one_stack):
                    np.testing.assert_array_equal(
                        g[:, i], stack_filters(stack, detector, sigma[:, i] ** 2))
                one_reports = mu_report(one_stack, detector, sigma[:, i], su_se[:, i])
                assert len(reports) == len(one_reports) == 4
                for report, one_report in zip(reports, one_reports):
                    np.testing.assert_array_equal(report[:, i], one_report)


def test_power_scale_divides_by_each_flattened_norm():
    """Each seed's scale is 1 / np.linalg.norm(W0) of its flattened W0, as for
    a lone matrix; a Frobenius norm over the last two axes differs from it by an ulp
    on some of these seeds."""
    scenario = Scenario(64, ((4, 2),) * 8)
    ((_, v, _),) = ezf_groups(generate_groups(scenario, range(1, 11)), scenario.layer_counts)
    v = v.reshape(10, 16, 64)
    u, s, vh = np.linalg.svd(v, full_matrices=False)
    pinv = vh.conj().swapaxes(-1, -2) @ ((1.0 / s)[..., np.newaxis] * u.conj().swapaxes(-1, -2))
    for precode, w0 in ((zero_forcing, pinv), (matched_filter, v.conj().swapaxes(-1, -2))):
        w, scales = precode(v)
        flat = np.array([1.0 / np.linalg.norm(m) for m in w0])
        assert scales.tobytes() == flat.tobytes(), precode.__name__
        assert w.tobytes() == (flat[:, np.newaxis, np.newaxis] * w0).tobytes()
        assert not np.array_equal(scales, 1.0 / np.linalg.norm(w0, axis=(-2, -1)))
