"""Each library error branch that no other test reaches raises its exact text."""

import numpy as np
import pytest

from mimosim import linalg
from mimosim.detection import (
    build_covariance,
    gen_lse,
    lse_limit,
    plain_mmse,
    qpsk,
    qr_mld_detect,
    qr_mld_linear,
    qr_mld_parts,
    reference_ic,
    user_stacks,
)
from mimosim.errors import (
    ConfigError,
    DecompositionError,
    DimensionMismatchError,
    InvalidInputError,
    NeedsExternalNoiseError,
    SingularMatrixError,
)
from mimosim.experiment import SweepConfig, parse_config
from mimosim.metrics import parse_detector_scheme, su_mu_report
from mimosim.precoding import custom_reduction, reduce_ezf
from mimosim.system import (
    ChannelSet,
    Scenario,
    calibrate_noise,
    generate_channels,
    noise_for_target,
)

CONFIG = "t = 16\nusers = 4x2\ngrid = 0:10:5\nprecoders = ezf\ndetectors = mmse\n"
SCENARIO = Scenario(16, ((4, 2),))
LINK = np.eye(4)[np.newaxis, :, :2]
TWO_USERS = generate_channels(Scenario(16, ((4, 2), (4, 2))))
PRECODER_FAULTS = {"1d": np.ones(16), "3-columns": np.ones((16, 3)),
                   "inf": np.full((16, 4), np.inf)}


def config(old: str, new: str):
    """`parse_config` of CONFIG with `old` replaced by `new`."""
    assert old in CONFIG
    return lambda: parse_config(CONFIG.replace(old, new))


def stacked(fault: str):
    """`build_covariance` and `user_stacks` of TWO_USERS under a faulty precoder."""
    w = PRECODER_FAULTS[fault]
    return {"build-covariance": lambda: build_covariance(TWO_USERS, w),
            "user-stacks": lambda: user_stacks(TWO_USERS.groups, (2, 2), w)}


def nan_reducing_map():
    """`reference_ic` on the eigen reduction of TWO_USERS with a NaN in user 1's B."""
    ((users, v, b),) = reduce_ezf(TWO_USERS)
    b = b.copy()
    b[1, 0, 0] = np.nan
    return reference_ic(((users, v, b),), 1.0)


def sweep_config(**fields):
    """A `SweepConfig` of CONFIG's values with `fields` replaced."""
    values = dict(t=16, users=((4, 2),), su_sinr_grid_db=(0.0,),
                  precoders=("ezf",), detectors=("mmse",), trials=1, base_seed=1,
                  output_path="x.csv")
    return lambda: SweepConfig(**(values | fields))


ERRORS = {
    "users-empty-group": (config("4x2", "4x2,"), ConfigError,
                          "line 2: empty user group in 'users'"),
    "users-bad-repeat": (config("4x2", "4x2 *x"), ConfigError,
                         "line 2: bad repeat count in 'users' group '4x2 *x'"),
    "users-zero-repeat": (config("4x2", "4x2 *0"), ConfigError,
                          "line 2: repeat count must be >= 1 in 'users'"),
    "users-not-qxp": (config("4x2", "4y2"), ConfigError,
                      "line 2: 'users' groups must look like 'QxP' or 'QxP *N'"),
    "users-non-integer": (config("4x2", "4xa"), ConfigError,
                          "line 2: non-integer antenna/layer count in 'users'"),
    "grid-malformed": (config("0:10:5", "0:a:5"), ConfigError,
                       "line 3: malformed number in 'grid'"),
    "grid-non-finite": (config("0:10:5", "0:inf:5"), ConfigError,
                        "line 3: 'grid' values must be finite"),
    "grid-stop-below-start": (config("0:10:5", "10:0:5"), ConfigError,
                              "line 3: 'grid' stop must be >= start"),
    "power-malformed": (config("t = 16\n", "t = 16\npower = abc\n"), ConfigError,
                        "line 2: malformed number for key 'power': 'abc'"),
    "power-non-finite": (config("t = 16\n", "t = 16\npower = nan\n"), ConfigError,
                         "line 2: key 'power' must be finite"),
    "power-not-one": (config("t = 16\n", "t = 16\npower = 2.5\n"), ConfigError,
                      "line 2: key 'power' must be 1.0, got '2.5'"),
    "line-without-equals": (config("t = 16\n", "t 16\n"), ConfigError,
                            "line 1: expected 'key = value', got 't 16'"),
    "empty-value": (config("t = 16\n", "t =\n"), ConfigError, "line 1: empty value for key 't'"),
    "sweep-empty-grid": (sweep_config(su_sinr_grid_db=()), ConfigError, "grid must be non-empty"),
    "sweep-no-precoder": (sweep_config(precoders=()), ConfigError,
                          "at least one precoder and one detector required"),
    "sweep-unknown-precoder": (sweep_config(precoders=("rzf",)), ConfigError,
                               "unknown precoder 'rzf' (expected one of zf, ezf, mrt)"),
    "as-cmatrix-1d": (lambda: linalg.as_cmatrix(np.ones(3)), InvalidInputError,
                      "matrix must be at least 2-D, got ndim=1"),
    "cholesky-non-square": (lambda: linalg.cholesky(np.ones((2, 3))), DecompositionError,
                            "Cholesky input must be square, got (2, 3)"),
    "gen-lse-parameter": (lambda: parse_detector_scheme("gen-lse(abc)"), ConfigError,
                          "bad gen-lse parameter in 'gen-lse(abc)'"),
    "scenario-no-users": (lambda: Scenario(16, ()), InvalidInputError,
                          "scenario needs at least one user"),
    "channels-count": (lambda: ChannelSet(SCENARIO, ()), InvalidInputError,
                       "one channel matrix per user required"),
    "channels-nan": (lambda: ChannelSet(SCENARIO, (np.full((4, 16), np.nan),)),
                     InvalidInputError, "user 0: channel has non-finite entries"),
    "qr-mld-indefinite": (lambda: qr_mld_parts(np.eye(4)[:, :2], -np.eye(4)),
                          NeedsExternalNoiseError,
                          "covariance is not positive definite; add external noise"),
    "qr-mld-detect-length": (lambda: qr_mld_detect(np.ones(3), np.eye(4)[:, :2], np.eye(4),
                                                   qpsk()),
                             DimensionMismatchError,
                             "received vector length 3 does not match q_k=4"),
    "qr-mld-detect-non-finite": (lambda: qr_mld_detect(np.full(4, np.nan), np.eye(4)[:, :2],
                                                       np.eye(4), qpsk()),
                                 InvalidInputError, "received vector contains non-finite entries"),
    # A noise level, SINR target or regularizer weight is a real number, and a bool is not one
    # (as it is not a count).
    "calibrate-noise-bool": (lambda: calibrate_noise(generate_channels(SCENARIO), True),
                             InvalidInputError, "su_sinr_db must be finite, got True"),
    "noise-for-target-bool": (lambda: noise_for_target(1.0, np.True_), InvalidInputError,
                              "su_sinr_db must be finite, got True"),
    "su-mu-report-bool": (lambda: su_mu_report(generate_channels(SCENARIO), "ezf", "mmse", True),
                          InvalidInputError, "sigma must be finite and >= 0, got True"),
    "plain-mmse-bool": (lambda: plain_mmse(LINK, np.True_), InvalidInputError,
                        "sigma must be finite and >= 0, got True"),
    "gen-lse-bool": (lambda: gen_lse(LINK, np.eye(4)[np.newaxis], True), InvalidInputError,
                     "lam must be finite and > 0, got True"),
    "noise-for-target-none": (lambda: noise_for_target(1.0, None), InvalidInputError,
                              "su_sinr_db must be finite, got None"),
    "plain-mmse-str": (lambda: plain_mmse(LINK, "abc"), InvalidInputError,
                       "sigma must be finite and >= 0, got abc"),
    "gen-lse-complex": (lambda: gen_lse(LINK, np.eye(4)[np.newaxis], 1 + 0j), InvalidInputError,
                        "lam must be finite and > 0, got (1+0j)"),
    # A covariance whose Hermitian part is indefinite has no whitener, whichever one is given.
    "qr-mld-whitener-indefinite": (lambda: qr_mld_parts(np.eye(4)[:, :2], -np.eye(4),
                                                        whitener=np.eye(4)),
                                   NeedsExternalNoiseError,
                                   "covariance is not positive definite; add external noise"),
    **{f"{name}-{fault}": (call, error, text)
       for fault, error, text in (
           ("1d", InvalidInputError, "precoder must be at least 2-D, got ndim=1"),
           ("3-columns", DimensionMismatchError, "precoder shape (16, 3) is not (t=16, p=4)"),
           ("inf", InvalidInputError, "precoder contains non-finite entries"))
       for name, call in stacked(fault).items()},
    "custom-reduction-nan": (lambda: custom_reduction(TWO_USERS, (np.eye(4)[:2],
                                                                  np.full((2, 4), np.nan))),
                             InvalidInputError, "user 1: reducer contains non-finite entries"),
    "reference-ic-nan": (nan_reducing_map, InvalidInputError,
                         "user 1: reducing map has non-finite entries"),
    # An overflow is named where it happens: (1e-300 I)^{-1} of 1e10 is not finite.
    "solve-shifted-overflow": (lambda: linalg.solve_shifted(linalg.eigh(1e-300 * np.eye(2)),
                                                            1e10 * np.ones((2, 1)),
                                                            names=["user 5"]),
                               SingularMatrixError,
                               "solution overflows to non-finite entries (user 5)"),
    "lse-limit-overflow": (lambda: lse_limit(1e10 * LINK, 1e-300 * np.eye(4)[np.newaxis]),
                           SingularMatrixError,
                           "solution overflows to non-finite entries (user 0)"),
    # A subnormal link passes every guard, but T^{-1} overflows to inf.
    "filter-non-finite": (lambda: qr_mld_linear(1e-310 * np.eye(4)[np.newaxis, :, :2],
                                                np.eye(4)[np.newaxis]),
                          InvalidInputError, "user 0: detector filter has non-finite entries"),
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))
    if case == "filter-non-finite" else case
    for case in ERRORS
])
def test_error_branch_raises_its_text(case):
    call, error, text = ERRORS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text


@pytest.mark.parametrize("power", ["1", "1.0", "1e0"])
def test_unit_power_parses(power):
    # Precoders have unit power; the key stays only as 1.0, however it is written.
    assert parse_config(CONFIG + f"power = {power}\n") == parse_config(CONFIG)
