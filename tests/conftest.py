from pathlib import Path

import numpy as np
import pytest

from mimosim.system import ChannelSet, Scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def single_user(channels: ChannelSet, k: int) -> ChannelSet:
    """User k's channel alone, with the same antennas, power budget and seed."""
    s = channels.scenario
    return ChannelSet(Scenario(s.t, (s.users[k],), s.total_power, s.seed), (channels.matrices[k],))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
