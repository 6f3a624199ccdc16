from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from mimosim.detection import filters
from mimosim.metrics import parse_detector_scheme
from mimosim.system import ChannelSet, Scenario, ungroup

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def per_user(reduced) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The users' V_k and B_k in user order, from a (users, V, B) per group reduction."""
    return (ungroup((users, v) for users, v, _ in reduced),
            ungroup((users, b) for users, _, b in reduced))


def blocks(w: np.ndarray, reduced) -> list[np.ndarray]:
    """The users' W_k (t x p_k): the stacked W split by the reduction's layer counts."""
    ends = np.cumsum([len(v) for v in per_user(reduced)[0]])[:-1]
    return np.split(w, ends, axis=1)


def stack_filters(stack, scheme: str, s2) -> np.ndarray:
    """`detection.filters` of a scheme token such as "gen-lse(0.1)" on a user stack."""
    base, lam = parse_detector_scheme(scheme)
    return filters(base, lam, stack.users, stack.effective, stack.interference, s2)


def single_user(channels: ChannelSet, k: int) -> ChannelSet:
    """User k's channel alone, with the same antennas and seed."""
    s = channels.scenario
    return ChannelSet(Scenario(s.t, (s.users[k],), s.seed), (channels.matrices[k],))


@st.composite
def scenarios(draw):
    """A scenario with p_k <= q_k <= t and sum(p_k) <= t, and 1-3 distinct seeds."""
    t = draw(st.integers(2, 12))
    users, layers = [], 0
    for _ in range(draw(st.integers(1, 4))):
        if layers == t:
            break
        q = draw(st.integers(1, min(t, 5)))
        p = draw(st.integers(1, min(q, t - layers)))
        users.append((q, p))
        layers += p
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3, unique=True))
    return Scenario(t, tuple(users)), tuple(seeds)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
