import itertools

import pytest

from cylpart import CylindricPartition, Profile, enumerate_by_weight


def all_profiles(max_rank: int, max_level: int) -> list[Profile]:
    """Every profile with rank <= max_rank and 1 <= level <= max_level."""
    out = []
    for r in range(1, max_rank + 1):
        for level in range(1, max_level + 1):
            for parts in itertools.product(range(level + 1), repeat=r):
                if sum(parts) == level:
                    out.append(Profile(parts))
    return out


@pytest.fixture(scope="session")
def small_profiles() -> list[Profile]:
    return all_profiles(3, 3)


@pytest.fixture(scope="session")
def small_enumerations(small_profiles) -> dict[Profile, list[CylindricPartition]]:
    """Every cylindric partition of weight <= 12 for each small profile,
    enumerated once per session; the values are immutable, so tests share
    them."""
    return {prof: enumerate_by_weight(prof, 12) for prof in small_profiles}
