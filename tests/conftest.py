import itertools

import pytest

from cylpart import (CylindricPartition, Profile, TruncatedSeries, count_bivariate,
                     enumerate_by_weight)


def all_profiles(max_rank: int, max_level: int) -> list[Profile]:
    """Every profile with rank <= max_rank and 1 <= level <= max_level."""
    out = []
    for r in range(1, max_rank + 1):
        for level in range(1, max_level + 1):
            for parts in itertools.product(range(level + 1), repeat=r):
                if sum(parts) == level:
                    out.append(Profile(parts))
    return out


def mul_one_plus(series: TruncatedSeries, e: int, factor) -> TruncatedSeries:
    """``series`` times (1 + factor * q^e), for e >= 1: the factor the
    product references in the tests are built from."""
    factor = series.ring.coerce(factor)
    cs = list(series.coeffs)
    for i in range(series.order, e - 1, -1):
        cs[i] = cs[i] + factor * series.coeffs[i - e]
    return TruncatedSeries(series.ring, series.order, tuple(cs))


def largest_part_counts(profile: Profile, n: int, order: int) -> tuple[tuple, tuple]:
    """The counts by weight to q^order of the cylindric partitions with
    every part <= n and of those with largest part exactly n: the sum of
    the z^0..z^n columns of ``count_bivariate`` and its z^n column."""
    two = count_bivariate(profile, order).coeffs
    return (tuple(sum(zpoly.coeffs[:n + 1]) for zpoly in two),
            tuple(zpoly.coefficient(n) for zpoly in two))


@pytest.fixture(scope="session")
def small_profiles() -> list[Profile]:
    return all_profiles(3, 3)


@pytest.fixture(scope="session")
def small_enumerations(small_profiles) -> dict[Profile, list[CylindricPartition]]:
    """Every cylindric partition of weight <= 12 for each small profile,
    enumerated once per session; the values are immutable, so tests share
    them."""
    return {prof: enumerate_by_weight(prof, 12) for prof in small_profiles}
