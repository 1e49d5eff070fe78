"""Every cross-check of one profile, as ``verify-all`` runs them.

The checks compare the oracle's counts with the infinite product, the
path-count series, the bounded-part numerators and the two-variable
series; run the pivot, slice and tight-packing round trips on partitions
drawn from the oracle's hits; and add the functional equation and the two
lineup identities.  One oracle search serves both the counts and the
draws.  Only ``verify-all`` imports this module.

Every call goes through the attribute of the module that defines it, so
wrappers installed on those modules later (the benchmark's tracer) see it.
"""

from __future__ import annotations

import random
from typing import Callable

from . import bijection, diagram, lineups, oracle, polynomials, series, slices
from .core import Profile
from .series import Check


def verify_all_tasks(profile: Profile, order: int, seed: int) -> list[Callable[[], Check]]:
    """The verify-all checks of ``profile``, as callables that each return
    their named :class:`Check`; ``order`` bounds the compared series and
    ``seed`` draws the round trips' partitions."""
    rng = random.Random(seed)
    compare, refinement = series.compare, series.refinement
    # One search to ``order`` makes the census every count below reads and
    # keeps the rows of the hits to q^10, in search order, for the round
    # trips to draw from; only the partitions drawn are built.
    census, found = oracle._search(profile, order, min(order, 10))
    oracle._store(profile, order, census)

    def sample(items, k):
        drawn = items if len(items) <= k else rng.sample(items, k)
        return oracle._partitions(profile, drawn)

    # Drawn here, in a fixed order, so the seed alone picks each check's
    # partitions, whichever check a thread pool starts first.
    pivot_sample = sample(found, 400)
    slice_sample = sample(found, 400)
    tight_sample = sample([rows for rows in found if any(rows)], 300)

    def borodin_vs_oracle():
        a = oracle.count_series(profile, order)
        b = series.borodin_product(profile, order)
        work = f"the oracle enumerated {sum(a.coeffs)} partitions up to q^{order}"
        return compare("count-vs-product", a.coeffs, b.coeffs,
                       f"counts match the infinite product; {work}",
                       lambda k, x, y: f"first mismatch at q^{k}: oracle {x} "
                                       f"vs product {y}; {work}")

    def distinct_vs_oracle():
        a = oracle.count_distinct_series(profile, order)
        b = diagram.distinct_gf(profile, order)
        total = sum(oracle.count_series(profile, order).coeffs)
        work = (f"the oracle enumerated {total} partitions up to q^{order}, "
                f"{sum(a.coeffs)} into distinct parts")
        return compare("distinct-vs-oracle", a.coeffs, b.coeffs,
                       f"distinct-part counts match the path-count series; {work}",
                       lambda k, x, y: f"first mismatch at q^{k}: oracle {x} "
                                       f"vs path counts {y}; {work}")

    def bijection_roundtrip():
        name = "bijection-roundtrip"
        for cp in pivot_sample:
            mu, beta = bijection.pivot_decompose(cp)
            if bijection.pivot_reconstruct(mu, beta, profile) != cp:
                return Check(name, False, f"roundtrip broke on {cp.to_text()}")
        return Check(name, True, f"pivot roundtrip on {len(pivot_sample)} partitions")

    def slices_roundtrip():
        name = "slices-roundtrip"
        for cp in slice_sample:
            if slices.recompose(slices.decompose(cp)) != cp:
                return Check(name, False, f"slice roundtrip broke on {cp.to_text()}")
        return Check(name, True, f"slice roundtrip on {len(slice_sample)} partitions")

    def tight_packing_roundtrip():
        name = "tight-packing-roundtrip"
        for cp in tight_sample:
            chain = slices.decompose(cp)
            expanded = [s.lengths for s in chain.expanded()]
            for mode in slices.ShrinkMode:
                tight, side = slices.shrink(chain, mode)
                if chain.weight != sum(t.weight for t in tight) + side.weight:
                    return Check(name, False,
                                 f"weight bookkeeping broke on {cp.to_text()}")
                regrown = slices.expand(tight, side, mode)
                if [s.lengths for s in regrown] != expanded:
                    return Check(name, False, f"tight packing broke on {cp.to_text()}")
        return Check(name, True,
                     f"tight packing roundtrip on {len(tight_sample)} partitions")

    def bounded_polys():
        # Passes when no table failed and some table compared a nonzero
        # coefficient past q^0; n/a when no table did.  The counts
        # with largest part n are the z^n column of the two-variable count,
        # and those with every part <= n the sum of its columns up to z^n.
        counted = oracle.count_bivariate(profile, order).coeffs
        at_most = [0] * (order + 1)
        passed = None
        for n in range(min(4, order) + 1):
            exactly = [zpoly.coefficient(n) for zpoly in counted]
            at_most = [a + b for a, b in zip(at_most, exactly)]
            for label, poly_series, count in (
                    (f"parts<= {n}", polynomials.parts_at_most_series, at_most),
                    (f"largest={n}", polynomials.largest_part_exact_series, exactly)):
                check = compare("bounded-polynomials",
                                poly_series(profile, n, order).coeffs, count,
                                "bounded-part numerators match the oracle",
                                lambda k, x, y: f"{label} numerator mismatch at "
                                                f"q^{k}: polynomial {x} vs oracle {y}")
                if check.ok is False:
                    return check
                passed = check if check.ok else passed
        return passed or check

    def two_variable():
        name = "two-variable-series"
        passed = "two-variable series matches oracle and product"
        F = polynomials.f_truncated(profile, order)
        check = compare(name, series.at_z_one(F).coeffs,
                        series.borodin_product(profile, order).coeffs, passed,
                        lambda k, x, y: f"z=1 specialization disagrees with the "
                                        f"product at q^{k}: series {x} vs product {y}")
        if not check.ok:
            return check
        counted = oracle.count_bivariate(profile, order)
        return compare(name, F.coeffs, counted.coeffs, passed,
                       refinement(lambda k, m, a, b: f"largest-part refinement "
                                                     f"disagrees with the oracle at "
                                                     f"q^{k} z^{m}: series {a} vs "
                                                     f"oracle {b}"))

    return [
        borodin_vs_oracle,
        distinct_vs_oracle,
        bijection_roundtrip,
        slices_roundtrip,
        tight_packing_roundtrip,
        bounded_polys,
        two_variable,
        lambda: polynomials.check_functional_equation(profile, min(order, 10)),
        lambda: lineups.lemma_check(2, profile, min(order, 12)),
        lambda: lineups.qconj_genfunc_check(profile, min(order, 10), 2),
    ]
