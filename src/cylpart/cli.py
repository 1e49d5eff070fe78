"""Command-line front end.

Every computation and every identity check is a subcommand, so the tool
slots into CI pipelines.  Exit codes:

* 0 -- success;
* 1 -- a verification subcommand found a mismatch (naming the first bad
  coefficient with both values);
* 2 -- usage error: bad arguments, malformed input or an invalid partition;
* 3 -- internal error: any other exception, reported on one stderr line;
* 141 -- the reader closed stdout early (128 + SIGPIPE, as a shell shows a
  tool killed by SIGPIPE); nothing is written to stderr.

JSON output carries ``"schema": 1`` and serializes big integers as
strings.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

# ``import cylpart`` loads only core and slices; every other module is
# reached through the package, which imports it on first access.
import cylpart

from . import core
from .core import Partition, Profile, parse_cylindric, parse_profile
from .slices import (ShrinkMode, decompose as slice_decompose, expand, recompose,
                     shrink, slice_shape)

SCHEMA = 1


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[list] | None = None):
    if args.format == "json":
        payload["schema"] = SCHEMA
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        for line in text_lines:
            print(line)


def _emit_each(args, payload: dict, text_lines: list[str]):
    """:func:`_emit` for one of the partitions read by :func:`_partitions_from`:
    JSON read from ``-`` is JSON Lines, one compact document per input line."""
    if args.format == "json" and args.partition == "-":
        payload["schema"] = SCHEMA
        print(json.dumps(payload))
    else:
        _emit(args, payload, text_lines)


def _partitions_from(args) -> list[core.CylindricPartition]:
    profile = parse_profile(args.profile) if args.profile else None
    if args.partition == "-":
        texts = [line.strip() for line in sys.stdin if line.strip()]
    else:
        texts = [args.partition]
    return [parse_cylindric(t, profile) for t in texts]


def cmd_enumerate(args) -> int:
    profile = parse_profile(args.profile)
    found = cylpart.oracle.enumerate_by_weight(profile, args.order)
    lines = [cp.to_text() for cp in found]
    _emit(args, {"command": "enumerate", "profile": list(profile.parts),
                 "order": args.order, "partitions": lines},
          lines, [[t] for t in lines])
    return 0


# Each series subcommand names the (module, function) that builds its
# series from (profile, order).  Both are looked up when the command runs,
# so only that module is loaded, and wrappers installed later on the module
# (the benchmark's tracer) see every call.
_SERIES_COMMANDS = {"count": ("oracle", "count_series"),
                    "borodin": ("series", "borodin_product"),
                    "distinct-gf": ("diagram", "distinct_gf")}


def cmd_series(args) -> int:
    profile = parse_profile(args.profile)
    module, name = _SERIES_COMMANDS[args.command]
    ts = getattr(getattr(cylpart, module), name)(profile, args.order)
    _emit(args, {"command": args.command, "profile": list(profile.parts),
                 **ts.to_json()},
          [str(ts)], [[i, c] for i, c in enumerate(ts.coeffs)])
    return 0


def cmd_decompose(args) -> int:
    for cp in _partitions_from(args):
        mu, beta = cylpart.bijection.pivot_decompose(cp)
        line = f"beta={beta.to_text() or '-'} mu={mu or '-'}"
        _emit_each(args, {"command": "decompose", "input": cp.to_json(),
                          "beta": beta.to_text(), "mu": [str(p) for p in mu.parts]},
                   [line])
    return 0


def cmd_reconstruct(args) -> int:
    profile = parse_profile(args.profile)
    beta = cylpart.bijection.LabeledDistinctPartition.parse(args.beta or "")
    mu_parts = tuple(int(p) for p in args.mu.split(",") if p.strip()) if args.mu else ()
    mu = Partition(tuple(sorted(mu_parts, reverse=True)))
    cp = cylpart.bijection.pivot_reconstruct(mu, beta, profile)
    _emit(args, {"command": "reconstruct", "result": cp.to_json()}, [cp.to_text()])
    return 0


def cmd_slices(args) -> int:
    for cp in _partitions_from(args):
        chain = slice_decompose(cp)
        lines = [f"{s.weight}^{slice_shape(s)} x{mult} [{','.join(map(str, s.lengths))}]"
                 for s, mult in chain.entries]
        _emit_each(args, {"command": "slices", "input": cp.to_json(),
                          "chain": [{"lengths": list(s.lengths), "multiplicity": m,
                                     "shape": list(slice_shape(s).parts)}
                                    for s, m in chain.entries]},
                   lines)
    return 0


def cmd_shrink(args) -> int:
    mode = ShrinkMode.EXACT if args.mode == "exact" else ShrinkMode.AT_MOST
    for cp in _partitions_from(args):
        chain = slice_decompose(cp)
        tight, side = shrink(chain, mode)
        lines = [f"tight: {'; '.join(str(list(t.lengths)) for t in tight)}",
                 f"side:  {side or '-'}"]
        _emit_each(args, {"command": "shrink", "mode": args.mode,
                          "tight": [list(t.lengths) for t in tight],
                          "side": [str(p) for p in side.parts]},
                   lines)
    return 0


def cmd_stg(args) -> int:
    profile = parse_profile(args.profile) if args.profile else None
    if profile is not None:
        for flag, given, own in (("rank", args.rank, profile.rank),
                                 ("level", args.level, profile.level)):
            if given is not None and given != own:
                print(f"stg: --{flag} {given} disagrees with the {flag} {own} "
                      f"of profile {args.profile}", file=sys.stderr)
                return 2
    rank = profile.rank if profile else args.rank
    level = profile.level if profile else args.level
    if rank is None or level is None:
        print("stg needs --profile or both --rank and --level", file=sys.stderr)
        return 2
    graph = cylpart.diagram.build_graph(rank, level, profile)
    order, mat, sizes = cylpart.diagram.adjacency_matrix(graph)
    power = cylpart.diagram.matrix_power(mat, rank)
    blocks = cylpart.diagram.diagonal_blocks(power, sizes)
    payload = {
        "command": "stg", "rank": rank, "level": level,
        "nodes": [list(s.parts) for s in order],
        "class_sizes": sizes,
        "adjacency": mat,
        "rank_power_blocks": blocks,
        "block_char_polys": [[str(c) for c in cylpart.diagram.char_poly(b).coeffs]
                             for b in blocks],
    }
    _emit(args, payload, [graph.to_adjacency_text()])
    return 0


def cmd_path_counts(args) -> int:
    profile = parse_profile(args.profile)
    table = cylpart.diagram.path_counts(profile, args.order)
    lines = [f"a_{n} = {v}" for n, v in enumerate(table.totals)]
    _emit(args, {"command": "path-counts", "profile": list(profile.parts),
                 "totals": [str(v) for v in table.totals],
                 "by_shape": [{str(s): str(v) for s, v in layer}
                              for layer in table.by_shape]},
          lines, [[n, v] for n, v in enumerate(table.totals)])
    return 0


def builtin_closed_form(profile: Profile):
    """The worked closed forms: residual polynomial plus weighted products."""
    from fractions import Fraction
    QQ, QuadraticField = cylpart.rings.QQ, cylpart.rings.QuadraticField
    key = profile.parts
    if key == (1, 1, 1):
        return QQ, [(Fraction(3, 2), 2, 0)], [Fraction(-1, 2)]
    if key == (2, 0, 0):
        K = QuadraticField(5)
        s = K.sqrt()
        return K, [((1 + s * Fraction(1, 5)) * Fraction(1, 2), (1 + s) * Fraction(1, 2), 0),
                   ((1 - s * Fraction(1, 5)) * Fraction(1, 2), (1 - s) * Fraction(1, 2), 0)], []
    if key == (4, 0):
        K = QuadraticField(3)
        s = K.sqrt()
        return K, [((2 + s) * Fraction(1, 6), s, 0),
                   ((2 - s) * Fraction(1, 6), -s, 0)], [Fraction(1, 3)]
    return None


def cmd_verify_closed_form(args) -> int:
    profile = parse_profile(args.profile)
    preset = builtin_closed_form(profile)
    if preset is None:
        print(f"no built-in closed form for {profile}; "
              f"known profiles: 1,1,1  2,0,0  4,0", file=sys.stderr)
        return 2
    ring, combination, residual = preset
    report = cylpart.diagram.verify_closed_form(profile, combination, residual,
                                                args.order, ring=ring)
    _emit(args, {"command": "verify-closed-form", "profile": list(profile.parts),
                 "ok": report.ok and report.irrational_ok,
                 "first_mismatch": report.first_mismatch},
          [str(report)])
    return 0 if report.ok and report.irrational_ok else 1


# Each kind names a PolynomialFamily method.  The profile's own polynomial
# comes from the module function ``polynomials.<method>_poly``.  Both are
# looked up when called, so wrappers installed later on the class or the
# module (the benchmark's tracer) see every call.
_POLY_KINDS = {"P": "parts_at_most", "Peq": "largest_part_exact",
               "Ptilde": "pivot_lineup", "Qtilde": "pivot_corrected"}


def cmd_poly(args) -> int:
    profile = parse_profile(args.profile)
    method = _POLY_KINDS[args.kind]
    rows = None
    if args.format == "csv":
        fam = cylpart.polynomials.family(profile.rank, profile.level)
        rows = [["rank", "level", "n", "shape", "value_at_1", "min_coefficient"]]
        for n in range(args.n + 1):
            for sh in fam.shapes:
                poly = getattr(fam, method)(n, sh)
                mn = min(poly.coeffs) if poly.coeffs else 0
                rows.append([profile.rank, profile.level, n,
                             f"({'-'.join(map(str, sh.parts))})", poly(1), mn])
    poly = getattr(cylpart.polynomials, f"{method}_poly")(profile, args.n)
    _emit(args, {"command": f"poly {args.kind}", "profile": list(profile.parts),
                 "n": args.n, "coeffs": [str(c) for c in poly.coeffs]},
          [f"{args.kind}[n={args.n}] = {poly}"], rows)
    return 0


def cmd_functional_eq(args) -> int:
    profile = parse_profile(args.profile)
    ok, detail = cylpart.polynomials.check_functional_equation(profile, args.order)
    _emit(args, {"command": "functional-eq", "profile": list(profile.parts),
                 "order": args.order, "ok": ok, "detail": detail},
          [detail])
    return 0 if ok else 1


def cmd_lineups(args) -> int:
    profile = parse_profile(args.profile)
    if args.kind == "mll":
        found = cylpart.lineups.enumerate_minimal_loose(args.n, profile)
    else:
        found = cylpart.lineups.enumerate_minimal_jammed(args.n, profile)
    lines = [l.to_text() for l in found]
    _emit(args, {"command": "lineups", "profile": list(profile.parts),
                 "kind": args.kind, "n": args.n, "lineups": lines},
          lines, [[t] for t in lines])
    return 0


def cmd_lemma_check(args) -> int:
    profile = parse_profile(args.profile)
    report = cylpart.lineups.lemma_check(args.n, profile, args.order)
    _emit(args, {"command": "lemma-check", "profile": list(profile.parts),
                 "n": args.n, "order": args.order, "ok": report.ok},
          [str(report)])
    return 0 if report.ok else 1


def cmd_qconj_check(args) -> int:
    profile = parse_profile(args.profile)
    report = cylpart.lineups.qconj_genfunc_check(profile, args.order, args.n)
    _emit(args, {"command": "qconj-check", "profile": list(profile.parts),
                 "n_max": args.n, "order": args.order, "ok": report.ok},
          [str(report)])
    return 0 if report.ok else 1


def _verify_all_tasks(profile: Profile, order: int, seed: int):
    """(name, callable) pairs; each callable returns (ok, detail)."""
    import random
    rng = random.Random(seed)
    # The round-trip checks only read this pool, so they share one list.
    pool = cylpart.oracle.enumerate_by_weight(profile, min(order, 10))

    def sample(items, k):
        return items if len(items) <= k else rng.sample(items, k)

    # Drawn here, in a fixed order, so the seed alone picks each check's
    # partitions, whichever check a thread pool starts first.
    pivot_sample = sample(pool, 400)
    slice_sample = sample(pool, 400)
    tight_sample = sample([cp for cp in pool if not cp.is_empty], 300)

    def borodin_vs_oracle():
        a = cylpart.oracle.count_series(profile, order)
        b = cylpart.series.borodin_product(profile, order)
        work = f"the oracle enumerated {sum(a.coeffs)} partitions up to q^{order}"
        bad = cylpart.series.first_mismatch(a.coeffs, b.coeffs)
        if bad is None:
            return True, f"counts match the infinite product; {work}"
        k, x, y = bad
        return False, f"first mismatch at q^{k}: oracle {x} vs product {y}; {work}"

    def distinct_vs_oracle():
        a = cylpart.oracle.count_distinct_series(profile, order)
        b = cylpart.diagram.distinct_gf(profile, order)
        total = sum(cylpart.oracle.count_series(profile, order).coeffs)
        work = (f"the oracle enumerated {total} partitions up to q^{order}, "
                f"{sum(a.coeffs)} into distinct parts")
        bad = cylpart.series.first_mismatch(a.coeffs, b.coeffs)
        if bad is None:
            return True, f"distinct-part counts match the path-count series; {work}"
        k, x, y = bad
        return False, f"first mismatch at q^{k}: oracle {x} vs path counts {y}; {work}"

    def bijection_roundtrip():
        for cp in pivot_sample:
            mu, beta = cylpart.bijection.pivot_decompose(cp)
            if cylpart.bijection.pivot_reconstruct(mu, beta, profile) != cp:
                return False, f"roundtrip broke on {cp.to_text()}"
        return True, f"pivot roundtrip on {len(pivot_sample)} partitions"

    def slices_roundtrip():
        for cp in slice_sample:
            if recompose(slice_decompose(cp)) != cp:
                return False, f"slice roundtrip broke on {cp.to_text()}"
        return True, f"slice roundtrip on {len(slice_sample)} partitions"

    def tight_packing_roundtrip():
        for cp in tight_sample:
            chain = slice_decompose(cp)
            for mode in ShrinkMode:
                tight, side = shrink(chain, mode)
                if chain.weight != sum(t.weight for t in tight) + side.weight:
                    return False, f"weight bookkeeping broke on {cp.to_text()}"
                regrown = expand(tight, side, mode)
                if [s.lengths for s in regrown] != \
                        [s.lengths for s in chain.expanded()]:
                    return False, f"tight packing broke on {cp.to_text()}"
        return True, f"tight packing roundtrip on {len(tight_sample)} partitions"

    def bounded_polys():
        for n in range(min(4, order) + 1):
            for label, poly_series, count in (
                    (f"parts<= {n}", cylpart.polynomials.parts_at_most_series,
                     cylpart.oracle.count_max_at_most),
                    (f"largest={n}", cylpart.polynomials.largest_part_exact_series,
                     cylpart.oracle.count_max_exactly)):
                bad = cylpart.series.first_mismatch(poly_series(profile, n, order).coeffs,
                                                    count(profile, n, order).coeffs)
                if bad is not None:
                    k, x, y = bad
                    return False, (f"{label} numerator mismatch at q^{k}: "
                                   f"polynomial {x} vs oracle {y}")
        return True, "bounded-part numerators match the oracle"

    def two_variable():
        F = cylpart.polynomials.f_truncated(profile, order)
        bad = cylpart.series.first_mismatch(
            cylpart.series.at_z_one(F).coeffs,
            cylpart.series.borodin_product(profile, order).coeffs)
        if bad is not None:
            k, x, y = bad
            return False, (f"z=1 specialization disagrees with the product at q^{k}: "
                           f"series {x} vs product {y}")
        bad = cylpart.series.first_mismatch(
            F.coeffs, cylpart.oracle.count_bivariate(profile, order).coeffs)
        if bad is not None:
            k, x, y = bad
            m, a, b = cylpart.series.first_mismatch(x.coeffs, y.coeffs)
            return False, (f"largest-part refinement disagrees with the oracle at "
                           f"q^{k} z^{m}: series {a} vs oracle {b}")
        return True, "two-variable series matches oracle and product"

    def functional_eq():
        return cylpart.polynomials.check_functional_equation(profile, min(order, 10))

    def lemma():
        rep = cylpart.lineups.lemma_check(2, profile, min(order, 12))
        return rep.ok, str(rep)

    def qconj():
        rep = cylpart.lineups.qconj_genfunc_check(profile, min(order, 10), 2)
        return rep.ok, str(rep)

    return [
        ("count-vs-product", borodin_vs_oracle),
        ("distinct-vs-oracle", distinct_vs_oracle),
        ("bijection-roundtrip", bijection_roundtrip),
        ("slices-roundtrip", slices_roundtrip),
        ("tight-packing-roundtrip", tight_packing_roundtrip),
        ("bounded-polynomials", bounded_polys),
        ("two-variable-series", two_variable),
        ("functional-equation", functional_eq),
        ("pivot-chain-lemma", lemma),
        ("pivot-genfunc", qconj),
    ]


def cmd_verify_all(args) -> int:
    profile = parse_profile(args.profile)
    tasks = _verify_all_tasks(profile, args.order, args.seed)
    if args.jobs > 1:
        # Imported only here: it pulls in ``logging`` at start-up otherwise.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(lambda t: (t[0], *t[1]()), tasks))
    else:
        results = [(name, *fn()) for name, fn in tasks]
    results.sort(key=lambda r: r[0])
    lines = [f"[{'pass' if ok else 'FAIL'}] {name}: {detail}"
             for name, ok, detail in results]
    all_ok = all(ok for _, ok, _ in results)
    _emit(args, {"command": "verify-all", "profile": list(profile.parts),
                 "order": args.order, "ok": all_ok,
                 "checks": [{"name": n, "ok": ok, "detail": d}
                            for n, ok, d in results]},
          lines)
    return 0 if all_ok else 1


def _int_at_least(low: int, rule: str):
    """An argparse ``type`` for integers >= ``low``; ``rule`` words the
    usage error, which also names the value given."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value
    return parse


_nonnegative_int = _int_at_least(0, "must be non-negative")
_positive_int = _int_at_least(1, "must be at least 1")


# The cylpart modules each subcommand's handler reaches, beyond core and
# slices, which ``import cylpart`` always loads.  ``main`` imports them
# before the handler runs, in the main thread, so the ``--jobs`` pool of
# ``verify-all`` never imports anything.
_MODULES = {
    "enumerate": ("oracle",), "count": ("oracle",), "borodin": ("series",),
    "decompose": ("bijection",), "reconstruct": ("bijection",),
    "slices": (), "shrink": (),
    "stg": ("diagram",), "path-counts": ("diagram",), "distinct-gf": ("diagram",),
    "verify-closed-form": ("diagram", "rings"),
    "poly": ("polynomials",), "functional-eq": ("polynomials",),
    "lineups": ("lineups",), "lemma-check": ("lineups",), "qconj-check": ("lineups",),
    "verify-all": ("bijection", "diagram", "lineups", "oracle", "polynomials",
                   "series"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylpart",
        description="Exact computations and identity checks for cylindric partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    # ``csv`` is offered only where a subcommand writes rows.
    plain, with_csv = ["text", "json"], ["text", "json", "csv"]

    def common(p, formats, profile_required=True, order=None, n=None):
        p.add_argument("--profile", required=profile_required,
                       help="comma separated, e.g. 1,2,0")
        if order is not None:
            p.add_argument("--order", type=_nonnegative_int, default=order,
                           help="truncation order / weight bound")
        if n is not None:
            p.add_argument("--n", type=_nonnegative_int, default=n)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("enumerate", help="dump all partitions up to a weight")
    common(p, with_csv, order=8); p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("count", help="counts by weight from the enumerator")
    common(p, with_csv, order=12); p.set_defaults(fn=cmd_series)

    p = sub.add_parser("borodin", help="counts by weight from the infinite product")
    common(p, with_csv, order=12); p.set_defaults(fn=cmd_series)

    p = sub.add_parser("decompose", help="split into (mu, beta)")
    p.add_argument("partition", help="rows like '5,4|8,2|7,5,1', or - for stdin")
    common(p, plain, profile_required=False); p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild from --beta and --mu")
    p.add_argument("--beta", default="", help="e.g. 15^(2,1),11^(3,2)")
    p.add_argument("--mu", default="", help="comma separated parts")
    common(p, plain); p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("slices", help="slice chain with multiplicities")
    p.add_argument("partition")
    common(p, plain, profile_required=False); p.set_defaults(fn=cmd_slices)

    p = sub.add_parser("shrink", help="tight packing and side partition")
    p.add_argument("partition")
    p.add_argument("--mode", choices=["at_most", "exact"], default="at_most")
    common(p, plain, profile_required=False); p.set_defaults(fn=cmd_shrink)

    p = sub.add_parser("stg", help="shape transition graph and matrices")
    p.add_argument("--rank", type=int)
    p.add_argument("--level", type=int)
    common(p, plain, profile_required=False); p.set_defaults(fn=cmd_stg)

    p = sub.add_parser("path-counts", help="chain counts out of the empty slice")
    common(p, with_csv, order=12); p.set_defaults(fn=cmd_path_counts)

    p = sub.add_parser("distinct-gf", help="distinct-parts generating function")
    common(p, with_csv, order=12); p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify-closed-form", help="check a built-in closed form")
    common(p, plain, order=25); p.set_defaults(fn=cmd_verify_closed_form)

    p = sub.add_parser("poly", help="polynomial numerators")
    p.add_argument("kind", choices=sorted(_POLY_KINDS))
    common(p, with_csv, n=3); p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("functional-eq", help="two-variable functional equation")
    common(p, plain, order=10); p.set_defaults(fn=cmd_functional_eq)

    p = sub.add_parser("lineups", help="enumerate minimal lineups")
    p.add_argument("--kind", choices=["mll", "mjl"], default="mll")
    common(p, with_csv, n=2); p.set_defaults(fn=cmd_lineups)

    p = sub.add_parser("lemma-check", help="pivot-chain counting identity")
    common(p, plain, order=12, n=2); p.set_defaults(fn=cmd_lemma_check)

    p = sub.add_parser("qconj-check", help="pivot generating-function identity")
    common(p, plain, order=10, n=2); p.set_defaults(fn=cmd_qconj_check)

    p = sub.add_parser("verify-all", help="run every cross-check for a profile")
    common(p, plain, order=12); p.set_defaults(fn=cmd_verify_all)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the round-trip samples")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in _MODULES[args.command]:
            importlib.import_module(f"cylpart.{name}")
        code = args.fn(args)
        # Flushed here, so a reader gone before the output fits in the
        # buffer is seen below, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): not an error of ours.
        # The rest of the buffered output goes to the null device, so the
        # flush at exit stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (core.CylpartError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit code 1 means a mismatch, so a crash must never end with it.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
