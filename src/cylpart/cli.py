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
import itertools
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


def _emit(args, payload: dict, text_lines: list[str], csv_rows=None):
    """Write the payload (JSON), the rows ``csv_rows()`` makes (CSV) or the
    text lines.  JSON is written as it is encoded, so the document is never
    held as one string; the CSV rows are made only for ``--format csv``."""
    if args.format == "json":
        payload["schema"] = SCHEMA
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        # Some dozens of encoder chunks per write: one write per chunk is
        # one system call per chunk when stdout is unbuffered (``-u``).
        while piece := "".join(itertools.islice(chunks, 64)):
            sys.stdout.write(piece)
        sys.stdout.write("\n")
    elif args.format == "csv":
        for row in csv_rows():
            print(",".join(str(x) for x in row))
    else:
        for line in text_lines:
            print(line)


def _texts(items: list) -> list[str]:
    """``items`` with each item replaced in place by its text form, so each
    item is freed as its text is made."""
    for i, item in enumerate(items):
        items[i] = item.to_text()
    return items


def _emit_each(args, payload: dict, text_lines: list[str]):
    """:func:`_emit` for one of the partitions read by :func:`_partitions_from`:
    JSON read from ``-`` is JSON Lines, one compact document per input line."""
    if args.format == "json" and args.partition == "-":
        payload["schema"] = SCHEMA
        print(json.dumps(payload))
    else:
        _emit(args, payload, text_lines)


def _emit_check(args, payload: dict, check) -> int:
    """Emit a check subcommand's record, after the subcommand's own keys;
    the exit code is 0 when the check held and 1 when it failed."""
    _emit(args, {**payload, "ok": check.ok, "detail": check.detail,
                 "first_mismatch": check.mismatch},
          [check.detail])
    return 0 if check.ok else 1


def _partitions_from(args) -> list[core.CylindricPartition]:
    profile = parse_profile(args.profile) if args.profile else None
    if args.partition == "-":
        texts = [line.strip() for line in sys.stdin if line.strip()]
    else:
        texts = [args.partition]
    return [parse_cylindric(t, profile) for t in texts]


def cmd_enumerate(args) -> int:
    profile = parse_profile(args.profile)
    lines = _texts(cylpart.oracle.enumerate_by_weight(profile, args.order))
    _emit(args, {"command": "enumerate", "profile": list(profile.parts),
                 "order": args.order, "partitions": lines},
          lines, lambda: ([t] for t in lines))
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
          [str(ts)], lambda: enumerate(ts.coeffs))
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
    mu = Partition(tuple(sorted(core._int_fields(args.mu), reverse=True)))
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
          lines, lambda: enumerate(table.totals))
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
    check = cylpart.diagram.verify_closed_form(profile, combination, residual,
                                               args.order, ring=ring)
    return _emit_check(args, {"command": "verify-closed-form",
                              "profile": list(profile.parts)}, check)


# Each kind names a PolynomialFamily method.  The profile's own polynomial
# comes from the module function ``polynomials.<method>_poly``.  Both are
# looked up when called, so wrappers installed later on the class or the
# module (the benchmark's tracer) see every call.
_POLY_KINDS = {"P": "parts_at_most", "Peq": "largest_part_exact",
               "Ptilde": "pivot_lineup", "Qtilde": "pivot_corrected"}


def cmd_poly(args) -> int:
    profile = parse_profile(args.profile)
    method = _POLY_KINDS[args.kind]

    def rows():
        fam = cylpart.polynomials.family(profile.rank, profile.level)
        yield ["rank", "level", "n", "shape", "value_at_1", "min_coefficient"]
        for n in range(args.n + 1):
            for sh in fam.shapes:
                poly = getattr(fam, method)(n, sh)
                mn = min(poly.coeffs) if poly.coeffs else 0
                yield [profile.rank, profile.level, n,
                       f"({'-'.join(map(str, sh.parts))})", poly(1), mn]

    poly = getattr(cylpart.polynomials, f"{method}_poly")(profile, args.n)
    _emit(args, {"command": f"poly {args.kind}", "profile": list(profile.parts),
                 "n": args.n, "coeffs": [str(c) for c in poly.coeffs]},
          [f"{args.kind}[n={args.n}] = {poly}"], rows)
    return 0


def cmd_functional_eq(args) -> int:
    profile = parse_profile(args.profile)
    check = cylpart.polynomials.check_functional_equation(profile, args.order)
    return _emit_check(args, {"command": "functional-eq", "profile": list(profile.parts),
                              "order": args.order}, check)


def cmd_lineups(args) -> int:
    profile = parse_profile(args.profile)
    if args.kind == "mll":
        found = cylpart.lineups.enumerate_minimal_loose(args.n, profile)
    else:
        found = cylpart.lineups.enumerate_minimal_jammed(args.n, profile)
    lines = _texts(found)
    _emit(args, {"command": "lineups", "profile": list(profile.parts),
                 "kind": args.kind, "n": args.n, "lineups": lines},
          lines, lambda: ([t] for t in lines))
    return 0


def cmd_lemma_check(args) -> int:
    profile = parse_profile(args.profile)
    check = cylpart.lineups.lemma_check(args.n, profile, args.order)
    return _emit_check(args, {"command": "lemma-check", "profile": list(profile.parts),
                              "n": args.n, "order": args.order}, check)


def cmd_qconj_check(args) -> int:
    profile = parse_profile(args.profile)
    check = cylpart.lineups.qconj_genfunc_check(profile, args.order, args.n)
    return _emit_check(args, {"command": "qconj-check", "profile": list(profile.parts),
                              "n_max": args.n, "order": args.order}, check)


def _verify_all_tasks(profile: Profile, order: int, seed: int):
    """The verify-all checks, as callables that each return their named
    ``series.Check``."""
    import random
    rng = random.Random(seed)
    Check, compare, refinement = (cylpart.series.Check, cylpart.series.compare,
                                  cylpart.series.refinement)
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
        return compare("count-vs-product", a.coeffs, b.coeffs,
                       f"counts match the infinite product; {work}",
                       lambda k, x, y: f"first mismatch at q^{k}: oracle {x} "
                                       f"vs product {y}; {work}")

    def distinct_vs_oracle():
        a = cylpart.oracle.count_distinct_series(profile, order)
        b = cylpart.diagram.distinct_gf(profile, order)
        total = sum(cylpart.oracle.count_series(profile, order).coeffs)
        work = (f"the oracle enumerated {total} partitions up to q^{order}, "
                f"{sum(a.coeffs)} into distinct parts")
        return compare("distinct-vs-oracle", a.coeffs, b.coeffs,
                       f"distinct-part counts match the path-count series; {work}",
                       lambda k, x, y: f"first mismatch at q^{k}: oracle {x} "
                                       f"vs path counts {y}; {work}")

    def bijection_roundtrip():
        name = "bijection-roundtrip"
        for cp in pivot_sample:
            mu, beta = cylpart.bijection.pivot_decompose(cp)
            if cylpart.bijection.pivot_reconstruct(mu, beta, profile) != cp:
                return Check(name, False, f"roundtrip broke on {cp.to_text()}")
        return Check(name, True, f"pivot roundtrip on {len(pivot_sample)} partitions")

    def slices_roundtrip():
        name = "slices-roundtrip"
        for cp in slice_sample:
            if recompose(slice_decompose(cp)) != cp:
                return Check(name, False, f"slice roundtrip broke on {cp.to_text()}")
        return Check(name, True, f"slice roundtrip on {len(slice_sample)} partitions")

    def tight_packing_roundtrip():
        name = "tight-packing-roundtrip"
        for cp in tight_sample:
            chain = slice_decompose(cp)
            for mode in ShrinkMode:
                tight, side = shrink(chain, mode)
                if chain.weight != sum(t.weight for t in tight) + side.weight:
                    return Check(name, False,
                                 f"weight bookkeeping broke on {cp.to_text()}")
                regrown = expand(tight, side, mode)
                if [s.lengths for s in regrown] != \
                        [s.lengths for s in chain.expanded()]:
                    return Check(name, False, f"tight packing broke on {cp.to_text()}")
        return Check(name, True,
                     f"tight packing roundtrip on {len(tight_sample)} partitions")

    def bounded_polys():
        for n in range(min(4, order) + 1):
            for label, poly_series, count in (
                    (f"parts<= {n}", cylpart.polynomials.parts_at_most_series,
                     cylpart.oracle.count_max_at_most),
                    (f"largest={n}", cylpart.polynomials.largest_part_exact_series,
                     cylpart.oracle.count_max_exactly)):
                check = compare("bounded-polynomials",
                                poly_series(profile, n, order).coeffs,
                                count(profile, n, order).coeffs,
                                "bounded-part numerators match the oracle",
                                lambda k, x, y: f"{label} numerator mismatch at "
                                                f"q^{k}: polynomial {x} vs oracle {y}")
                if not check.ok:
                    return check
        return check

    def two_variable():
        name = "two-variable-series"
        passed = "two-variable series matches oracle and product"
        F = cylpart.polynomials.f_truncated(profile, order)
        check = compare(name, cylpart.series.at_z_one(F).coeffs,
                        cylpart.series.borodin_product(profile, order).coeffs, passed,
                        lambda k, x, y: f"z=1 specialization disagrees with the "
                                        f"product at q^{k}: series {x} vs product {y}")
        if not check.ok:
            return check
        oracle = cylpart.oracle.count_bivariate(profile, order)
        return compare(name, F.coeffs, oracle.coeffs, passed,
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
        lambda: cylpart.polynomials.check_functional_equation(profile, min(order, 10)),
        lambda: cylpart.lineups.lemma_check(2, profile, min(order, 12)),
        lambda: cylpart.lineups.qconj_genfunc_check(profile, min(order, 10), 2),
    ]


def cmd_verify_all(args) -> int:
    profile = parse_profile(args.profile)
    tasks = _verify_all_tasks(profile, args.order, args.seed)
    if args.jobs > 1:
        # Imported only here: it pulls in ``logging`` at start-up otherwise.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            checks = list(pool.map(lambda task: task(), tasks))
    else:
        checks = [task() for task in tasks]
    checks.sort(key=lambda c: c.name)
    all_ok = all(c.ok for c in checks)
    _emit(args, {"command": "verify-all", "profile": list(profile.parts),
                 "order": args.order, "ok": all_ok,
                 "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail,
                             "first_mismatch": c.mismatch} for c in checks]},
          [f"[{'pass' if c.ok else 'FAIL'}] {c.name}: {c.detail}" for c in checks])
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
    "lineups": ("lineups",), "lemma-check": ("lineups",),
    "qconj-check": ("lineups", "oracle"),
    "verify-all": ("bijection", "diagram", "lineups", "oracle", "polynomials",
                   "series"),
}


def _options(formats: list[str], profile_required: bool = True,
             order: int | None = None, n: int | None = None,
             order_type=_nonnegative_int) -> list:
    """The options the subcommands share, as (flags, keywords) pairs;
    ``--order`` and ``--n`` only where the subcommand gives a default."""
    out = [(("--profile",), {"required": profile_required,
                             "help": "comma separated, e.g. 1,2,0"})]
    if order is not None:
        out.append((("--order",), {"type": order_type, "default": order,
                                   "help": "truncation order / weight bound"}))
    if n is not None:
        out.append((("--n",), {"type": _nonnegative_int, "default": n}))
    out.append((("--format",), {"choices": formats, "default": "text"}))
    out.append((("--jobs",), {"type": _positive_int, "default": 1}))
    return out


def _subcommands() -> dict[str, tuple]:
    """Every subcommand as name -> (help, handler, its arguments as
    (flags, keywords) pairs in the order they are added).  Made on each
    call, so the handlers are the module's attributes of the moment."""
    # ``csv`` is offered only where a subcommand writes rows.
    plain, with_csv = ["text", "json"], ["text", "json", "csv"]
    partition = (("partition",), {})
    return {
        "enumerate": ("dump all partitions up to a weight", cmd_enumerate,
                      _options(with_csv, order=8)),
        "count": ("counts by weight from the enumerator", cmd_series,
                  _options(with_csv, order=12)),
        "borodin": ("counts by weight from the infinite product", cmd_series,
                    _options(with_csv, order=12)),
        "decompose": ("split into (mu, beta)", cmd_decompose, [
            (("partition",), {"help": "rows like '5,4|8,2|7,5,1', or - for stdin"}),
            *_options(plain, profile_required=False)]),
        "reconstruct": ("rebuild from --beta and --mu", cmd_reconstruct, [
            (("--beta",), {"default": "", "help": "e.g. 15^(2,1),11^(3,2)"}),
            (("--mu",), {"default": "", "help": "comma separated parts"}),
            *_options(plain)]),
        "slices": ("slice chain with multiplicities", cmd_slices,
                   [partition, *_options(plain, profile_required=False)]),
        "shrink": ("tight packing and side partition", cmd_shrink, [
            partition,
            (("--mode",), {"choices": ["at_most", "exact"], "default": "at_most"}),
            *_options(plain, profile_required=False)]),
        "stg": ("shape transition graph and matrices", cmd_stg, [
            (("--rank",), {"type": int}), (("--level",), {"type": int}),
            *_options(plain, profile_required=False)]),
        "path-counts": ("chain counts out of the empty slice", cmd_path_counts,
                        _options(with_csv, order=12)),
        "distinct-gf": ("distinct-parts generating function", cmd_series,
                        _options(with_csv, order=12)),
        "verify-closed-form": ("check a built-in closed form",
                               cmd_verify_closed_form, _options(plain, order=25)),
        "poly": ("polynomial numerators", cmd_poly, [
            (("kind",), {"choices": sorted(_POLY_KINDS)}), *_options(with_csv, n=3)]),
        "functional-eq": ("two-variable functional equation", cmd_functional_eq,
                          _options(plain, order=10)),
        "lineups": ("enumerate minimal lineups", cmd_lineups, [
            (("--kind",), {"choices": ["mll", "mjl"], "default": "mll"}),
            *_options(with_csv, n=2)]),
        "lemma-check": ("pivot-chain counting identity", cmd_lemma_check,
                        _options(plain, order=12, n=2)),
        "qconj-check": ("pivot generating-function identity", cmd_qconj_check,
                        _options(plain, order=10, n=2)),
        # At order 0 the round trips would see only the empty partition.
        "verify-all": ("run every cross-check for a profile", cmd_verify_all, [
            *_options(plain, order=12, order_type=_positive_int),
            (("--seed",), {"type": int, "default": 0,
                           "help": "seed of the round-trip samples"})]),
    }


def build_parser(commands: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of the named subcommands, or of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="cylpart",
        description="Exact computations and identity checks for cylindric partitions.")
    table = _subcommands()
    # A parser built for some subcommands still names all of them in its
    # usage line, as the full parser does.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if commands is None else "{" + ",".join(table) + "}")
    for name in table if commands is None else commands:
        help_text, handler, arguments = table[name]
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(fn=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A known subcommand gets a parser that builds that subcommand only.
    # Anything else (no command, an unknown one, a top-level flag) gets
    # every subcommand, so ``cylpart -h`` and the invalid-choice error list
    # them all.
    args = build_parser(argv[:1] if argv and argv[0] in _MODULES else None
                        ).parse_args(argv)
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
