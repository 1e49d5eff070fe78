"""Command-line front end.

Every computation and every identity check is a subcommand, so the tool
slots into CI pipelines.  Exit codes:

* 0 -- success;
* 1 -- a verification subcommand found a mismatch (naming the first bad
  coefficient with both values);
* 2 -- usage error: bad arguments, malformed input or an invalid partition
  (argparse's errors and every ``CylpartError``);
* 3 -- internal error: any other exception, a bare ``ValueError`` included,
  reported on one stderr line;
* 141 -- the reader closed stdout early (128 + SIGPIPE, as a shell shows a
  tool killed by SIGPIPE); nothing is written to stderr.

JSON output carries ``"schema": 1`` and serializes big integers as
strings.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

# ``import cylpart`` loads only core; every other module is reached
# through the package, which imports it on first access.
import cylpart

from . import core
from .core import Partition, parse_cylindric, parse_profile

SCHEMA = 1


def _write(pieces) -> None:
    """Write the strings ``pieces`` some dozens at a time: one write per
    piece is one system call per piece when stdout is unbuffered (``-u``)."""
    pieces = iter(pieces)
    while chunk := list(itertools.islice(pieces, 64)):
        sys.stdout.write("".join(chunk))


def _emit(args, payload: dict, text_lines: list[str], csv_rows=None):
    """Write the payload (JSON), the rows ``csv_rows()`` makes (CSV) or the
    text lines.  JSON is written as it is encoded, so the document is never
    held as one string; the CSV rows are made only for ``--format csv``."""
    if args.format == "json":
        payload["schema"] = SCHEMA
        _write(json.JSONEncoder(indent=2).iterencode(payload))
        sys.stdout.write("\n")
    elif args.format == "csv":
        _write(",".join(str(x) for x in row) + "\n" for row in csv_rows())
    else:
        _write(f"{line}\n" for line in text_lines)


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
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        _emit(args, payload, text_lines)


def _emit_check(args, payload: dict, check) -> int:
    """Emit a check subcommand's record, after the subcommand's own keys;
    the exit code is 0 when the check held and 1 when it failed.  A check
    that compared only zeros showed nothing: it is a usage error (exit 2),
    reported on stderr, since the order is below the first term."""
    if check.ok is None:
        print(f"error: {check.name}: {check.detail}", file=sys.stderr)
        return 2
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
    slices = cylpart.slices
    for cp in _partitions_from(args):
        chain = slices.decompose(cp)
        lines = [f"{s.weight}^{slices.slice_shape(s)} x{mult} "
                 f"[{','.join(map(str, s.lengths))}]" for s, mult in chain.entries]
        _emit_each(args, {"command": "slices", "input": cp.to_json(),
                          "chain": [{"lengths": list(s.lengths), "multiplicity": m,
                                     "shape": list(slices.slice_shape(s).parts)}
                                    for s, m in chain.entries]},
                   lines)
    return 0


def cmd_shrink(args) -> int:
    slices = cylpart.slices
    mode = slices.ShrinkMode(args.mode)
    for cp in _partitions_from(args):
        chain = slices.decompose(cp)
        tight, side = slices.shrink(chain, mode)
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


def cmd_verify_closed_form(args) -> int:
    profile = parse_profile(args.profile)
    check = cylpart.diagram.check_closed_form(profile, args.order)
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
        lines = cylpart.lineups.minimal_loose_lines(args.n, profile)
    else:
        lines = cylpart.lineups.minimal_jammed_lines(args.n, profile)
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


# How verify-all's text output marks a check by its ``ok``.
_VERDICTS = {True: "pass", False: "FAIL", None: "n/a"}


def cmd_verify_all(args) -> int:
    profile = parse_profile(args.profile)
    # Loading ``verify`` imports every module its checks reach, in this
    # thread, so the ``--jobs`` pool never imports anything.
    tasks = cylpart.verify.verify_all_tasks(profile, args.order, args.seed)
    if args.jobs > 1:
        # Imported only here: it pulls in ``logging`` at start-up otherwise.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            checks = list(pool.map(lambda task: task(), tasks))
    else:
        checks = [task() for task in tasks]
    checks.sort(key=lambda c: c.name)
    # A check that compared only zeros is not applicable: it neither passes
    # nor fails.
    all_ok = all(c.ok is not False for c in checks)
    _emit(args, {"command": "verify-all", "profile": list(profile.parts),
                 "order": args.order, "ok": all_ok,
                 "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail,
                             "first_mismatch": c.mismatch} for c in checks]},
          [f"[{_VERDICTS[c.ok]}] {c.name}: {c.detail}" for c in checks])
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
        "verify-closed-form": ("check the minimal-polynomial closed form",
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
    args = build_parser(argv[:1] if argv and argv[0] in _subcommands() else None
                        ).parse_args(argv)
    try:
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
    except core.CylpartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Any other exception, a bare ``ValueError`` included, is a fault of
        # the program, not of its input.  Exit code 1 means a mismatch, so a
        # crash must never end with it.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
