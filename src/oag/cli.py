"""Command line front end.

Subcommands::

    analyze    --spec S [--json]
    hsub       --spec S --n N --elem E [--json]
    solve      --spec S --formula F [--params P] [--oracle-radius R] [--json]
    normalize  --spec S --formula F [--params P] [--json]
    pattern chain   --p P --depth N --width M [--verify] ...
    pattern optimal --spec S [--grid G] [--verify] ...

Exit codes: 0 success (SAT / verified), 1 UNSAT or not verified, 2 parse or
usage errors, 3 undecided (UNKNOWN) results.  All randomness (path sampling)
sits behind --seed, which defaults to the OAG_SEED environment variable and
then 0; identical inputs and seeds give byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .convex import analyze as analyze_group
from .convex import hsub
from .errors import NotReducibleError, OagError, ParseError
from .formulas import (
    Conjunction,
    LitKind,
    format_literal,
    normalize_type_I,
)
from .groups import GroupSpec
from .parsing import parse_element, parse_formula, parse_params, parse_spec
from .patterns import GeneratedPattern, gen_chain_pattern, gen_optimal_pattern, verify
from .solver import SolveStatus, oracle_search, solve

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_UNKNOWN = 3


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_analyze(args) -> int:
    report = analyze_group(parse_spec(args.spec))
    data = report.to_json_dict()
    if args.json:
        _emit_json(data)
        return EXIT_OK
    print(f"group:              {data['spec']}")
    print(f"singular primes:    {sorted(report.singular) or '{}'}")
    for s in report.sorts:
        raw = ", ".join(c.subgroup_desc() for c in s.raw)
        coll = " / ".join(
            "{" + ", ".join(c.subgroup_desc() for c in cls) + "}"
            for cls in s.collapsed
        )
        print(f"sorts of {s.p}: raw count {s.raw_count} [{raw}]")
        print(f"           collapsed count {s.collapsed_count} [{coll}]")
    print(f"dp-rank bound:      {report.dp_rank_bound}")
    print(f"strongly dependent: {report.strongly_dependent}")
    return EXIT_OK


def _cmd_hsub(args) -> int:
    spec = parse_spec(args.spec)
    elem = parse_element(spec, args.elem)
    cut = hsub(elem, args.n)
    if args.json:
        _emit_json({"n": args.n, "cut": cut.s, "subgroup": cut.subgroup_desc()})
    else:
        print(f"H_{args.n}({args.elem.strip()}) = cut {cut.s} ({cut.subgroup_desc()})")
    return EXIT_OK


def _build_conjunction(args) -> Conjunction:
    spec = parse_spec(args.spec)
    literals = parse_formula(args.formula)
    params = parse_params(spec, args.params or "")
    return Conjunction(spec, literals, params)


def _cmd_solve(args) -> int:
    conj = _build_conjunction(args)
    result = solve(conj)
    payload = result.to_json_dict()
    if args.oracle_radius is not None:
        found = oracle_search(conj, args.oracle_radius)
        payload["oracle_witness"] = None if found is None else str(found)
        if result.status is SolveStatus.UNSAT and found is not None:
            payload["oracle_contradiction"] = True
            print(
                "warning: oracle found a witness for an UNSAT verdict",
                file=sys.stderr,
            )
    if args.json:
        _emit_json(payload)
    else:
        print(f"status: {result.status.value}")
        if result.witness is not None:
            print(f"witness: {result.witness}")
        if result.reason:
            print(f"reason: {result.reason}")
        for entry in result.certificate:
            print(f"certificate: {entry.to_json_dict()}")
        if args.oracle_radius is not None:
            print(f"oracle witness: {payload['oracle_witness']}")
    if result.status is SolveStatus.SAT:
        return EXIT_OK
    if result.status is SolveStatus.UNSAT:
        return EXIT_FAIL
    return EXIT_UNKNOWN


def _cmd_normalize(args) -> int:
    conj = _build_conjunction(args)
    bank = conj.params
    entries = []
    status = EXIT_OK
    for lit in conj.literals:
        if lit.kind is not LitKind.CONG:
            entries.append(
                {"input": format_literal(lit), "steps": [], "output": [format_literal(lit)]}
            )
            continue
        try:
            res = normalize_type_I(lit, bank, conj.group)
        except NotReducibleError as exc:
            entries.append(
                {"input": format_literal(lit), "error": str(exc)}
            )
            status = EXIT_UNKNOWN
            continue
        bank = res.params
        entries.append(
            {
                "input": format_literal(lit),
                "steps": [
                    {
                        "op": st.op,
                        "before": format_literal(st.before),
                        "after": [format_literal(a) for a in st.after],
                    }
                    for st in res.steps
                ],
                "output": [format_literal(l) for l in res.literals],
            }
        )
    payload = {"literals": entries, "params": len(bank)}
    if args.json:
        _emit_json(payload)
    else:
        for e in entries:
            print(f"input:  {e['input']}")
            for st in e.get("steps", []):
                print(f"  {st['op']}: {st['before']}  ->  {' & '.join(st['after']) or '(empty)'}")
            if "error" in e:
                print(f"  unreducible: {e['error']}")
            else:
                print(f"output: {' & '.join(e['output']) or '(vacuous)'}")
    return status


def _pattern_payload(gen: GeneratedPattern, report, details: bool) -> dict:
    payload = {
        "group": str(gen.pattern.group),
        "meta": gen.meta,
        "rows": [
            {
                "template": [format_literal(l) for l in row.template],
                "k": row.k,
                "columns": [[str(e) for e in col] for col in row.columns],
            }
            for row in gen.pattern.rows
        ],
    }
    if report is not None:
        payload["report"] = report.to_json_dict(include_pairs=details)
    return payload


def _finish_pattern(args, gen: GeneratedPattern) -> int:
    report = None
    code = EXIT_OK
    if args.verify:
        report = verify(
            gen.pattern,
            args.path_budget,
            seed=args.seed,
            cross_check_radius=args.cross_check,
        )
        if report.unknowns:
            code = EXIT_UNKNOWN
        elif not report.verified:
            code = EXIT_FAIL
    payload = _pattern_payload(gen, report, args.details)
    if args.json:
        _emit_json(payload)
    else:
        print(f"group: {payload['group']}")
        print(f"depth: {len(gen.pattern.rows)}")
        for i, row in enumerate(payload["rows"]):
            print(f"row {i}: k={row['k']}  {' & '.join(row['template'])}")
            for j, col in enumerate(row["columns"]):
                print(f"  column {j}: {', '.join(col)}")
        if report is not None:
            print(f"verified: {report.verified}")
            for r in report.rows:
                cross = "" if r.cross_checked is None else f" (oracle corroborated: {r.cross_checked})"
                print(f"row {r.index}: {r.k}-inconsistent: {r.verdict}{cross}")
            n = len(report.paths)
            sat = sum(p.status == "SAT" for p in report.paths)
            confirmed = sum(p.confirmed for p in report.paths)
            print(
                f"paths: {sat}/{n} SAT, {confirmed}/{n} confirmed"
                + (f" (sampled from {report.total_paths})" if report.sampled else "")
            )
            for u in report.unknowns:
                print(f"unknown: {u}")
    return code


def _cmd_pattern_chain(args) -> int:
    gen = gen_chain_pattern(args.p, args.depth, args.width)
    return _finish_pattern(args, gen)


def _split_optimal_spec(spec: GroupSpec) -> tuple[list[int], list[int]]:
    blocks = spec.blocks
    if blocks[0].kind != "Q" or len(blocks) < 2:
        raise ValueError("the optimal construction needs lex(Q, Gp(p0)^k0, ...)")
    primes: list[int] = []
    mults: list[int] = []
    for b in blocks[1:]:
        if b.kind != "GP":
            raise ValueError("blocks after Q must all be Gp(p)")
        if primes and primes[-1] == b.p:
            mults[-1] += 1
        else:
            if b.p in primes:
                raise ValueError("Gp segments must have distinct primes")
            primes.append(b.p)
            mults.append(1)
    return primes, mults


def _cmd_pattern_optimal(args) -> int:
    spec = parse_spec(args.spec)
    primes, mults = _split_optimal_spec(spec)
    gen = gen_optimal_pattern(primes, mults, args.grid)
    assert gen.pattern.group == spec
    return _finish_pattern(args, gen)


def _add_pattern_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--verify", action="store_true", help="run verification")
    sub.add_argument(
        "--path-budget",
        type=int,
        default=1000,
        help="maximum number of paths to check (sampled beyond this)",
    )
    sub.add_argument(
        "--cross-check",
        type=int,
        default=None,
        metavar="RADIUS",
        help="corroborate UNSAT row verdicts with the brute-force oracle",
    )
    sub.add_argument(
        "--details",
        action="store_true",
        help="include per-pair solver results and certificates in row JSON",
    )
    sub.add_argument("--json", action="store_true")
    # a string default goes through type=int, so a bad OAG_SEED exits 2
    sub.add_argument("--seed", type=int, default=os.environ.get("OAG_SEED", "0"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oag",
        description=(
            "Exact invariants, congruence solving, and inp-pattern "
            "verification for lexicographic ordered abelian groups"
        ),
    )
    sp = ap.add_subparsers(dest="command", required=True)

    a = sp.add_parser("analyze", help="singular primes, sorts, rank bound")
    a.add_argument("--spec", required=True)
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=_cmd_analyze)

    h = sp.add_parser("hsub", help="largest convex subgroup avoiding a + nG")
    h.add_argument("--spec", required=True)
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--elem", required=True)
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=_cmd_hsub)

    s = sp.add_parser("solve", help="decide a literal conjunction")
    s.add_argument("--spec", required=True)
    s.add_argument("--formula", required=True)
    s.add_argument("--params", default="")
    s.add_argument("--oracle-radius", type=int, default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_solve)

    n = sp.add_parser("normalize", help="congruence rewrite chain")
    n.add_argument("--spec", required=True)
    n.add_argument("--formula", required=True)
    n.add_argument("--params", default="")
    n.add_argument("--json", action="store_true")
    n.set_defaults(func=_cmd_normalize)

    p = sp.add_parser("pattern", help="generate and verify inp-patterns")
    psub = p.add_subparsers(dest="pattern_kind", required=True)

    pc = psub.add_parser("chain", help="congruence chain at one prime")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--depth", type=int, required=True)
    pc.add_argument("--width", type=int, default=3)
    _add_pattern_common(pc)
    pc.set_defaults(func=_cmd_pattern_chain)

    po = psub.add_parser("optimal", help="rank-meeting pattern over lex(Q, Gp...)")
    po.add_argument("--spec", required=True)
    po.add_argument("--grid", type=int, default=3)
    _add_pattern_common(po)
    po.set_defaults(func=_cmd_pattern_optimal)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OagError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
