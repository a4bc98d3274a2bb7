"""Command-line interface.

All results go to stdout as JSON (rationals as "p/q" strings, agents by
name); diagnostics go to stderr.  Exit codes: 0 success, 1 axiom violation
or invalid run, 2 input error, 3 guard refusal.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import ElectionError, GuardExceeded
from .model import (
    MatchingElection,
    WeightSequence,
    classify,
    committee_from_dict,
    committee_to_dict,
    dump_election,
    format_rational,
    happiness,
    load_election,
    matching_from_name_pairs,
    matching_to_name_pairs,
    parse_rational,
)
from .engine import WeightedGraph, gallai_edmonds
from .exact_thiele import exact_thiele
from .harness import DEFAULT_EDGE_GUARD, GeneratorParams, enumerate_candidates, generate
from .fixtures import FIXTURE_NAMES, fixture
from .sequential import (
    VERIFIABLE_RULES,
    ls_pav,
    rule_x,
    seq_pav,
    seq_phragmen,
    seq_thiele,
    verify_run,
)
from .axioms import AxiomVerdict, check_core, check_ejr, check_pjr

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

RULES = ("seq-thiele", "seq-pav", "seq-phragmen", "rule-x", "ls-pav", "exact-thiele")


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ElectionError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str) -> object:
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, over-long integers, deep nesting
        raise ElectionError(f"invalid JSON in {path}: {exc}") from exc


def _emit(data: object) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_weights(name: str) -> WeightSequence:
    if name.startswith("custom:"):
        payload = _read_json(name.split(":", 1)[1])
        if not isinstance(payload, list):
            raise ElectionError("custom weight file must hold a JSON list of rationals")
        return WeightSequence.from_values([parse_rational(v) for v in payload])
    builders = {
        "pav": WeightSequence.pav,
        "av": WeightSequence.av,
        "cc": WeightSequence.cc,
    }
    if name not in builders:
        raise ElectionError(f"unknown weight sequence {name!r} (pav, av, cc or custom:FILE)")
    return builders[name]()


def _budget_dict(election: MatchingElection, budgets) -> dict[str, str]:
    return {election.names[a]: format_rational(b) for a, b in enumerate(budgets)}


def _cmd_solve(args: argparse.Namespace) -> int:
    election = load_election(_read_text(args.election))
    if args.k is not None:
        election = election.with_k(args.k)
    weights = _load_weights(args.weights)
    out: dict = {"rule": args.rule, "k": election.k}
    if args.rule in ("seq-thiele", "seq-pav"):
        run = seq_thiele(election, weights) if args.rule == "seq-thiele" else seq_pav(election)
        committee = run.committee
        out["trace"] = [
            {
                "round": r,
                "marginal": format_rational(info.marginal),
                "chosen": matching_to_name_pairs(election, info.chosen),
            }
            for r, info in enumerate(run.rounds, 1)
        ]
    elif args.rule == "seq-phragmen":
        run = seq_phragmen(election)
        committee = run.committee
        out["trace"] = [
            {
                "round": r,
                "t_star": format_rational(info.t_star),
                "chosen": matching_to_name_pairs(election, info.chosen),
                "budgets": _budget_dict(election, info.budgets_after),
            }
            for r, info in enumerate(run.rounds, 1)
        ]
        out["elapsed"] = format_rational(run.elapsed)
    elif args.rule == "rule-x":
        run = rule_x(election, completion=args.completion)
        committee = run.committee
        out["trace"] = [
            {
                "round": r,
                "q_star": format_rational(info.q_star),
                "chosen": matching_to_name_pairs(election, info.chosen),
                "payments": {
                    election.names[a]: format_rational(p) for a, p in enumerate(info.payments) if p
                },
                "budgets": _budget_dict(election, info.budgets_after),
            }
            for r, info in enumerate(run.rounds, 1)
        ]
        out["purchased"] = run.purchased
        out["completion"] = run.completion
        out["filled"] = committee.size - run.purchased
    elif args.rule == "ls-pav":
        run = ls_pav(election)
        committee = run.committee
        out["score"] = format_rational(run.score)
        out["swaps"] = len(run.swaps)
    elif args.rule == "exact-thiele":
        outcome = exact_thiele(election, weights)
        committee = outcome.committee
        out["score"] = format_rational(outcome.score)
        out["method"] = outcome.method
    else:
        raise ElectionError(f"unknown rule {args.rule!r}")
    out["committee"] = committee_to_dict(election, committee)
    out["happiness"] = {
        election.names[a]: h for a, h in enumerate(happiness(election, committee))
    }
    _emit(out)
    return EXIT_OK


def _verdict_dict(election: MatchingElection, verdict: AxiomVerdict) -> dict:
    data: dict = {"axiom": verdict.axiom, "satisfied": verdict.satisfied}
    if not verdict.satisfied:
        witness: dict = {
            "ell": verdict.ell,
            "group": [election.names[a] for a in (verdict.group or ())],
            "threshold": format_rational(verdict.threshold or 0),
        }
        if verdict.witness_candidate is not None:
            witness["candidate"] = matching_to_name_pairs(election, verdict.witness_candidate)
        if verdict.deviation is not None:
            witness["deviation"] = committee_to_dict(election, verdict.deviation)
        data["witness"] = witness
    return data


def _cmd_check(args: argparse.Namespace) -> int:
    election = load_election(_read_text(args.election))
    committee = committee_from_dict(election, _read_json(args.committee))
    checker = {"ejr": check_ejr, "pjr": check_pjr, "core": check_core}.get(args.axiom)
    if checker is None:
        raise ElectionError(f"unknown axiom {args.axiom!r}")
    verdict = checker(election, committee)
    _emit(_verdict_dict(election, verdict))
    return EXIT_OK if verdict.satisfied else EXIT_VIOLATION


def _cmd_analyze(args: argparse.Namespace) -> int:
    election = load_election(_read_text(args.election))
    cls = classify(election)
    graph = election.approval_graph
    decomposition = gallai_edmonds(
        WeightedGraph.of(election.n, [(a, b, Fraction(1)) for a, b in graph.undirected_edges])
    )
    names = election.names
    out = {
        "agents": election.n,
        "k": election.k,
        "class": {
            "tag": cls.tag,
            "symmetric": cls.symmetric,
            "bipartite": cls.bipartite,
            "partition": (
                [[names[a] for a in side] for side in cls.bipartition]
                if cls.bipartition
                else None
            ),
        },
        "approval_graph": {
            "mutual_edges": [[names[a], names[b]] for a, b in graph.mutual],
            "directed_edges": [[names[a], names[b]] for a, b in graph.directed],
        },
        "gallai_edmonds": {
            "inessential": [names[a] for a in decomposition.inessential],
            "boundary": [names[a] for a in decomposition.boundary],
            "core": [names[a] for a in decomposition.core],
            "components": [
                [names[a] for a in comp] for comp in decomposition.components
            ],
        },
    }
    _emit(out)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    election = load_election(_read_text(args.election))
    candidates = enumerate_candidates(election, max_edges=args.max_edges)
    _emit(
        {
            "count": len(candidates),
            "candidates": [
                {"pairs": matching_to_name_pairs(election, m)} for m in candidates
            ],
        }
    )
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    params = GeneratorParams(args.election_class, args.n, args.p, args.k, args.seed)
    election = generate(params)
    sys.stdout.write(dump_election(election) + "\n")
    return EXIT_OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    election = fixture(args.name)
    sys.stdout.write(dump_election(election) + "\n")
    return EXIT_OK


def _cmd_verify_run(args: argparse.Namespace) -> int:
    election = load_election(_read_text(args.election))
    payload = _read_json(args.sequence)
    if not isinstance(payload, dict) or not isinstance(payload.get("sequence"), list):
        raise ElectionError('sequence file must be an object with a "sequence" list')
    sequence = [
        matching_from_name_pairs(election, item.get("pairs") if isinstance(item, dict) else item)
        for item in payload["sequence"]
    ]
    weights = _load_weights(args.weights) if args.weights else None
    certificate = verify_run(election, args.rule, sequence, weights)
    out = {
        "rule": certificate.rule,
        "valid": certificate.valid,
        "rounds": [
            {
                "round": i + 1,
                "optimum": format_rational(r.optimum),
                "achieved": format_rational(r.achieved) if r.achieved is not None else None,
                "chosen": matching_to_name_pairs(election, r.chosen),
                "valid": r.valid,
            }
            for i, r in enumerate(certificate.rounds)
        ],
    }
    if not certificate.valid:
        out["first_invalid"] = certificate.first_invalid
        out["message"] = certificate.message
    _emit(out)
    return EXIT_OK if certificate.valid else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchvote",
        description="Committees of matchings for approval-based matching elections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a committee rule")
    p.add_argument("--rule", required=True, choices=RULES)
    p.add_argument("--weights", default="pav", help="pav, av, cc or custom:FILE")
    p.add_argument("--completion", default="none", choices=("none", "fill"))
    p.add_argument("-k", type=int, default=None, help="override the election's k")
    p.add_argument("election", help="election JSON file, or - for stdin")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="audit a committee against an axiom")
    p.add_argument("--axiom", required=True, choices=("ejr", "pjr", "core"))
    p.add_argument("--committee", required=True, help="committee JSON file")
    p.add_argument("election")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("analyze", help="classification and matching structure")
    p.add_argument("election")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="list all candidates (guarded)")
    p.add_argument("--max-edges", type=int, default=DEFAULT_EDGE_GUARD)
    p.add_argument("election")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gen", help="sample a random election")
    p.add_argument("--class", dest="election_class", required=True,
                   choices=("general", "bipartite", "symmetric"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, required=True)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fixtures", help="emit a named benchmark instance")
    p.add_argument("--name", required=True, choices=FIXTURE_NAMES)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("verify-run", help="certify a selection sequence")
    p.add_argument("--rule", required=True, choices=VERIFIABLE_RULES)
    p.add_argument("--weights", default=None, help="needed for seq-thiele")
    p.add_argument("--sequence", required=True, help="JSON file with a sequence of matchings")
    p.add_argument("election")
    p.set_defaults(func=_cmd_verify_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ElectionError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
