"""Independent brute-force oracles used by the tests.

Everything here but ``wide_tiebreak``, ``replay_run`` and
``meta_oracle_thiele`` enumerates: no blossom solves, no
weighted-approval-winner calls, no crossing search.  These functions
define ground truth for the library's algorithmic paths and must stay
independent of them.  ``wide_tiebreak`` is one certified solve of the
whole graph on bonus-bit weights, independent of the engine's tie-break
routes, for graphs too large to enumerate.  ``replay_run`` is the slow
twin of ``verify_run``: it searches every round's optimum with the rule's
own step and tests every member's candidacy up front.
``meta_oracle_thiele`` is the slow twin of ``bipartite_thiele``'s
agent-level flow: the paper's one cold weighted-approval-winner call on
the meta-election.  ``explore_twin`` is the slow twin of
``explore_cowinners``: it solves every round of every tie-breaking path
again, with no memo of the states already seen.  ``gallai_edmonds_twin``
is the slow twin of ``gallai_edmonds``: one certified solve per node, by
the decomposition's definition.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from matchvote import (
    Committee, EngineError, GuardExceeded, Matching, MatchingElection, WeightedGraph, approvers,
)
from matchvote.blossom import certified_matching
from matchvote.engine import (
    GallaiEdmondsDecomposition, _lexicographic_minimum, approval_weight, is_candidate,
    weighted_approval_winner,
)
from matchvote.exact_thiele import ThieleOutcome, _bipartition, _meta_election, _outcome
from matchvote.harness import DEFAULT_EDGE_GUARD, enumerate_candidates
from matchvote.model import Pair, WeightSequence, committee_size
from matchvote.sequential import RunCertificate, VerifiedRound, _canonical_winner, _rule_step

ZERO = Fraction(0)
ONE = Fraction(1)


def iter_matchings(edges):
    """All matchings inside an edge set, as sorted pair tuples."""
    edges = sorted(edges)

    def extend(i, used, acc):
        if i == len(edges):
            yield acc
            return
        yield from extend(i + 1, used, acc)
        u, v = edges[i]
        if u not in used and v not in used:
            yield from extend(i + 1, used | {u, v}, acc + ((u, v),))

    yield from extend(0, frozenset(), ())


def brute_max_weight(edge_triples) -> tuple[Fraction, tuple[Pair, ...]]:
    """Exhaustive maximum-weight matching with the canonical tie-break
    (lexicographically smallest sorted pair tuple, prefixes first)."""
    weight_of = {(u, v): Fraction(w) for u, v, w in edge_triples}
    best_value = ZERO
    best_pairs: tuple[Pair, ...] = ()
    for pairs in iter_matchings(list(weight_of)):
        value = sum((weight_of[p] for p in pairs), ZERO)
        if value > best_value or (value == best_value and pairs < best_pairs):
            best_value, best_pairs = value, pairs
    return best_value, best_pairs


def bonus_bit_edges(edge_triples) -> list[tuple[int, int, int]]:
    """The edges (u, v, w), in canonical order, with their rational weights
    rescaled to integers by their common denominator and m bits wider (m
    edges): edge i gets (weight * scale) << m | 1 << (m-1-i)."""
    m = len(edge_triples)
    scale = lcm(*(Fraction(w).denominator for _, _, w in edge_triples))
    return [
        (u, v, (int(w * scale) << m) | (1 << (m - 1 - i)))
        for i, (u, v, w) in enumerate(edge_triples)
    ]


def wide_tiebreak(graph: WeightedGraph) -> Matching:
    """Canonical optimum from one solve on the bonus-bit weights.  The
    bonus bits sum to less than one unit of true weight, so the solve still
    returns a maximum-weight matching; among those it maximizes the bonus,
    i.e. returns the binary-maximal optimum.  Works on every graph."""
    return _lexicographic_minimum(graph, certified_matching(bonus_bit_edges(graph.edges))[0])


def brute_matching_number(edges) -> int:
    return max(len(pairs) for pairs in iter_matchings(edges))


def brute_candidates(election: MatchingElection) -> list[Matching]:
    """Pareto filter over all matchings of the approval graph."""
    edges = election.approval_graph.undirected_edges
    entries = [
        (pairs, approvers(election, Matching(pairs))) for pairs in iter_matchings(edges)
    ]
    sets = {a for _, a in entries}
    return sorted(
        Matching(pairs)
        for pairs, approved in entries
        if not any(approved < other for other in sets)
    )


def brute_waw_value(election: MatchingElection, agent_weights) -> Fraction:
    """Maximum summed approver weight over all matchings."""
    best = ZERO
    for pairs in iter_matchings(election.approval_graph.undirected_edges):
        value = sum(
            (Fraction(agent_weights[a]) for a in approvers(election, Matching(pairs))),
            ZERO,
        )
        best = max(best, value)
    return best


def happiness_of(election: MatchingElection, members) -> list[int]:
    h = [0] * election.n
    for m in members:
        for a in approvers(election, m):
            h[a] += 1
    return h


def phragmen_round_optimum(election, candidates, budgets) -> Fraction | None:
    """Earliest time any candidate's supporter group reaches one dollar."""
    best = None
    for c in candidates:
        group = approvers(election, c)
        total = sum((budgets[a] for a in group), ZERO)
        if not group:
            continue
        t = max(ZERO, (ONE - total) / len(group))
        if best is None or t < best:
            best = t
    return best


def rulex_round_optimum(election, candidates, budgets) -> Fraction | None:
    """Minimal price q at which some candidate's supporters can pay one
    dollar with per-agent caps min(budget, q); None if unaffordable."""
    best = None
    for c in candidates:
        group_budgets = sorted(budgets[a] for a in approvers(election, c))
        if sum(group_budgets, ZERO) < 1:
            continue
        paid = ZERO
        q = None
        for i, b in enumerate(group_budgets):
            payers = len(group_budgets) - i
            if paid + payers * b >= 1:
                q = (ONE - paid) / payers
                break
            paid += b
        assert q is not None
        if best is None or q < best:
            best = q
    return best


def brute_ejr_violation(election, candidates, h) -> tuple[int, frozenset[int]] | None:
    """Scan every candidate for a deprived cohesive group rather than using
    the oracle reduction: a violating group commonly approves some
    candidate, so its marked approvers witness the violation."""
    n, k = election.n, election.k
    for ell in range(1, k + 1):
        for c in candidates:
            group = frozenset(
                a for a in approvers(election, c) if h[a] < ell
            )
            if Fraction(len(group)) >= Fraction(ell * n, k):
                return ell, group
    return None


def brute_pjr_violation(election, candidates, committee) -> tuple[int, frozenset[int]] | None:
    """Check every agent subset that commonly approves a candidate."""
    n, k = election.n, election.k
    member_counts = committee.multiset()
    approved_in_committee = {
        a: {m for m in member_counts if a in approvers(election, m)}
        for a in range(n)
    }
    for ell in range(1, k + 1):
        threshold = Fraction(ell * n, k)
        for c in candidates:
            base = sorted(approvers(election, c))
            for size in range(1, len(base) + 1):
                if Fraction(size) < threshold:
                    continue
                for group in combinations(base, size):
                    union: set = set()
                    for a in group:
                        union |= approved_in_committee[a]
                    if sum(member_counts[m] for m in union) < ell:
                        return ell, frozenset(group)
    return None


def replay_run(election: MatchingElection, rule: str, sequence, weights=None) -> RunCertificate:
    """``verify_run`` by full replay: every member's candidacy first, by
    its Pareto solve, then each round's optimum searched as the rule
    searches it, and the chosen candidate's weight there."""
    step = _rule_step(rule, weights, "verify_run")
    if len(sequence) > election.k:
        return RunCertificate(
            rule, False, (), 1, f"sequence has {len(sequence)} rounds but k = {election.k}"
        )
    for i, m in enumerate(sequence):
        if not is_candidate(election, m):
            return RunCertificate(
                rule, False, (), i + 1, f"round {i + 1} selects a non-candidate matching"
            )

    rounds = []
    state = step.initial(election, election.k)
    for i, chosen in enumerate(sequence, 1):
        best = step.optimum(election, state)
        if best is None:
            message = f"round {i}: no candidate is affordable, the rule has stopped"
            return RunCertificate(rule, False, tuple(rounds), i, message)
        achieved = approval_weight(election, step.weights(state, best.value), chosen)
        ok = achieved == best.target
        rounds.append(VerifiedRound(best.value, achieved, chosen, ok))
        if not ok:
            message = f"round {i}: " + step.mismatch.format(achieved=achieved, value=best.value)
            return RunCertificate(rule, False, tuple(rounds), i, message)
        state = step.advance(election, state, chosen, best.value)
    return RunCertificate(rule, True, tuple(rounds), None)


def meta_oracle_thiele(
    election: MatchingElection, weights: WeightSequence, k: int | None = None
) -> tuple[Matching, ThieleOutcome]:
    """``bipartite_thiele`` by the paper's route: the meta-election's
    winner from one cold canonical-tier call, a blossom solve of k^2
    copies of every approval edge, then the same collapse and extraction.
    Returns the winner and the outcome."""
    size = committee_size(election, k)
    partition = _bipartition(election)
    meta, meta_weights = _meta_election(election, weights, size)
    winner = weighted_approval_winner(meta, meta_weights)
    return winner, _outcome(election, partition, weights, size, meta, meta_weights, winner)


def explore_twin(
    election: MatchingElection,
    rule: str,
    weights: WeightSequence | None = None,
    *,
    max_edges: int = DEFAULT_EDGE_GUARD,
    max_states: int = 20000,
) -> frozenset[Committee]:
    """``explore_cowinners`` path by path: every node of the tie-breaking
    walk solves its round again, checks the enumerated candidates'
    optimum and the canonical winner, and weighs each candidate with
    ``approval_weight``."""
    step = _rule_step(rule, weights, "explore_cowinners")
    candidates = enumerate_candidates(election, max_edges=max_edges)
    outcomes: set[Committee] = set()
    visited = 0
    stack = [(step.initial(election, election.k), ())]
    while stack:
        state, picks = stack.pop()
        visited += 1
        if visited > max_states:
            raise GuardExceeded(
                f"co-winner exploration exceeded {max_states} states; "
                f"the co-winner set can be exponential"
            )
        best = step.optimum(election, state) if len(picks) < election.k else None
        if best is None:
            # Full committee, or a purchasing rule stopped early.
            outcomes.add(Committee.from_sequence(picks).without_trace())
            continue
        weights = step.weights(state, best.value)
        achieved = [approval_weight(election, weights, c) for c in candidates]
        if max(achieved) != best.target:
            raise EngineError(
                f"round {len(picks) + 1}: the oracle's round optimum reaches {best.target} "
                f"but the enumerated candidates reach {max(achieved)}"
            )
        _canonical_winner(election, step, state, best, "the enumerated candidates")
        for chosen, value in zip(candidates, achieved):
            if value == best.target:
                stack.append((step.advance(election, state, chosen, best.value), picks + (chosen,)))
    return frozenset(outcomes)


def gallai_edmonds_twin(graph: WeightedGraph) -> GallaiEdmondsDecomposition:
    """The Gallai-Edmonds decomposition by its definition, weights ignored:
    D is the nodes v with nu(G - v) = nu(G), one certified unit-weight
    solve each; A is D's neighbours outside D and C the rest; the
    components are those of D's subgraph, found by depth-first search."""
    edges = [(u, v) for u, v, _ in graph.edges]

    def matching_number(pairs) -> int:
        return len(certified_matching([(u, v, 1) for u, v in pairs])[0])

    nu = matching_number(edges)
    inessential = [
        v for v in range(graph.n) if matching_number([e for e in edges if v not in e]) == nu
    ]
    in_d = set(inessential)
    boundary = sorted({x for e in edges for x in e if x not in in_d and in_d.intersection(e)})
    core = [v for v in range(graph.n) if v not in in_d and v not in boundary]
    adjacency: dict[int, list[int]] = {v: [] for v in inessential}
    for u, v in edges:
        if u in in_d and v in in_d:
            adjacency[u].append(v)
            adjacency[v].append(u)
    components = []
    seen: set[int] = set()
    for root in inessential:
        if root in seen:
            continue
        seen.add(root)
        stack, component = [root], []
        while stack:
            v = stack.pop()
            component.append(v)
            for u in adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        components.append(tuple(sorted(component)))
    return GallaiEdmondsDecomposition(
        tuple(inessential), tuple(boundary), tuple(core), tuple(sorted(components))
    )
