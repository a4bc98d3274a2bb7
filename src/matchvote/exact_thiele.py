"""Exact (non-sequential) w-Thiele optimization.

Bipartite elections are solved in polynomial time by one weighted approval
winner call on a meta-election with k weighted copies of every agent: copy
i of agent a is node a*k + i - 1, carries weight w_i and approves every copy
of the agents that a approves.  Copies of one agent are interchangeable, so
the winner collapses straight onto agents (node // k) as a bipartite
multigraph of maximum degree k; padding it to k-regular (side-equalizing
dummies, free degree slots paired in agent order) and splitting it into k
perfect matchings yields the committee.

Symmetric elections reduce to a bipartite stand-in psi through the
Gallai-Edmonds decomposition: only the matching between inessential nodes
and their boundary carries information, everything else is matched the
same way in every candidate.  psi's optimal committee lifts back member by
member: psi's boundary pairs, the core's fixed perfect matching, and a
perfect matching of each inessential component minus its designated agent.
When psi is degenerate the committee is k copies of the core matching.

General elections fall back to the guarded exhaustive search of
``harness.oracle_optimal_committee``, since exact optimization there is
NP-hard even for k = 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .errors import ElectionError, EngineError, GuardExceeded
from .model import (
    Committee,
    Matching,
    MatchingElection,
    Pair,
    WeightSequence,
    approvers,
    classify,
    committee_size,
    happiness,
    thiele_score,
)
from .engine import (
    WeightedGraph,
    approval_weight,
    gallai_edmonds,
    is_candidate,
    max_weight_matching,
    weighted_approval_winner,
)
from .harness import (
    DEFAULT_EDGE_GUARD,
    DEFAULT_MULTISET_GUARD,
    check_guard,
    oracle_optimal_committee,
)

ONE = Fraction(1)

# The largest meta-election ``bipartite_thiele`` builds, in edges (approval
# edges x k^2).  ``gen --class bipartite -n 6 -p 0.5 -k 2 --seed 1`` (8
# approval edges) at k = 100 has 80,000 and solves in about 10 s on 2 CPUs
# under Python 3.11; solve time and memory grow faster than the edge count,
# and the prop-seq-core fixture's 1,430,996 ran over 9 minutes and reached
# 1.1 GiB before it was stopped.
MAX_META_EDGES = 200_000


@dataclass(frozen=True)
class ThieleOutcome:
    committee: Committee
    score: Fraction
    method: str


def _k_regular_multigraph(
    pairs: Sequence[Pair], partition: tuple[tuple[int, ...], tuple[int, ...]], n: int, k: int
) -> tuple[dict[Pair, int], int]:
    """Pad a bipartite multigraph of maximum degree k to a k-regular one.

    Dummies n, n+1, ... join the smaller side until both sides have the same
    size; then the free degree slots of each side, listed in agent order,
    are paired across.  Returns the edge multiplicities and the node count
    including the dummies.
    """
    side1, side2 = sorted(partition[0]), sorted(partition[1])
    padded = n + abs(len(side1) - len(side2))
    (side2 if len(side1) > len(side2) else side1).extend(range(n, padded))
    degree = [0] * padded
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    free1 = [a for a in side1 for _ in range(k - degree[a])]
    free2 = [b for b in side2 for _ in range(k - degree[b])]
    if len(free1) != len(free2):
        raise EngineError("free degree slots are unbalanced across the bipartition")
    counts: dict[Pair, int] = {}
    for u, v in [*pairs, *zip(free1, free2)]:
        key = (min(u, v), max(u, v))
        counts[key] = counts.get(key, 0) + 1
    degree = [0] * padded
    for (u, v), c in counts.items():
        degree[u] += c
        degree[v] += c
    if any(d != k for d in degree):
        raise EngineError("collapsed multigraph is not k-regular")
    return counts, padded


def _extract_perfect_matchings(counts: dict[Pair, int], n: int, k: int) -> list[Matching]:
    """Split a k-regular bipartite multigraph on n nodes into k perfect
    matchings.

    Removing a perfect matching keeps the multigraph regular, so by Hall's
    theorem a perfect matching exists at every step; each step takes one
    unit-weight matching solve on the support graph.
    """
    remaining = dict(counts)
    matchings = []
    for _ in range(k):
        support = WeightedGraph.of(n, [(u, v, ONE) for (u, v), c in remaining.items() if c > 0])
        pm = max_weight_matching(support)
        if 2 * len(pm.pairs) != n:
            raise EngineError("regular multigraph lost its perfect matching")
        for pair in pm.pairs:
            remaining[pair] -= 1
        matchings.append(pm)
    if any(c != 0 for c in remaining.values()):
        raise EngineError("perfect matching extraction left edges behind")
    return matchings


def _minimize(election: MatchingElection, matching: Matching) -> Matching:
    kept = [
        (a, b)
        for a, b in matching.pairs
        if a < election.n
        and b < election.n
        and (b in election.approvals[a] or a in election.approvals[b])
    ]
    return Matching.of(kept)


def bipartite_thiele(
    election: MatchingElection,
    weights: WeightSequence,
    k: int | None = None,
) -> ThieleOutcome:
    """Optimal w-Thiele committee of a bipartite election, in one oracle call
    on the meta-election plus k matching extractions.  Raises
    ``GuardExceeded`` when the meta-election would have more than
    ``MAX_META_EDGES`` edges."""
    size = committee_size(election, k)
    cls = classify(election)
    if not cls.bipartite:
        raise ElectionError("bipartite_thiele requires a bipartite election")
    assert cls.bipartition is not None
    meta_edges = len(election.approval_graph.undirected_edges) * size**2
    if meta_edges > MAX_META_EDGES:
        raise GuardExceeded(
            f"the meta-election would have {meta_edges} edges (approval edges x k^2), "
            f"over the guard of {MAX_META_EDGES}"
        )
    n = election.n
    # Copy i of agent a is node a*size + i - 1; it carries w_i and approves
    # every copy of the agents that a approves.
    meta = MatchingElection(
        tuple(f"{name}#{i}" for name in election.names for i in range(1, size + 1)),
        tuple(
            frozenset(b * size + j for b in approved for j in range(size))
            for approved in election.approvals
            for _ in range(size)
        ),
        1,
    )
    meta_weights = [weights[i] for _ in range(n) for i in range(1, size + 1)]
    winner = weighted_approval_winner(meta, meta_weights)
    # Copies of one agent are twins, so the winner matters only through the
    # agent pairs it matches.
    pairs = [(a // size, b // size) for a, b in winner.pairs]
    counts, padded = _k_regular_multigraph(pairs, cls.bipartition, n, size)
    members = [_minimize(election, m) for m in _extract_perfect_matchings(counts, padded, size)]
    committee = Committee.from_sequence(members).without_trace()
    for member in committee.support:
        if not is_candidate(election, member):
            raise EngineError("extracted matching is not a candidate")
    satisfied = [0] * n
    for u, v in pairs:
        satisfied[u] += v in election.approvals[u]
        satisfied[v] += u in election.approvals[v]
    if happiness(election, committee) != tuple(satisfied):
        raise EngineError("extraction changed some agent's happiness")
    score = thiele_score(election, weights, committee)
    if score != approval_weight(meta, meta_weights, winner):
        raise EngineError("committee score does not match the meta-matching weight")
    return ThieleOutcome(committee, score, "bipartite")


# ---------------------------------------------------------------------------
# Symmetric elections via Gallai-Edmonds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricReduction:
    """Bipartite stand-in for a symmetric election.

    One side holds the inessential agents; the other holds their boundary
    plus, per inessential component of size s, s-1 dummies approving that
    whole component.  Core agents and all intra-component detail are fixed:
    the core's perfect matching is chosen once, and each component is
    near-perfectly matched on demand around its designated unmatched agent.
    ``psi_to_base`` maps psi's real agents (the inessential ones, then the
    boundary) to the election's; the dummies follow them.  ``psi`` is None
    for the degenerate case where no decision remains (then every candidate
    matches exactly the core).
    """

    base: MatchingElection
    psi: MatchingElection | None
    inessential: tuple[int, ...]
    boundary: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    core_matching: Matching
    psi_to_base: tuple[int, ...]


def symmetric_to_bipartite(election: MatchingElection) -> SymmetricReduction:
    """Build the bipartite reduction of a symmetric election.

    Every candidate matches the core perfectly, matches each boundary agent
    into a distinct inessential component, and near-perfectly matches each
    component; the only degree of freedom is which inessential agents pair
    with the boundary and which one per component stays unmatched.  The
    reduction exposes exactly that choice as a bipartite election.
    """
    cls = classify(election)
    if not cls.symmetric:
        raise ElectionError("symmetric_to_bipartite requires a symmetric election")
    graph = WeightedGraph.of(
        election.n, [(a, b, ONE) for a, b in election.approval_graph.undirected_edges]
    )
    decomposition = gallai_edmonds(graph)
    core = set(decomposition.core)
    core_edges = [(a, b, ONE) for a, b, _ in graph.edges if a in core and b in core]
    core_matching = max_weight_matching(WeightedGraph.of(election.n, core_edges))
    if 2 * len(core_matching.pairs) != len(core):
        raise EngineError("core does not admit a perfect matching")

    psi_to_base = decomposition.inessential + decomposition.boundary
    base_to_psi = {b: i for i, b in enumerate(psi_to_base)}
    boundary = set(decomposition.boundary)
    names = [election.names[b] for b in psi_to_base]
    approvals: list[set[int]] = [set() for _ in psi_to_base]
    for y in decomposition.inessential:
        for x in election.approvals[y] & boundary:
            approvals[base_to_psi[y]].add(base_to_psi[x])
            approvals[base_to_psi[x]].add(base_to_psi[y])
    for ci, comp in enumerate(decomposition.components):
        for j in range(len(comp) - 1):
            name = f"~d{ci}.{j}"
            while name in names:
                name += "'"
            names.append(name)
            approvals.append({base_to_psi[y] for y in comp})
            for y in comp:
                approvals[base_to_psi[y]].add(len(names) - 1)
    psi: MatchingElection | None
    if len(names) < 2 or all(not s for s in approvals):
        psi = None
    else:
        psi = MatchingElection(
            tuple(names), tuple(frozenset(s) for s in approvals), election.k
        )
    return SymmetricReduction(
        election,
        psi,
        decomposition.inessential,
        decomposition.boundary,
        decomposition.components,
        core_matching,
        psi_to_base,
    )


def lift_committee(reduction: SymmetricReduction, psi_committee: Committee) -> Committee:
    """Map a committee of the reduction back to the symmetric election.

    Per matching: keep the boundary pairs, add the fixed core matching, and
    near-perfectly match every component around its designated agent (the
    boundary-matched one if any, else the one left unmatched in the
    reduction).  Inessential agents keep their per-matching happiness
    exactly; core and boundary agents approve every lifted matching.
    """
    if reduction.psi is None:
        raise ElectionError("degenerate reduction has no bipartite election to lift from")
    psi = reduction.psi
    base = reduction.base
    n_real = len(reduction.psi_to_base)
    component_of = {
        y: ci for ci, comp in enumerate(reduction.components) for y in comp
    }

    @cache
    def near_perfect(ci: int, excluded: int) -> tuple[Pair, ...]:
        """Perfect matching of component ci minus its agent ``excluded``."""
        rest = set(reduction.components[ci]) - {excluded}
        edges = [
            (a, b, ONE)
            for a, b in base.approval_graph.undirected_edges
            if a in rest and b in rest
        ]
        m = max_weight_matching(WeightedGraph.of(base.n, edges))
        if 2 * len(m.pairs) != len(rest):
            raise EngineError("component minus one agent lost its perfect matching")
        return m.pairs

    counts: dict[Matching, int] = {}
    for psi_matching, count in psi_committee.entries:
        if not is_candidate(psi, psi_matching):
            raise ElectionError("lift_committee requires candidates of the reduction")
        # Every pair is now an approval edge of psi: an inessential agent
        # (the lower index) with a boundary agent or a dummy.
        pairs = list(reduction.core_matching.pairs)
        designated: dict[int, int] = {}
        matched: set[int] = set()
        for psi_y, partner in psi_matching.pairs:
            y = reduction.psi_to_base[psi_y]
            matched.add(y)
            if partner < n_real:
                x = reduction.psi_to_base[partner]
                pairs.append((x, y))
                ci = component_of[y]
                if ci in designated:
                    raise EngineError("two agents of one component matched to the boundary")
                designated[ci] = y
        for ci, comp in enumerate(reduction.components):
            if ci not in designated:
                unmatched = [y for y in comp if y not in matched]
                if len(unmatched) != 1:
                    raise EngineError("component has no unique designated agent")
                designated[ci] = unmatched[0]
            pairs.extend(near_perfect(ci, designated[ci]))
        lifted = Matching.of(pairs)
        lifted_approvers = approvers(base, lifted)
        psi_approvers = approvers(psi, psi_matching)
        for psi_y, y in enumerate(reduction.inessential):
            if (psi_y in psi_approvers) != (y in lifted_approvers):
                raise EngineError("lift changed an inessential agent's happiness")
        counts[lifted] = counts.get(lifted, 0) + count
    return Committee.from_counts(counts)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def exact_thiele(
    election: MatchingElection,
    weights: WeightSequence,
    k: int | None = None,
    *,
    max_edges: int = DEFAULT_EDGE_GUARD,
    max_multisets: int = DEFAULT_MULTISET_GUARD,
) -> ThieleOutcome:
    """Optimal w-Thiele committee: polynomial algorithms for bipartite and
    symmetric elections, guarded exhaustive search otherwise."""
    size = committee_size(election, k)
    check_guard("max_edges", max_edges)
    check_guard("max_multisets", max_multisets)
    cls = classify(election)
    if cls.bipartite:
        return bipartite_thiele(election, weights, size)
    if cls.symmetric:
        reduction = symmetric_to_bipartite(election)
        if reduction.psi is None:
            committee = Committee.from_counts({reduction.core_matching: size})
        else:
            psi_outcome = bipartite_thiele(reduction.psi, weights, size)
            committee = lift_committee(reduction, psi_outcome.committee)
        return ThieleOutcome(
            committee, thiele_score(election, weights, committee), "symmetric"
        )
    try:
        committee, score = oracle_optimal_committee(
            election, weights, size, max_edges=max_edges, max_multisets=max_multisets
        )
    except GuardExceeded as exc:
        raise GuardExceeded(
            f"{exc}; exact w-Thiele on general matching elections is NP-hard "
            f"even for k = 2, so no unguarded fallback exists"
        ) from exc
    return ThieleOutcome(committee, score, "brute-force")
