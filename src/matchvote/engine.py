"""Exact matching engine: maximum-weight matching, the weighted approval
winner oracle in two tiers, Pareto repair, candidate tests and the
Gallai-Edmonds decomposition.

All weights are exact rationals.  Blossom solves go through networkx on a
losslessly rescaled integer instance (multiplying all weights by the common
denominator preserves the optimum set and every tie exactly, and routes
networkx onto its all-integer code path, which is exact and self-verifying).
Ties among optimal matchings are broken to the lexicographically smallest
canonical pair set, with a shorter matching preceding its extensions.

The oracle has two tiers.  The *value* tier (``weighted_approval_value``)
is one plain blossom solve: the optimum and the approver group of some
optimal matching, enough for every probe whose answer is only a number.
The *canonical* tier (``weighted_approval_winner``) returns the one winner
the tie-break names: a solve on integers m bits wider (m edges), then a
Pareto repair, which is skipped when every agent weight is positive
because every approval edge then weighs more than zero, so the winner is
already a candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import networkx as nx

from .errors import ElectionError, EngineError
from .model import Matching, MatchingElection, Pair, approvers, is_minimal

ZERO = Fraction(0)
ONE = Fraction(1)

EdgeTriple = tuple[int, int, Fraction]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with exact non-negative rational edge weights."""

    n: int
    edges: tuple[EdgeTriple, ...]

    def __post_init__(self) -> None:
        seen: set[Pair] = set()
        for u, v, w in self.edges:
            if u == v:
                raise ElectionError(f"self-loop at node {u}")
            if not (0 <= u < v < self.n):
                raise ElectionError(f"edge ({u},{v}) is not canonical or out of range")
            if (u, v) in seen:
                raise ElectionError(f"duplicate edge ({u},{v})")
            if w < 0:
                raise ElectionError(f"negative weight on edge ({u},{v})")
            seen.add((u, v))
        if list(self.edges) != sorted(self.edges):
            raise ElectionError("edges are not sorted canonically")

    @staticmethod
    def of(n: int, edges) -> "WeightedGraph":
        canon = sorted((min(u, v), max(u, v), Fraction(w)) for u, v, w in edges)
        return WeightedGraph(n, tuple(canon))


def _solve(edges: Sequence[EdgeTriple], tiebreak: bool) -> list[Pair]:
    """One networkx blossom run; returns the matched pairs, sorted.

    Rescales rational weights to integers by the common denominator, which
    changes no comparison between matchings; ``tiebreak`` adds the bonus
    bits of ``max_weight_matching``.
    """
    if not edges:
        return []
    m = len(edges)
    scale = lcm(*(w.denominator for _, _, w in edges))
    graph = nx.Graph()
    for i, (u, v, w) in enumerate(edges):
        weight = (w * scale).numerator
        if tiebreak:
            weight = (weight << m) | (1 << (m - 1 - i))
        graph.add_edge(u, v, weight=weight)
    mate = nx.max_weight_matching(graph, maxcardinality=False)
    return sorted((min(u, v), max(u, v)) for u, v in mate)


def _blossom(edges: Sequence[EdgeTriple]) -> tuple[Fraction, tuple[Pair, ...]]:
    """One exact blossom run; returns (optimal weight, some optimal matching)."""
    pairs = _solve(edges, tiebreak=False)
    weight_of = {(u, v): w for u, v, w in edges}
    return sum((weight_of[p] for p in pairs), ZERO), tuple(pairs)


def max_weight_value(graph: WeightedGraph) -> Fraction:
    """Weight of a maximum-weight matching (no tie-breaking work)."""
    return _blossom(graph.edges)[0]


def max_weight_matching(graph: WeightedGraph) -> Matching:
    """Maximum-weight matching, lexicographically smallest among optima.

    One blossom call decides the tie-break: edge i (in canonical order, m
    edges total) gets integer weight  (weight * scale) << m | 1 << (m-1-i).
    The bonus bits sum to less than one unit of true weight, so the solve
    still returns a maximum-weight matching; among those it maximizes the
    bonus, i.e. returns the optimum whose edge-indicator vector is binary
    maximal (it contains the smallest edge contained in any optimum, then
    the smallest compatible one, and so on).  That matching agrees with the
    lexicographic minimum except for a trailing run of zero-weight edges,
    which a shorter optimum (a strict list prefix) makes superfluous, so
    dropping the trailing zero-weight edges yields the lexicographic
    minimum exactly.
    """
    pairs = _solve(graph.edges, tiebreak=True)
    weight_of = {(u, v): w for u, v, w in graph.edges}
    while pairs and weight_of[pairs[-1]] == 0:
        pairs.pop()
    return Matching(tuple(pairs))


def _approval_weighted_graph(
    election: MatchingElection, agent_weights: Sequence[Fraction]
) -> WeightedGraph:
    """Edge weights summing the weights of approving endpoints, so that any
    matching's edge weight equals the total weight of its approvers."""
    graph = election.approval_graph
    edges = []
    for a, b in graph.mutual:
        edges.append((a, b, agent_weights[a] + agent_weights[b]))
    for a, b in graph.directed:
        edges.append((min(a, b), max(a, b), agent_weights[a]))
    return WeightedGraph.of(election.n, edges)


def _check_agent_weights(election: MatchingElection, weights: Sequence[Fraction]) -> list[Fraction]:
    if len(weights) != election.n:
        raise ElectionError(f"expected {election.n} agent weights, got {len(weights)}")
    out = [Fraction(w) for w in weights]
    if any(w < 0 for w in out):
        raise ElectionError("agent weights must be non-negative")
    return out


def _repair_graph(election: MatchingElection, supporters: frozenset[int]) -> WeightedGraph:
    """Approval graph under the repair weights: supporters n+1, every other
    agent 1, so satisfying one more supporter outweighs all other agents."""
    bonus = Fraction(election.n + 1)
    return _approval_weighted_graph(
        election, [bonus if a in supporters else ONE for a in range(election.n)]
    )


def is_candidate(election: MatchingElection, matching: Matching) -> bool:
    """True iff the matching is minimal and Pareto-optimal.

    Minimality: every pair is approved by at least one endpoint.  Pareto
    optimality is decided by one blossom run: re-weight approvers of the
    matching to n+1 and everyone else to 1; the matching is undominated
    exactly when no matching beats (n+1) * |approvers|.
    """
    if not is_minimal(election, matching):
        return False
    supporters = approvers(election, matching)
    best = max_weight_value(_repair_graph(election, supporters))
    return best == (election.n + 1) * len(supporters)


def pareto_repair(election: MatchingElection, matching: Matching) -> Matching:
    """Extend a minimal matching to a minimal, Pareto-optimal one that keeps
    all of its approvers satisfied.  Candidates are returned unchanged.

    Re-weights current approvers to n+1 and all other agents to 1; any
    maximum-weight matching under these weights preserves the approver set
    and is Pareto-optimal.
    """
    if not is_minimal(election, matching):
        raise ElectionError("pareto_repair requires a minimal matching")
    if is_candidate(election, matching):
        return matching
    supporters = approvers(election, matching)
    repaired = max_weight_matching(_repair_graph(election, supporters))
    if not supporters <= approvers(election, repaired):
        raise EngineError("Pareto repair lost an approver")
    return repaired


def weighted_approval_value(
    election: MatchingElection, agent_weights: Sequence[Fraction]
) -> tuple[Fraction, frozenset[int]]:
    """Value tier of the oracle: the maximum summed weight of a matching's
    approvers, and the approver group of some matching attaining it.

    One plain blossom solve, with no tie-break and no Pareto repair, and
    none at all when every weight is zero (the optimum is then 0, attained
    by the empty group).  The group need not be a candidate's, but a repair
    never loses an approver, so some candidate's group contains it and
    carries the same weight.
    """
    weights = _check_agent_weights(election, agent_weights)
    if not any(weights):
        return ZERO, frozenset()
    value, pairs = _blossom(_approval_weighted_graph(election, weights).edges)
    group = approvers(election, Matching(pairs))
    if sum((weights[a] for a in group), ZERO) != value:
        raise EngineError("the approvers of an optimal matching do not carry its weight")
    return value, group


def weighted_approval_winner(
    election: MatchingElection, agent_weights: Sequence[Fraction]
) -> Matching:
    """Canonical tier of the oracle: the candidate maximizing the summed
    weight of its approvers, ties broken canonically.

    Phase 1 finds the canonical maximum-weight matching of the approval
    graph under edge weights that total the approvers' agent weights; phase
    2 repairs it to a Pareto-optimal candidate without losing weight, also
    canonically.  With every agent weight positive, phase 1 already returns
    a candidate and phase 2 is skipped: each of its pairs carries positive
    weight, so it is minimal, and a matching whose approvers strictly
    contain its own would weigh strictly more.
    """
    weights = _check_agent_weights(election, agent_weights)
    winner = max_weight_matching(_approval_weighted_graph(election, weights))
    if all(w > 0 for w in weights):
        return winner
    return pareto_repair(election, winner)


def approval_weight(
    election: MatchingElection, agent_weights: Sequence[Fraction], matching: Matching
) -> Fraction:
    """Total agent weight of the matching's approvers."""
    return sum((Fraction(agent_weights[a]) for a in approvers(election, matching)), ZERO)


@dataclass(frozen=True)
class GallaiEdmondsDecomposition:
    """Structure of all maximum matchings of an undirected graph.

    ``inessential`` (D in the standard notation) are the nodes missed by at
    least one maximum matching; ``boundary`` (A) their outside neighbors;
    ``core`` (C) the rest.  ``components`` are the connected components of
    the subgraph induced by the inessential nodes; each is factor-critical.
    """

    inessential: tuple[int, ...]
    boundary: tuple[int, ...]
    core: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def _unit_edges(edges: Sequence[Pair]) -> list[EdgeTriple]:
    return [(u, v, Fraction(1)) for u, v in edges]


def _matching_number(edges: Sequence[Pair]) -> int:
    value, _ = _blossom(_unit_edges(edges))
    return int(value)


def gallai_edmonds(graph: WeightedGraph) -> GallaiEdmondsDecomposition:
    """Gallai-Edmonds decomposition of the graph, weights ignored.

    A node is inessential iff removing it leaves the matching number
    unchanged, decided by one maximum-cardinality matching per node.  The
    three structural guarantees and the deficiency count are re-verified
    against the one maximum matching of the whole graph before returning;
    a failure signals an engine bug rather than bad input.
    """
    n = graph.n
    edges = [(u, v) for u, v, _ in graph.edges]
    _, maximum = _blossom(_unit_edges(edges))
    nu = len(maximum)
    inessential = [
        v for v in range(n)
        if _matching_number([e for e in edges if v not in e]) == nu
    ]
    in_d = set(inessential)
    boundary = sorted(
        {u for edge in edges for u in edge if u not in in_d and (edge[0] in in_d or edge[1] in in_d)}
    )
    in_a = set(boundary)
    core = [v for v in range(n) if v not in in_d and v not in in_a]

    adjacency: dict[int, list[int]] = {v: [] for v in inessential}
    for u, v in edges:
        if u in in_d and v in in_d:
            adjacency[u].append(v)
            adjacency[v].append(u)
    components: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for root in inessential:
        if root in seen:
            continue
        stack, comp = [root], []
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        components.append(tuple(sorted(comp)))
    components.sort()
    decomposition = GallaiEdmondsDecomposition(
        tuple(inessential), tuple(boundary), tuple(core), tuple(components)
    )
    _verify_gallai_edmonds(decomposition, edges, maximum, n)
    return decomposition


def _verify_gallai_edmonds(
    d: GallaiEdmondsDecomposition, edges: list[Pair], pairs: Sequence[Pair], n: int
) -> None:
    """Check the decomposition against ``pairs``, a maximum matching of the
    whole graph."""
    core = set(d.core)
    core_edges = [e for e in edges if e[0] in core and e[1] in core]
    if len(d.core) % 2 or _matching_number(core_edges) * 2 != len(d.core):
        raise EngineError("core of the decomposition has no perfect matching")

    for comp in d.components:
        comp_set = set(comp)
        comp_edges = [e for e in edges if e[0] in comp_set and e[1] in comp_set]
        for v in comp:
            reduced = [e for e in comp_edges if v not in e]
            if _matching_number(reduced) * 2 != len(comp) - 1:
                raise EngineError("an inessential component is not factor-critical")

    # One maximum matching must route every boundary node into a distinct
    # inessential component, match the core internally, and miss exactly
    # (#components - #boundary) nodes.
    if n - 2 * len(pairs) != len(d.components) - len(d.boundary):
        raise EngineError("deficiency count contradicts the decomposition")
    mate: dict[int, int] = {}
    for u, v in pairs:
        mate[u] = v
        mate[v] = u
    in_d = set(d.inessential)
    component_of = {v: i for i, comp in enumerate(d.components) for v in comp}
    hit: set[int] = set()
    for x in d.boundary:
        partner = mate.get(x)
        if partner is None or partner not in in_d:
            raise EngineError("a boundary node is not matched into the inessential set")
        comp = component_of[partner]
        if comp in hit:
            raise EngineError("two boundary nodes are matched into one component")
        hit.add(comp)
    for w in d.core:
        partner = mate.get(w)
        if partner is None or partner not in core:
            raise EngineError("a core node is not matched inside the core")
