"""Exact matching engine: maximum-weight matching, the weighted approval
winner oracle in two tiers, Pareto repair, candidate tests and the
Gallai-Edmonds decomposition.

All weights are exact rationals.  Every blossom solve runs on a losslessly
rescaled integer instance (multiplying all weights by the common
denominator preserves the optimum set and every tie exactly) through
``blossom.certified_matching``: the primal-dual blossom algorithm of Galil
(1986) on integer edge arrays, with at most n/2 + 1 stages of at most
3n + 2 substages each and no recursion.  It returns the matching with its
dual certificate, the doubled vertex duals y and the blossom duals z on
their laminar family, and refuses with ``EngineError`` unless, by integer
arithmetic, y >= 0 and z >= 0, every edge has reduced cost
y_u + y_v - 2w + 2 * (z of the blossoms holding both ends) >= 0, every
matched edge has reduced cost 0, every node with y > 0 is matched, and the
dual total equals the matching's weight.  Ties among optimal matchings are
broken to the lexicographically smallest canonical pair set, with a
shorter matching preceding its extensions.

The tie-break takes one of two routes, chosen by whether the graph is
2-colourable (an O(n + m) check).  On a bipartite graph it is one plain
solve, an exact integer dual y proving that solve optimal, and a greedy:
by complementary slackness the optima are exactly the matchings of tight
edges (y_u + y_v = w) that cover every node with y > 0, so keeping, in
canonical order, each tight edge that lies in some optimum with the edges
already kept yields the tie-break's optimum.  Membership is a
strongly-connected-component test on the alternating digraph of the
current optimum; see ``_bipartite_binary_maximal``.  The dual is checked
by arithmetic (``_check_dual``), and a plain solve that is not optimal
shows as a negative cycle; both raise ``EngineError``.

On a graph with an odd cycle it is one certified plain solve, then one
solve on integers m' bits wider over the m' edges of zero reduced cost
under that solve's (y, z), kept in canonical order (``_tight_edges``).
The result is the one the wide solve over all m edges names:

* every optimum lies on the tight edges: by complementary slackness
  (Edmonds 1965) any optimal dual, this one included, has reduced cost 0
  on every edge of every maximum-weight matching;
* so the subgraph's optima are exactly the graph's optima: the plain
  optimum lies in the subgraph, so both have the same optimum weight, and
  a matching of the subgraph is a matching of the graph;
* the bonus bits keep their relative order: the tight edges keep their
  canonical order, and an edge outside the subgraph is in no optimum, so
  the binary-maximal optimum read over the m' tight edges is the one read
  over all m.

The oracle has two tiers.  The *value* tier (``weighted_approval_value``)
is one plain blossom solve: the optimum and the approver group of some
optimal matching, enough for every probe whose answer is only a number.
The *canonical* tier (``weighted_approval_winner``) returns the one winner
the tie-break names, then a Pareto repair, which is skipped when every
agent weight is positive because every approval edge then weighs more
than zero, so the winner is already a candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .blossom import certified_matching, check_certificate, reduced_costs
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


def _integer_edges(
    edges: Sequence[EdgeTriple], tiebreak: bool = False
) -> list[tuple[int, int, int]]:
    """The edges with rational weights rescaled to integers by their common
    denominator, which changes no comparison between matchings;
    ``tiebreak`` adds the bonus bits of ``_wide_tiebreak``."""
    if not edges:
        return []
    m = len(edges)
    scale = lcm(*(w.denominator for _, _, w in edges))
    out = []
    for i, (u, v, w) in enumerate(edges):
        weight = w.numerator * (scale // w.denominator)
        if tiebreak:
            weight = (weight << m) | (1 << (m - 1 - i))
        out.append((u, v, weight))
    return out


def _solve(edges: Sequence[EdgeTriple], tiebreak: bool) -> list[Pair]:
    """One certified blossom run on the rescaled integer instance; returns
    the matched pairs, sorted."""
    return certified_matching(_integer_edges(edges, tiebreak))[0]


def _blossom(edges: Sequence[EdgeTriple]) -> tuple[Fraction, tuple[Pair, ...]]:
    """One exact blossom run; returns (optimal weight, some optimal matching)."""
    pairs = _solve(edges, tiebreak=False)
    weight_of = {(u, v): w for u, v, w in edges}
    return sum((weight_of[p] for p in pairs), ZERO), tuple(pairs)


def max_weight_value(graph: WeightedGraph) -> Fraction:
    """Weight of a maximum-weight matching (no tie-breaking work)."""
    return _blossom(graph.edges)[0]


def _lexicographic_minimum(graph: WeightedGraph, pairs: list[Pair]) -> Matching:
    """The binary-maximal optimum ``pairs`` (sorted) without its trailing
    zero-weight edges: the lexicographically smallest optimum."""
    weight_of = {(u, v): w for u, v, w in graph.edges}
    while pairs and weight_of[pairs[-1]] == 0:
        pairs.pop()
    return Matching(tuple(pairs))


def _wide_tiebreak(graph: WeightedGraph) -> Matching:
    """Canonical optimum from one solve on integers m bits wider (m edges):
    edge i (in canonical order) gets integer weight
    (weight * scale) << m | 1 << (m-1-i).  The bonus bits sum to less than
    one unit of true weight, so the solve still returns a maximum-weight
    matching; among those it maximizes the bonus, i.e. returns the
    binary-maximal optimum.  Works on every graph."""
    return _lexicographic_minimum(graph, _solve(graph.edges, tiebreak=True))


def max_weight_matching(graph: WeightedGraph) -> Matching:
    """Maximum-weight matching, lexicographically smallest among optima.

    The canonical optimum is the *binary-maximal* one: its edge-indicator
    vector, read in canonical edge order, is largest, so it contains the
    smallest edge contained in any optimum, then the smallest compatible
    one, and so on.  It agrees with the lexicographic minimum except for a
    trailing run of zero-weight edges, which a shorter optimum (a strict
    list prefix) makes superfluous, so dropping them yields the
    lexicographic minimum exactly.

    On a graph with an odd cycle it is what ``_wide_tiebreak`` names, but
    the wide solve runs only over the m' edges of zero reduced cost under
    one certified plain solve (``_tight_edges``; the module docstring
    proves the result the same).  On a 2-colourable graph (checked in
    O(n + m)) ``_bipartite_binary_maximal`` builds it from one plain solve
    and an exact integer dual, with no wide integers:

    *Optima.*  Let y be an optimal dual of the bipartite matching LP
    (y >= 0, y_u + y_v >= w_uv on every edge, sum of y = the optimum).  By
    complementary slackness (Egervary 1931), a matching is optimal iff all
    its edges are tight (y_u + y_v = w_uv) and it covers every node with
    y > 0: its weight is then the sum of y over the nodes it covers, which
    is all of y.  ``_bipartite_dual`` derives such a y from the plain
    solve's matching M, and ``_check_dual`` proves it by arithmetic.

    *Greedy.*  Scanning the tight edges in canonical order and keeping
    each one that lies in some optimum containing the edges already kept
    yields the binary-maximal optimum.  An optimum M containing the kept
    set F is maintained: a scanned edge of M is kept at once; for any
    other edge e the optima containing F and e are, by the characterisation
    above, M flipped along an alternating cycle or path through e that
    avoids F's nodes and leaves uncovered only nodes with y = 0.  Such a
    cycle or path exists iff e lies on a directed cycle of
    ``_alternating_digraph``, i.e. iff its ends share a strongly connected
    component.  When they do, M is flipped along that cycle and e kept.

    *Cost.*  Keeping an edge only removes nodes, and a flip only changes
    arcs inside the component it ran through, so a component untouched
    since the last SCC pass still answers exactly, and a "no" stays "no"
    as F grows.  An SCC pass therefore runs only when an edge's ends share
    a touched component: once to start and at most once per kept edge, so
    at most n/2 + 1 passes of O(n + m) each, plus one breadth-first search
    per flip (at most n/2).  The dual takes at most n + 1 Bellman-Ford
    rounds over the n + m arcs of its constraints.
    """
    side = _two_colouring(graph)
    if side is None:
        return _lexicographic_minimum(graph, _solve(_tight_edges(graph), tiebreak=True))
    return _lexicographic_minimum(graph, _bipartite_binary_maximal(graph, side))


def _tight_edges(graph: WeightedGraph) -> list[EdgeTriple]:
    """The edges of zero reduced cost under the duals of one certified
    plain solve, in canonical order: every optimum lies on them."""
    edges = _integer_edges(graph.edges)
    _, y, blossoms = certified_matching(edges)
    reduced = reduced_costs(edges, y, blossoms)
    return [e for e, r in zip(graph.edges, reduced) if r == 0]


def _two_colouring(graph: WeightedGraph) -> list[int] | None:
    """Side 0 or 1 of every node (isolated nodes on side 0), or None when
    the graph has an odd cycle."""
    adjacency: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v, _ in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    side = [-1] * graph.n
    for root in range(graph.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return None
    return side


def _bipartite_binary_maximal(graph: WeightedGraph, side: list[int]) -> list[Pair]:
    """The binary-maximal maximum-weight matching of a bipartite graph,
    sorted, from one plain blossom solve, an exact dual and the greedy that
    ``max_weight_matching`` describes."""
    edges = _integer_edges(graph.edges)
    _, pairs = _blossom(graph.edges)
    n = graph.n
    mate = [-1] * n
    for u, v in pairs:
        if mate[u] >= 0 or mate[v] >= 0:
            raise EngineError("the blossom solve returned pairs sharing a node")
        mate[u], mate[v] = v, u
    y = _bipartite_dual(n, side, edges, mate)
    _check_dual(edges, pairs, y)

    tight: list[list[int]] = [[] for _ in range(n)]
    scan: list[tuple[int, int]] = []
    for u, v, w in edges:
        if y[u] + y[v] == w:
            l, r = (u, v) if side[u] == 0 else (v, u)
            tight[l].append(r)
            scan.append((l, r))
    fixed = [False] * n
    kept: list[Pair] = []
    comp: list[int] = []
    succ: list[list[int]] = []
    touched: set[int] = set()

    def keep(l: int, r: int) -> None:
        fixed[l] = fixed[r] = True
        kept.append((min(l, r), max(l, r)))
        if comp:
            touched.update((comp[l], comp[r]))

    for l, r in scan:
        if fixed[l] or fixed[r]:
            continue
        if mate[l] == r:
            keep(l, r)
            continue
        if not comp or (comp[l] == comp[r] and comp[l] in touched):
            succ = _alternating_digraph(side, y, mate, fixed, tight)
            comp = _strong_components(succ)
            touched.clear()
        if comp[l] != comp[r]:
            continue
        _flip(side, y, mate, l, _path(succ, comp, r, l))
        keep(l, r)
    if any(m >= 0 and not fixed[v] for v, m in enumerate(mate)):
        raise EngineError("the greedy left a matched edge unkept")
    _check_dual(edges, kept, y)  # the same certificate proves the result optimal
    return kept


def _bipartite_dual(
    n: int, side: list[int], edges: Sequence[tuple[int, int, int]], mate: list[int]
) -> list[int]:
    """An integer optimal dual y in complementary slackness with M (given
    by ``mate``), from the difference constraints it must satisfy.

    With p = y on side 0 and p = -y on side 1 they read: p_l >= 0, p_r <= 0,
    p_r <= p_l - w on every edge, p_l <= p_r + w on the edges of M, p = 0 on
    nodes M leaves exposed.  They are feasible exactly when M is optimal,
    and shortest distances from a virtual root solve them: Bellman-Ford in
    rounds, each relaxing the arcs of the nodes the round before improved.
    A negative cycle means M is not optimal: it shows as a distance below
    the root's, or as a node still improving after n + 1 rounds, which
    bounds the loop at n + 1 rounds over the n + m arcs.
    """
    root = n
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    floor_zero = [False] * n  # p_v >= 0, i.e. the arc v -> root of weight 0
    for v in range(n):
        if side[v] == 1 or mate[v] < 0:
            arcs[root].append((v, 0))
        if side[v] == 0 or mate[v] < 0:
            floor_zero[v] = True
    for u, v, w in edges:
        l, r = (u, v) if side[u] == 0 else (v, u)
        arcs[l].append((r, -w))
        if mate[l] == r:
            arcs[r].append((l, w))
    dist: list[int | None] = [None] * (n + 1)
    dist[root] = 0
    improved = [root]
    for _ in range(n + 1):
        queued = [False] * (n + 1)
        following = []
        for x in improved:
            dx = dist[x]
            for z, c in arcs[x]:
                d = dx + c
                dz = dist[z]
                if dz is None or d < dz:
                    if d < 0 and floor_zero[z]:
                        raise EngineError("negative cycle: the plain matching is not optimal")
                    dist[z] = d
                    if not queued[z]:
                        queued[z] = True
                        following.append(z)
        improved = following
        if not improved:
            break
    else:
        raise EngineError("negative cycle: the plain matching is not optimal")
    return [d if s == 0 else -d for d, s in zip(dist, side)]


def _check_dual(
    edges: Sequence[tuple[int, int, int]], pairs: Sequence[Pair], y: Sequence[int]
) -> None:
    """Refuse, with ``EngineError``, unless the vertex duals y certify
    ``pairs`` as a maximum-weight matching of the bipartite ``edges``:
    y >= 0, y_u + y_v >= w on every edge, and the sum of y equals the
    matching's weight (weak duality).  ``check_certificate`` with no
    blossoms, in its doubled units."""
    check_certificate(edges, pairs, [2 * v for v in y], ())


def _alternating_digraph(
    side: list[int], y: list[int], mate: list[int], fixed: list[bool], tight: list[list[int]]
) -> list[list[int]]:
    """Successor lists of the M-alternating digraph on the unfixed nodes
    plus a source n and a sink n + 1: tight non-M edges point from side 0
    to side 1, M edges back; the source reaches exposed side-0 nodes and
    matched side-1 nodes with y = 0; exposed side-1 nodes and matched
    side-0 nodes with y = 0 reach the sink; the sink points to the source.
    Its directed cycles are exactly the alternating cycles, and (through
    the sink) paths, whose flip keeps every node with y > 0 covered."""
    n = len(side)
    source, sink = n, n + 1
    succ: list[list[int]] = [[] for _ in range(n + 2)]
    for x in range(n):
        if fixed[x]:
            continue
        m = mate[x]
        if side[x] == 0:
            succ[x] = [r for r in tight[x] if r != m and not fixed[r]]
            if m < 0:
                succ[source].append(x)
            elif y[x] == 0:
                succ[x].append(sink)
        elif m < 0:
            succ[x].append(sink)
        else:
            succ[x].append(m)
            if y[x] == 0:
                succ[source].append(x)
    succ[sink].append(source)
    return succ


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component of every node (Tarjan, iterative; each
    node and arc is visited once)."""
    size = len(succ)
    index = [-1] * size
    low = [0] * size
    comp = [-1] * size
    on_stack = [False] * size
    stack: list[int] = []
    counter = count = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for z in children:
                if index[z] < 0:
                    index[z] = low[z] = counter
                    counter += 1
                    stack.append(z)
                    on_stack[z] = True
                    work.append((z, iter(succ[z])))
                    break
                if on_stack[z] and index[z] < low[v]:
                    low[v] = index[z]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    while True:
                        z = stack.pop()
                        on_stack[z] = False
                        comp[z] = count
                        if z == v:
                            break
                    count += 1
    return comp


def _path(succ: list[list[int]], comp: list[int], start: int, goal: int) -> list[int]:
    """Nodes of a shortest path from ``start`` to ``goal`` inside their
    common strongly connected component (breadth-first)."""
    c = comp[goal]
    parent = {start: start}
    frontier = [start]
    while goal not in parent:
        if not frontier:
            raise EngineError("no alternating path inside a strongly connected component")
        following = []
        for x in frontier:
            for z in succ[x]:
                if z not in parent and comp[z] == c:
                    parent[z] = x
                    following.append(z)
        frontier = following
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


def _flip(side: list[int], y: list[int], mate: list[int], l: int, path: list[int]) -> None:
    """Flip M along the closed walk l -> path[0] -> ... -> path[-1] = l:
    its side-0 -> side-1 steps join M, its side-1 -> side-0 steps leave it,
    steps through the source or sink are skipped."""
    n = len(side)
    walk = [l, *path]
    steps = [(a, b) for a, b in zip(walk, walk[1:]) if a < n and b < n]
    leaving = [(a, b) for a, b in steps if side[a] == 1]
    joining = [(a, b) for a, b in steps if side[a] == 0]
    for a, b in leaving:
        if mate[a] != b:
            raise EngineError("a flip removes an edge that is not matched")
        mate[a] = mate[b] = -1
    for a, b in joining:
        if mate[a] >= 0 or mate[b] >= 0:
            raise EngineError("a flip adds an edge at a matched node")
        mate[a], mate[b] = b, a
    for a, b in leaving:
        if (mate[a] < 0 and y[a] > 0) or (mate[b] < 0 and y[b] > 0):
            raise EngineError("a flip exposes a node with positive dual")


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
