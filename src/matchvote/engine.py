"""Exact matching engine: maximum-weight matching, the weighted approval
winner oracle in two tiers, Pareto repair, candidate tests and the
Gallai-Edmonds decomposition, read off the certificate of one unit-weight
solve and checked structurally (see ``gallai_edmonds``).

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

Both tie-break routes share one front half: the weights are rescaled
once, one certified plain solve returns some optimum with its duals
(y, z), and the edges of zero reduced cost under them are kept in
canonical order.  By complementary slackness (Edmonds 1965) any optimal
dual, this one included, has reduced cost 0 on every edge of every
maximum-weight matching, so every optimum lies on these tight edges.  The
back half depends on whether the graph is 2-colourable (an O(n + m) check,
``model.two_colouring``).

On a graph with an odd cycle it is one solve on integers m' bits wider
over the m' tight edges.  The result is the one a wide solve over all m
edges names:

* the subgraph's optima are exactly the graph's optima: the plain
  optimum lies in the subgraph, so both have the same optimum weight, and
  a matching of the subgraph is a matching of the graph;
* the bonus bits keep their relative order: the tight edges keep their
  canonical order, and an edge outside the subgraph is in no optimum, so
  the binary-maximal optimum read over the m' tight edges is the one read
  over all m.

On a bipartite graph the solve forms no blossom, since a blossom holds an
odd cycle (one that does raises ``EngineError``), so y alone is an optimal
dual of the bipartite matching LP.  The optima are then exactly the
matchings of tight edges that cover every node with y > 0, and keeping, in
canonical order, each tight edge that lies in some optimum with the edges
already kept yields the tie-break's optimum with no wide integers.
Membership is one breadth-first search for an alternating path in the
digraph of the current optimum, skipped when the last failed search
already rules it out; see ``max_weight_matching``.  The same y proves the
kept matching optimal by ``check_certificate``.

The oracle has two tiers.  The *value* tier (``weighted_approval_value``)
is one plain blossom solve: the optimum and the approver group of some
optimal matching, enough for every probe whose answer is only a number,
and for the Pareto test of ``is_candidate``.  It builds no ``Fraction``
graph: the election caches its approval edges with their approving
endpoints once (``ApprovalGraph.approving_edges``), and each call scales
the agent weights to integer units by the lcm of their denominators, sums
them per edge and divides every sum by g, the gcd of the scale and all the
sums (``_compiled_edges``).  The division makes the integers exactly those
that rescaling the rational edge weights by the lcm of their denominators
gives, since that lcm is the scale divided by g, so the solver sees the
same instance and returns the same matching as it would on the rational
graph.  The *canonical* tier (``weighted_approval_winner``) returns the
one winner the tie-break names, then a Pareto repair, which is skipped
when every agent weight is positive because every approval edge then
weighs more than zero, so the winner is already a candidate.  It solves
the same compiled integers, as a ``WeightedGraph`` of int weights: they
are the rational weights times one positive factor, so they order the
matchings the same way and are zero on the same edges.

The two tiers share one solve.  A caller that has asked the value tier
(``_value_solve``) hands its certificate, the pairs, y and blossoms of the
solve, to the canonical tier at the same weights, and
``max_weight_matching`` starts its back half from it in place of a second
plain solve, once ``check_certificate`` has accepted it on the graph's own
edges (O(m)); nothing in it is trusted.  The Pareto repair does the same
with the solve of its Pareto test.  The back half names the one
binary-maximal optimum whichever certified optimum it starts from, so
every winner is the same with or without a certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .blossom import Certificate, IntEdge, certified_matching, check_certificate, reduced_costs
from .errors import ElectionError, EngineError
from .model import (
    Matching, MatchingElection, Pair, approvers, is_minimal, parse_rational, two_colouring,
)

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
        canon = sorted((min(u, v), max(u, v), parse_rational(w)) for u, v, w in edges)
        return WeightedGraph(n, tuple(canon))


def _integer_edges(edges: Sequence[EdgeTriple]) -> list[IntEdge]:
    """The edges with rational weights rescaled to integers by their common
    denominator, which changes no comparison between matchings."""
    if not edges:
        return []
    scale = lcm(*(w.denominator for _, _, w in edges))
    return [(u, v, w.numerator * (scale // w.denominator)) for u, v, w in edges]


def _blossom(edges: Sequence[EdgeTriple]) -> tuple[Fraction, tuple[Pair, ...]]:
    """One certified blossom run on the rescaled integer instance; returns
    (optimal weight, some optimal matching with its pairs sorted)."""
    pairs = certified_matching(_integer_edges(edges))[0]
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


def max_weight_matching(graph: WeightedGraph, certificate: Certificate | None = None) -> Matching:
    """Maximum-weight matching, lexicographically smallest among optima.

    The canonical optimum is the *binary-maximal* one: its edge-indicator
    vector, read in canonical edge order, is largest, so it contains the
    smallest edge contained in any optimum, then the smallest compatible
    one, and so on.  It agrees with the lexicographic minimum except for a
    trailing run of zero-weight edges, which a shorter optimum (a strict
    list prefix) makes superfluous, so dropping them yields the
    lexicographic minimum exactly.

    One certified plain solve gives some optimum M with its duals (y, z),
    and the tie-break runs on the edges of zero reduced cost under them
    (the module docstring shows every optimum lies there).  On a graph with
    an odd cycle it is one solve on those edges with bonus bits m' wide:
    edge i of the m' gets integer weight weight << m' | 1 << (m'-1-i), the
    bonus bits sum to less than one unit of true weight, so the solve
    returns the optimum with the largest bonus, the binary-maximal one.  On
    a 2-colourable graph (checked in O(n + m)) ``_bipartite_binary_maximal``
    builds it from M and y with no wide integers:

    *Optima.*  With no blossom, the certificate the solve checked says that
    y (doubled) is an optimal dual of the bipartite matching LP: y >= 0,
    y_u + y_v >= 2w_uv on every edge, and the sum of y is twice the
    optimum.  By complementary slackness (Egervary 1931), a matching is
    optimal iff all its edges are tight (y_u + y_v = 2w_uv) and it covers
    every node with y > 0: twice its weight is then the sum of y over the
    nodes it covers, which is all of y.

    *Greedy.*  Scanning the tight edges in canonical order and keeping
    each one that lies in some optimum containing the edges already kept
    yields the binary-maximal optimum.  An optimum M containing the kept
    set F is maintained: a scanned edge of M is kept at once; for any
    other edge e the optima containing F and e are, by the characterisation
    above, M flipped along an alternating cycle or path through e that
    avoids F's nodes and leaves uncovered only nodes with y = 0.  Such a
    cycle or path exists iff e = (l, r), l on side 0, lies on a directed
    cycle of the alternating digraph ``_alternating_search`` describes,
    i.e. iff r reaches l there, which one breadth-first search from r
    decides.  When it does, M is flipped along the cycle l -> r -> ... -> l
    and e kept.

    *Cost.*  The set S of nodes a failed search reached is closed under the
    digraph's arcs, and it stays closed for the rest of the scan.  Keeping
    an edge only removes nodes and their arcs.  A flip changes arcs only at
    the nodes of its cycle C (the source's arcs only if C runs through the
    sink), and C lies wholly inside S or wholly outside it, since every node
    of C reaches all of C.  Outside, no arc of S changes; inside, every new
    arc ends on C or on an old successor of its tail, both in S.  So an edge
    whose r is in S and whose l is not has no path, and is skipped without
    a search.  Only the last failed set is kept: a union of them is closed
    too, but holds more of the l's, and made more searches in all on the
    meta-elections measured.  So there is at most one search per scanned
    tight edge, each visiting every node and arc at most once (O(n + m)),
    and one flip per kept edge (at most n/2).  The dual comes with the
    solve.

    *Certificate.*  A given ``certificate``, (pairs, y, blossoms) of some
    optimum of the graph's rescaled integer edges, stands in for the plain
    solve once ``check_certificate`` accepts it on those edges (O(m));
    anything else raises ``EngineError``.  Both routes name the one
    binary-maximal optimum from whichever optimum and optimal dual they
    start from, so the result is the same with or without it.
    """
    edges = _integer_edges(graph.edges)
    pairs, y, blossoms = certified_matching(edges) if certificate is None else certificate
    y = [*y, *[0] * (graph.n - len(y))]  # a list of its own: a certificate may be shared
    if certificate is not None:
        check_certificate(edges, pairs, y, blossoms)
    tight = [e for e, r in zip(edges, reduced_costs(edges, y, blossoms)) if r == 0]
    side = two_colouring(graph.n, [(u, v) for u, v, _ in edges])
    if side is None:
        m = len(tight)
        wide = [(u, v, (w << m) | (1 << (m - 1 - i))) for i, (u, v, w) in enumerate(tight)]
        return _lexicographic_minimum(graph, certified_matching(wide)[0])
    if blossoms:
        raise EngineError("the solve of a bipartite graph returned a blossom")
    kept = _bipartite_binary_maximal(side, tight, pairs, y)
    check_certificate(edges, kept, y, ())  # the same dual proves the result optimal
    return _lexicographic_minimum(graph, kept)


def _bipartite_binary_maximal(
    side: list[int], tight: Sequence[IntEdge], pairs: Sequence[Pair], y: list[int]
) -> list[Pair]:
    """The binary-maximal optimum of a bipartite graph, sorted, by the
    greedy that ``max_weight_matching`` describes: ``pairs`` is an
    optimum M, y its doubled optimal dual and ``tight`` the edges of zero
    reduced cost under y, in canonical order."""
    n = len(side)
    mate = [-1] * n
    for u, v in pairs:
        mate[u], mate[v] = v, u
    adjacent: list[list[int]] = [[] for _ in range(n)]
    scan: list[tuple[int, int]] = []
    for u, v, _ in tight:
        l, r = (u, v) if side[u] == 0 else (v, u)
        adjacent[l].append(r)
        scan.append((l, r))
    fixed = [False] * n
    kept: list[Pair] = []
    closed: dict[int, int] = {}  # the nodes the last failed search reached
    for l, r in scan:
        if fixed[l] or fixed[r]:
            continue
        if mate[l] != r:
            if r in closed and l not in closed:
                continue
            parent = _alternating_search(side, y, mate, fixed, adjacent, r, l)
            if l not in parent:
                closed = parent
                continue
            path = [l]
            while path[-1] != r:
                path.append(parent[path[-1]])
            _flip(side, y, mate, l, path[::-1])
        fixed[l] = fixed[r] = True
        kept.append((min(l, r), max(l, r)))
    if any(m >= 0 and not fixed[v] for v, m in enumerate(mate)):
        raise EngineError("the greedy left a matched edge unkept")
    return kept


def _alternating_search(
    side: list[int], y: list[int], mate: list[int], fixed: list[bool], adjacent: list[list[int]],
    start: int, goal: int,
) -> dict[int, int]:
    """Breadth-first search from ``start`` for ``goal`` in the M-alternating
    digraph on the unfixed nodes plus a source n and a sink n + 1, its arcs
    read from M (``mate``), ``fixed``, y and the tight adjacency of the
    side-0 nodes: tight non-M edges point from side 0 to side 1, M edges
    back; the source reaches exposed side-0 nodes and matched side-1 nodes
    with y = 0; exposed side-1 nodes and matched side-0 nodes with y = 0
    reach the sink; the sink points to the source.  Its directed cycles are
    exactly the alternating cycles, and (through the sink) paths, whose
    flip keeps every node with y > 0 covered.

    Returns the parent of every node reached (``start`` its own), which
    holds ``goal`` iff it was found; otherwise the nodes reached are all
    those ``start`` reaches.  Each node and arc is visited at most once."""
    n = len(side)
    source, sink = n, n + 1
    parent = {start: start}
    queue = [start]
    for x in queue:  # the queue grows as it is read
        if x == sink:
            following = [source]
        elif x == source:
            following = [
                v for v in range(n)
                if not fixed[v] and (mate[v] < 0 if side[v] == 0 else mate[v] >= 0 and y[v] == 0)
            ]
        elif side[x] == 0:
            m = mate[x]
            following = [r for r in adjacent[x] if r != m and not fixed[r]]
            if m >= 0 and y[x] == 0:
                following.append(sink)
        else:
            following = [sink if mate[x] < 0 else mate[x]]
        for z in following:
            if z not in parent:
                parent[z] = x
                if z == goal:
                    return parent
                queue.append(z)
    return parent


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


def _compiled_edges(
    election: MatchingElection, weights: Sequence[Fraction]
) -> tuple[list[IntEdge], list[int], int, int]:
    """The approval graph's edges with integer weights: exactly what
    ``_integer_edges`` makes of the rational graph in which each edge weighs
    the summed weights of its approving endpoints (so that a matching weighs
    the total weight of its approvers), but summed from integer agent units
    instead of ``Fraction``s.

    Returns (edges, units, scale, g): agent a holds units[a] =
    weights[a] * scale, scale being the lcm of the weights' denominators;
    edge e sums the units s_e of its approving endpoints and weighs s_e / g,
    g = gcd(scale, every s_e), so one edge unit is worth g / scale.  As a
    rational, edge e weighs s_e / scale, whose reduced denominator
    scale / gcd(scale, s_e) divides scale; the lcm of these is scale / g,
    the factor ``_integer_edges`` multiplies by, so both give s_e / g.
    """
    scale = lcm(*(w.denominator for w in weights))
    units = [w.numerator * (scale // w.denominator) for w in weights]
    edges = election.approval_graph.approving_edges
    sums = []
    for _, _, approving in edges:
        total = 0
        for a in approving:
            total += units[a]
        sums.append(total)
    g = gcd(scale, *sums)
    return [(u, v, s // g) for (u, v, _), s in zip(edges, sums)], units, scale, g


def _canonical_graph(election: MatchingElection, weights: Sequence[Fraction]) -> WeightedGraph:
    """The canonical tier's graph: the compiled edges, whose int weights
    are the rational graph's weights times one positive factor and exactly
    the integers ``max_weight_matching`` would rescale that graph to, so it
    solves the same instance."""
    return WeightedGraph(election.n, tuple(_compiled_edges(election, weights)[0]))


def _check_agent_weights(election: MatchingElection, weights: Sequence[Fraction]) -> list[Fraction]:
    """The weights as Fractions; an int is converted, a float or bool refused."""
    if len(weights) != election.n:
        raise ElectionError(f"expected {election.n} agent weights, got {len(weights)}")
    out = [parse_rational(w) for w in weights]
    if any(w.numerator < 0 for w in out):
        raise ElectionError("agent weights must be non-negative")
    return out


def _repair_weights(election: MatchingElection, supporters: frozenset[int]) -> list[Fraction]:
    """Supporters n+1, every other agent 1, so satisfying one more supporter
    outweighs all other agents."""
    bonus = Fraction(election.n + 1)
    return [bonus if a in supporters else ONE for a in range(election.n)]


def _pareto_solve(
    election: MatchingElection, matching: Matching
) -> tuple[bool, list[Fraction], Certificate | None]:
    """One value-tier solve under the repair weights of the matching's
    approvers: whether no matching beats (n+1) * |approvers|, with the
    weights and the certificate a repair starts from."""
    supporters = approvers(election, matching)
    weights = _repair_weights(election, supporters)
    best, _, certificate = _value_solve(election, weights)
    return best == (election.n + 1) * len(supporters), weights, certificate


def is_candidate(election: MatchingElection, matching: Matching) -> bool:
    """True iff the matching is minimal and Pareto-optimal.

    Minimality: every pair is approved by at least one endpoint.  Pareto
    optimality is decided by one value-tier solve: re-weight approvers of
    the matching to n+1 and everyone else to 1; the matching is undominated
    exactly when no matching beats (n+1) * |approvers|.
    """
    return is_minimal(election, matching) and _pareto_solve(election, matching)[0]


def pareto_repair(election: MatchingElection, matching: Matching) -> Matching:
    """Extend a minimal matching to a minimal, Pareto-optimal one that keeps
    all of its approvers satisfied.  Candidates are returned unchanged.

    Re-weights current approvers to n+1 and all other agents to 1; any
    maximum-weight matching under these weights preserves the approver set
    and is Pareto-optimal.  The canonical one starts from the certificate
    of the Pareto test's solve under the same weights.
    """
    if not is_minimal(election, matching):
        raise ElectionError("pareto_repair requires a minimal matching")
    undominated, weights, certificate = _pareto_solve(election, matching)
    if undominated:
        return matching
    repaired = max_weight_matching(_canonical_graph(election, weights), certificate)
    if not approvers(election, matching) <= approvers(election, repaired):
        raise EngineError("Pareto repair lost an approver")
    return repaired


def _value_solve(
    election: MatchingElection, agent_weights: Sequence[Fraction]
) -> tuple[Fraction, frozenset[int], Certificate | None]:
    """``weighted_approval_value`` with the certificate of its solve, what
    ``certified_matching`` returned on the compiled edges: the canonical
    tier at the same weights starts from it.  None when every weight is
    zero, since nothing is solved."""
    weights = _check_agent_weights(election, agent_weights)
    if not any(weights):
        return ZERO, frozenset(), None
    edges, units, scale, g = _compiled_edges(election, weights)
    certificate = certified_matching(edges)
    weight_of = {(u, v): w for u, v, w in edges}
    total = sum(weight_of[p] for p in certificate[0])
    group = approvers(election, Matching(tuple(certificate[0])))
    if sum(units[a] for a in group) != total * g:
        raise EngineError("the approvers of an optimal matching do not carry its weight")
    return Fraction(total * g, scale), group, certificate


def weighted_approval_value(
    election: MatchingElection, agent_weights: Sequence[Fraction]
) -> tuple[Fraction, frozenset[int]]:
    """Value tier of the oracle: the maximum summed weight of a matching's
    approvers, and the approver group of some matching attaining it.

    One plain solve, with no tie-break and no Pareto repair, of the edges
    ``_compiled_edges`` sums from the agents' integer units, and none at all
    when every weight is zero (the optimum is then 0, attained by the empty
    group).  The group need not be a candidate's, but a repair never loses
    an approver, so some candidate's group contains it and carries the same
    weight.
    """
    value, group, _ = _value_solve(election, agent_weights)
    return value, group


def weighted_approval_winner(
    election: MatchingElection,
    agent_weights: Sequence[Fraction],
    certificate: Certificate | None = None,
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

    Phase 1 solves the compiled integer edges (``_canonical_graph``) and
    starts from ``certificate``, the one ``_value_solve`` returned at the
    same weights, when given; ``max_weight_matching`` checks it first.
    """
    weights = _check_agent_weights(election, agent_weights)
    winner = max_weight_matching(_canonical_graph(election, weights), certificate)
    if all(w > 0 for w in weights):
        return winner
    return pareto_repair(election, winner)


def approval_weight(
    election: MatchingElection, agent_weights: Sequence[Fraction], matching: Matching
) -> Fraction:
    """Total agent weight of the matching's approvers.  Refuses, as the
    oracle does, a list of the wrong length and a negative weight it sums;
    the other weights are not read."""
    if len(agent_weights) != election.n:
        raise ElectionError(f"expected {election.n} agent weights, got {len(agent_weights)}")
    total = ZERO
    for a in approvers(election, matching):
        w = parse_rational(agent_weights[a])
        if w.numerator < 0:
            raise ElectionError("agent weights must be non-negative")
        total += w
    return total


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


def _matching_number(edges: Sequence[Pair]) -> int:
    return len(certified_matching([(u, v, 1) for u, v in edges])[0])


def gallai_edmonds(graph: WeightedGraph) -> GallaiEdmondsDecomposition:
    """Gallai-Edmonds decomposition of the graph, weights ignored, read off
    the certificate of one unit-weight solve (Edmonds 1965; Lovasz and
    Plummer, *Matching Theory*, ch. 3).

    *Why the duals hold it.*  With unit weights every doubled dual starts
    at 1, so every edge has reduced cost 0 and is allowed when it is
    scanned: no least-slack edge is ever recorded, so no dual change makes
    an edge allowed.  Blossom duals start at 0, so expanding an odd
    blossom changes nothing either, and the first positive change is the
    one that brings every even dual to 0, which ends the solve.  Its last
    stage is therefore a complete Edmonds search from a maximum matching:
    its even nodes are D, its odd nodes A, its unreached nodes C, and each
    top-level even blossom spans one component of D.  That last change
    leaves y = 0 on D, 2 on A and 1 on C, and z = 1 on exactly those
    blossoms.  So D is {v : y_v = 0} (a node on no edge has y = 0), A and
    C follow by definition, and the components are the blossoms with
    z > 0 plus the other nodes of D alone; ``EngineError`` is raised
    unless these partition D.

    *Why the checks certify it.*  ``certified_matching`` checked the
    duals, and by complementary slackness a node with y > 0 is covered by
    every maximum matching, so every inessential node lies in D.
    ``_verify_gallai_edmonds`` then shows that the core has a perfect
    matching, each component is factor-critical, the matching routes A
    into distinct components and the core into itself, and the deficiency
    is the number of components less |A|; and that every component can be
    left unmatched by A (positive surplus).  Together these build, for
    each node of D, a maximum matching that misses it, so D is exactly
    the inessential set.  The components are connected, being
    factor-critical, and the true deficiency is the number of components
    of D's subgraph less |A|, so the count also rules out an edge between
    two of them.  A failure signals an engine bug rather than bad input.

    The solve must be the cold ``certified_matching``: another optimal
    dual, such as y = (2, 0) on the single edge (0, 1), proves the same
    matching but reads off the wrong D, and the surplus check refuses it.
    """
    n = graph.n
    edges = [(u, v) for u, v, _ in graph.edges]
    maximum, y, blossoms = certified_matching([(u, v, 1) for u, v in edges])
    y = [*y, *[0] * (n - len(y))]
    inessential = [v for v in range(n) if y[v] == 0]
    in_d = set(inessential)
    boundary = sorted(
        {u for edge in edges for u in edge if u not in in_d and (edge[0] in in_d or edge[1] in in_d)}
    )
    in_a = set(boundary)
    core = [v for v in range(n) if v not in in_d and v not in in_a]
    grouped = [members for members, z in blossoms if z > 0]
    inside = {v for members in grouped for v in members}
    components = sorted([*grouped, *((v,) for v in inessential if v not in inside)])
    if sorted(v for comp in components for v in comp) != inessential:
        raise EngineError("the blossoms of the solve do not partition the inessential nodes")
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
    into: dict[int, int] = {}  # the component each boundary node is matched into
    for x in d.boundary:
        partner = mate.get(x)
        if partner is None or partner not in in_d:
            raise EngineError("a boundary node is not matched into the inessential set")
        into[x] = component_of[partner]
    hit = set(into.values())
    if len(hit) != len(into):
        raise EngineError("two boundary nodes are matched into one component")
    for w in d.core:
        partner = mate.get(w)
        if partner is None or partner not in core:
            raise EngineError("a core node is not matched inside the core")

    # Positive surplus: an alternating search over (boundary, components),
    # from the components no boundary node is matched into, must reach
    # every component, so that each one is left unmatched by some matching
    # of the boundary into the others.
    toward: list[list[int]] = [[] for _ in d.components]  # boundary nodes next to each
    for u, v in edges:
        for x, c in ((u, v), (v, u)):
            if x in into and c in component_of:
                toward[component_of[c]].append(x)
    reached = [i for i in range(len(d.components)) if i not in hit]
    seen = set(reached)
    for i in reached:  # the list grows as it is read
        for x in toward[i]:
            if into[x] not in seen:
                seen.add(into[x])
                reached.append(into[x])
    if len(seen) != len(d.components):
        raise EngineError("a component is matched from the boundary in every maximum matching")
