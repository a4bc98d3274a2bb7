"""Exact (non-sequential) w-Thiele optimization.

Bipartite elections are solved in polynomial time through a meta-election
with k weighted copies of every agent: copy i of agent a is node
a*k + i - 1, carries weight w_i and approves every copy of the agents that
a approves.  Its optimum comes from a min-cost flow at agent level
(``_AgentFlow``: per agent a hub, an approving lane and a plain lane, the k
copies priced as one convex arc), lifted to a copy-level matching and dual
certificate.  The canonical tier of the weighted approval winner checks
that certificate on every meta-edge and names the canonical optimum from
it, so no blossom solve runs on the k^2 copies of every approval edge.
Copies of one agent are interchangeable, so the winner collapses straight
onto agents (node // k) as a bipartite multigraph of maximum degree k;
padding it to k-regular (side-equalizing dummies, free degree slots paired
in agent order) and splitting it into k perfect matchings yields the
committee.

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
from heapq import heappop, heappush
from math import inf, lcm
from typing import Sequence

from .blossom import Certificate
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
# edges x k^2).  The flow runs on agents, but the canonical tier still
# builds, checks and scans every meta-edge: ``solve --rule exact-thiele``
# on ``gen --class bipartite -n 6 -p 0.5 -k 2 --seed 1`` (8 approval edges)
# takes 0.44 s end to end at k = 100 (80,000 meta-edges, 67 MiB peak RSS)
# and 1.2 s at k = 158 (199,712 meta-edges, 169 MiB), best of five runs on
# 2 CPUs under Python 3.11.  The prop-seq-core fixture's 1,430,996 is seven
# times that.
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


class _AgentFlow:
    """Min-cost flow of a bipartite election's meta-election at agent level.

    Nodes: s = 0, t = 1, and per agent a a hub 2 + 3a, an approving lane
    3 + 3a and a plain lane 4 + 3a.  s feeds each hub of ``partition[0]``
    at most k units, each hub of ``partition[1]`` feeds t at most k.  A
    hub and its approving lane are joined by one convex arc (hub to lane
    on the left, lane to hub on the right) whose i-th unit costs -u_i, the
    k unit arcs of the parallel-arc construction (Ahuja, Magnanti and
    Orlin, *Network Flows*, 1993, ch. 14) in one: the units do not
    increase, so the cheapest unused unit is always the next one, and
    cancelling one gives back the last.  A hub and its plain lane are
    joined at cost 0.  Each approval edge {a, b}, a on the left, is an
    uncapacitated arc from a's approving lane if a approves b, else from
    its plain lane, to b's approving lane if b approves a, else to its
    plain lane.  A unit of flow is a pair of copies, and its cost is minus
    the units its approving ends carry, so a flow of cost -c lifts to a
    meta-matching of weight c (``certificate``).

    Arc e and e ^ 1 are each other's reverse, and ``cap`` holds residual
    capacities, so the flow on a forward arc is its reverse's capacity.
    """

    def __init__(
        self,
        election: MatchingElection,
        partition: tuple[tuple[int, ...], tuple[int, ...]],
        units: Sequence[int],
    ) -> None:
        n, k = election.n, len(units)
        self.n, self.k, self.partition, self.units = n, k, partition, units
        self.nodes = 3 * n + 2
        self.head: list[int] = []
        self.cap: list[int] = []
        self.convex: list[bool] = []
        self.out: list[list[int]] = [[] for _ in range(self.nodes)]
        # (arc, left agent, right agent, left approves, right approves)
        self.lanes: list[tuple[int, int, int, bool, bool]] = []
        unbounded = n * k + 1  # more than any flow
        for a in partition[0]:
            self._arc(0, 2 + 3 * a, k)
            self._arc(2 + 3 * a, 3 + 3 * a, k, convex=True)
            self._arc(2 + 3 * a, 4 + 3 * a, unbounded)
        for b in partition[1]:
            self._arc(3 + 3 * b, 2 + 3 * b, k, convex=True)
            self._arc(4 + 3 * b, 2 + 3 * b, unbounded)
            self._arc(2 + 3 * b, 1, k)
        left = set(partition[0])
        for u, v, approving in election.approval_graph.approving_edges:
            a, b = (u, v) if u in left else (v, u)
            forth, back = a in approving, b in approving
            self.lanes.append((len(self.head), a, b, forth, back))
            self._arc((3 if forth else 4) + 3 * a, (3 if back else 4) + 3 * b, unbounded)
        # Potentials under which every arc of the empty flow has reduced
        # cost >= 0: 0 up to the left hubs, -u_1 on every lane, -2 u_1 from
        # the right hubs on.
        u = units[0]
        self.potential = [0, -2 * u, *[0, -u, -u] * n]
        for b in partition[1]:
            self.potential[2 + 3 * b] = -2 * u

    def _arc(self, v: int, w: int, cap: int, convex: bool = False) -> None:
        for x, y, c in ((v, w, cap), (w, v, 0)):
            self.out[x].append(len(self.head))
            self.head.append(y)
            self.cap.append(c)
            self.convex.append(convex)

    def cheapest_path(self) -> list[int] | None:
        """The arcs of a cheapest s-t path if it costs less than 0, else
        None.  Dijkstra on reduced costs c(e) + p(v) - p(w), all >= 0 under
        the potentials p.  An s-t path of reduced length d costs
        d - (p(s) - p(t)), so the search settles only nodes nearer than
        p(s) - p(t).  Raising every p(v) by min(d(v), d(t)) after a path is
        found, or by min(d(v), p(s) - p(t)) when none is, keeps every
        reduced cost >= 0 and makes those of the path 0, so its reverse
        arcs stay admissible; p(s) - p(t) stays positive after each path,
        and is 0 when the search stops."""
        p, head, cap, out, convex, units = (
            self.potential, self.head, self.cap, self.out, self.convex, self.units
        )
        bound = p[0] - p[1]
        dist: list[float] = [inf] * self.nodes
        dist[0] = 0
        parent = [-1] * self.nodes
        heap = [(0, 0)]
        found = False
        while heap:
            d, v = heappop(heap)
            if d >= bound:
                break
            if d > dist[v]:
                continue
            if v == 1:
                found = True
                break
            for e in out[v]:
                c = cap[e]
                if c:
                    w = head[e]
                    r = p[v] - p[w]
                    if convex[e]:  # cancel the last unit taken, or take the next
                        r += units[c - 1] if e & 1 else -units[cap[e ^ 1]]
                    if r < 0:
                        raise EngineError("a residual arc has a negative reduced cost")
                    if d + r < dist[w]:
                        dist[w] = d + r
                        parent[w] = e
                        heappush(heap, (d + r, w))
        limit = dist[1] if found else bound
        for v in range(self.nodes):
            p[v] += min(dist[v], limit)
        if not found:
            return None
        path = []
        v = 1
        while v:
            path.append(parent[v])
            v = head[parent[v] ^ 1]
        return path

    def push(self, path: list[int]) -> None:
        """Send one unit along the arcs of ``path``."""
        for e in path:
            self.cap[e] -= 1
            self.cap[e ^ 1] += 1

    def run(self) -> None:
        """Successive shortest paths until the cheapest s-t path costs 0 or
        more.  Every path carries one unit out of at most k per hub of the
        smaller side, so at most k * |smaller side| + 1 searches run; past
        that ``EngineError`` is raised."""
        for _ in range(self.k * min(len(side) for side in self.partition) + 1):
            path = self.cheapest_path()
            if path is None:
                return
            self.push(path)
        raise EngineError("the agent-level flow did not stop within its bound")

    def certificate(self) -> Certificate:
        """The flow lifted to a certificate (pairs, y, ()) of an optimum of
        the meta-election's compiled edges, in agent units.

        *Pairs.*  Each agent's units of flow take its copies in order,
        those to partners it approves first, so these carry u_1 .. u_sat
        and the pairs weigh what the flow gains.

        *Duals.*  The potentials p leave every residual arc a reduced cost
        c(e) + p(v) - p(w) >= 0, and p(s) = p(t).  In agent units, left
        copy i of a gets max(0, u_i - p(s) + p(A_a), p(P_a) - p(s)) and
        right copy j of b gets max(0, u_j + p(t) - p(A_b), p(t) - p(P_b)),
        A and P being the approving and plain lanes.  An uncapacitated
        lane arc of cost 0 gives p(head) <= p(tail), so every meta-edge is
        covered; an arc carrying flow has a residual reverse, which turns
        the inequalities into equalities on the pairs and into 0 on the
        copies no unit reaches (complementary slackness).
        ``check_certificate`` verifies all of it on every meta-edge; y is
        doubled.
        """
        n, k, p, units = self.n, self.k, self.potential, self.units
        keys: list[list[tuple[bool, int, int]]] = [[] for _ in range(n)]
        for i, (e, a, b, forth, back) in enumerate(self.lanes):
            for t in range(self.cap[e ^ 1]):
                keys[a].append((not forth, i, t))
                keys[b].append((not back, i, t))
        copy: dict[tuple[int, int, int], int] = {}
        for x, held in enumerate(keys):
            for c, (_, i, t) in enumerate(sorted(held)):
                copy[x, i, t] = x * k + c
        pairs = sorted(
            (min(copy[a, i, t], copy[b, i, t]), max(copy[a, i, t], copy[b, i, t]))
            for i, (e, a, b, _, _) in enumerate(self.lanes)
            for t in range(self.cap[e ^ 1])
        )
        y = [0] * (n * k)
        for a in self.partition[0]:
            for i, u in enumerate(units):
                y[a * k + i] = 2 * max(0, u - p[0] + p[3 + 3 * a], p[4 + 3 * a] - p[0])
        for b in self.partition[1]:
            for j, u in enumerate(units):
                y[b * k + j] = 2 * max(0, u + p[1] - p[3 + 3 * b], p[1] - p[4 + 3 * b])
        return pairs, y, []


def _flow_certificate(
    election: MatchingElection,
    partition: tuple[tuple[int, ...], tuple[int, ...]],
    weights: Sequence[Fraction],
) -> Certificate:
    """A certificate of an optimum of the meta-election with copy weights
    ``weights`` (w_1 .. w_k), in the compiled integer units of
    ``engine._canonical_graph``, from ``_AgentFlow``.

    The agent units are u_i = w_i * scale, scale the lcm of the
    denominators, and ``_compiled_edges`` divides every meta-edge's summed
    units by g, the gcd of scale and all the sums.  That g is 1, so an
    edge unit is one agent unit.  For each prime p dividing scale, some
    w_i's denominator holds as many factors p as scale does, and its
    numerator none, so p does not divide u_i: the u_i and scale have gcd
    1.  A one-way edge sums u_i alone; a mutual one sums u_1 + u_i, and
    as u_1 = scale, a divisor of scale and of every u_1 + u_i divides
    every u_i.  (With no edge, y is 0 and the unit does not matter.)
    """
    scale = lcm(*(w.denominator for w in weights))
    flow = _AgentFlow(election, partition, [w.numerator * (scale // w.denominator) for w in weights])
    flow.run()
    return flow.certificate()


def _meta_election(
    election: MatchingElection, weights: WeightSequence, size: int
) -> tuple[MatchingElection, list[Fraction]]:
    """The meta-election and its agent weights: copy i of agent a is node
    a*size + i - 1; it carries w_i and approves every copy of the agents
    that a approves."""
    meta = MatchingElection(
        tuple(f"{name}#{i}" for name in election.names for i in range(1, size + 1)),
        tuple(
            frozenset(b * size + j for b in approved for j in range(size))
            for approved in election.approvals
            for _ in range(size)
        ),
        1,
    )
    return meta, [weights[i] for _ in range(election.n) for i in range(1, size + 1)]


def _bipartition(election: MatchingElection) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cls = classify(election)
    if not cls.bipartite:
        raise ElectionError("bipartite_thiele requires a bipartite election")
    assert cls.bipartition is not None
    return cls.bipartition


def _outcome(
    election: MatchingElection,
    partition: tuple[tuple[int, ...], tuple[int, ...]],
    weights: WeightSequence,
    size: int,
    meta: MatchingElection,
    meta_weights: Sequence[Fraction],
    winner: Matching,
) -> ThieleOutcome:
    """The committee of a meta-election winner, checked against it."""
    n = election.n
    # Copies of one agent are twins, so the winner matters only through the
    # agent pairs it matches.
    pairs = [(a // size, b // size) for a, b in winner.pairs]
    counts, padded = _k_regular_multigraph(pairs, partition, n, size)
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


def bipartite_thiele(
    election: MatchingElection,
    weights: WeightSequence,
    k: int | None = None,
) -> ThieleOutcome:
    """Optimal w-Thiele committee of a bipartite election: the canonical
    meta-election winner, started from the lifted certificate of the
    agent-level flow (``_flow_certificate``), plus k matching extractions.
    No blossom solve runs on the meta-election unless a zero weight calls
    for its Pareto repair.  Raises ``GuardExceeded`` when the meta-election
    would have more than ``MAX_META_EDGES`` edges."""
    size = committee_size(election, k)
    partition = _bipartition(election)
    meta_edges = len(election.approval_graph.undirected_edges) * size**2
    if meta_edges > MAX_META_EDGES:
        raise GuardExceeded(
            f"the meta-election would have {meta_edges} edges (approval edges x k^2), "
            f"over the guard of {MAX_META_EDGES}"
        )
    meta, meta_weights = _meta_election(election, weights, size)
    certificate = _flow_certificate(election, partition, meta_weights[:size])
    winner = weighted_approval_winner(meta, meta_weights, certificate)
    return _outcome(election, partition, weights, size, meta, meta_weights, winner)


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
