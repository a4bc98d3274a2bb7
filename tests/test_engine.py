from __future__ import annotations

import random
from copy import deepcopy
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from matchvote import (
    ElectionError,
    EngineError,
    GeneratorParams,
    Matching,
    WeightedGraph,
    approval_weight,
    approvers,
    enumerate_candidates,
    gallai_edmonds,
    generate,
    is_candidate,
    max_weight_matching,
    max_weight_value,
    pareto_repair,
    weighted_approval_value,
    weighted_approval_winner,
)
from matchvote import blossom, engine
from matchvote.model import is_minimal, two_colouring
from conftest import random_corpus
from oracles import (
    bonus_bit_edges,
    brute_matching_number,
    brute_max_weight,
    brute_waw_value,
    gallai_edmonds_twin,
    iter_matchings,
    meta_oracle_thiele,
    wide_tiebreak,
)

F = Fraction


def random_weighted_graph(rng: random.Random, n: int, p: float) -> list[tuple[int, int, Fraction]]:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, F(rng.randint(0, 12), rng.randint(1, 6))))
    return edges


class TestMaxWeightMatching:
    def test_triangle_picks_heavy_edge(self):
        g = WeightedGraph.of(3, [(0, 1, 2), (0, 2, 2), (1, 2, 3)])
        assert max_weight_matching(g).pairs == ((1, 2),)

    def test_zero_weight_edge_gives_empty_matching(self):
        g = WeightedGraph.of(2, [(0, 1, 0)])
        assert max_weight_matching(g) == Matching(())

    def test_path_prefers_heavier_edge(self):
        g = WeightedGraph.of(3, [(0, 1, 5), (1, 2, 4)])
        assert max_weight_matching(g).pairs == ((0, 1),)

    def test_tie_resolves_to_lexicographic_smallest(self):
        # Two disjoint perfect matchings of equal weight on a 4-cycle.
        g = WeightedGraph.of(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert max_weight_matching(g).pairs == ((0, 1), (2, 3))

    def test_zero_edge_joins_when_it_sorts_first(self):
        # {e01, e23} ties with {e23} at weight 5; the longer list starting
        # with the smaller edge wins because (0,1) < (2,3).
        g = WeightedGraph.of(4, [(0, 1, 0), (2, 3, 5)])
        assert max_weight_matching(g).pairs == ((0, 1), (2, 3))

    def test_validation(self):
        with pytest.raises(ElectionError, match="self-loop"):
            WeightedGraph.of(2, [(1, 1, 1)])
        with pytest.raises(ElectionError, match="negative"):
            WeightedGraph.of(2, [(0, 1, -1)])
        with pytest.raises(ElectionError, match="duplicate"):
            WeightedGraph.of(2, [(0, 1, 1), (1, 0, 2)])

    def test_floats_and_bools_are_refused(self):
        for w in (0.5, True):
            with pytest.raises(ElectionError, match="not a rational"):
                WeightedGraph.of(2, [(0, 1, w)])
        half = F(1, 2)
        assert WeightedGraph.of(2, [(1, 0, half)]).edges[0][2] is half
        assert WeightedGraph.of(2, [(0, 1, 3)]).edges == ((0, 1, F(3)),)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(2, 9)
            edges = random_weighted_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
            g = WeightedGraph.of(n, edges)
            value, pairs = brute_max_weight(edges)
            got = max_weight_matching(g)
            assert max_weight_value(g) == value
            assert got.pairs == pairs, f"lex tie-break differs on {edges}"


HALVES = [F(0), F(1, 2), F(1), F(3, 2), F(2)]


@st.composite
def bipartite_graphs(draw) -> WeightedGraph:
    """Sides of up to 6 nodes, interleaved in node order, with weights from
    {0, 1/2, 1, 3/2, 2}: ties and zero-weight edges are common."""
    left, right = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    order = draw(st.permutations(range(left + right)))
    weights = draw(
        st.lists(st.none() | st.sampled_from(HALVES), min_size=left * right, max_size=left * right)
    )
    edges = [
        (order[i], order[left + j], w)
        for (i, j), w in zip(product(range(left), range(right)), weights)
        if w is not None
    ]
    return WeightedGraph.of(left + right, edges)


def is_bipartite(graph: WeightedGraph) -> bool:
    return two_colouring(graph.n, [(u, v) for u, v, _ in graph.edges]) is not None


class TestBipartiteTieBreak:
    """The bipartite path (one plain solve, its dual and the greedy)
    against the wide-integer tie-break solve that names the same optimum."""

    @settings(max_examples=300, deadline=None)
    @given(graph=bipartite_graphs())
    def test_matches_wide_tiebreak(self, graph):
        assert is_bipartite(graph)
        assert max_weight_matching(graph) == wide_tiebreak(graph)

    @settings(max_examples=300, deadline=None)
    @given(graph=bipartite_graphs())
    def test_solver_forms_no_blossom(self, graph):
        """The bipartite route reads its dual from y alone."""
        assert blossom.certified_matching(engine._integer_edges(graph.edges))[2] == []

    @pytest.mark.parametrize(
        "params",
        [
            GeneratorParams("bipartite", 8, 0.4, 4, 3),  # its meta-election
            GeneratorParams("symmetric", 9, 0.4, 4, 5),  # the meta-election of its psi
        ],
        ids=["bipartite-meta", "symmetric-psi"],
    )
    def test_flips_cycles_and_paths_on_meta_elections(self, monkeypatch, params):
        """The greedy from a cold solve of each meta-election, the paper's
        route (``meta_oracle_thiele``).  ``bipartite_thiele`` starts it
        from the agent-level flow's optimum instead, from which the
        bipartite election's meta-election needs cycle flips only."""
        from matchvote import WeightSequence, symmetric_to_bipartite

        graphs, flips = [], []
        solve, flip = engine.max_weight_matching, engine._flip

        def recording_solve(graph, certificate=None):
            graphs.append(graph)
            return solve(graph, certificate)

        def recording_flip(side, y, mate, l, path):
            flips.append(any(x >= len(side) for x in path))  # through the source
            return flip(side, y, mate, l, path)

        monkeypatch.setattr(engine, "max_weight_matching", recording_solve)
        monkeypatch.setattr(engine, "_flip", recording_flip)
        election = generate(params)
        if params.election_class == "symmetric":
            election = symmetric_to_bipartite(election).psi
        meta_oracle_thiele(election, WeightSequence.pav())
        meta = max(graphs, key=lambda g: len(g.edges))
        assert len(meta.edges) >= 128
        assert True in flips and False in flips  # paths and cycles
        for graph in graphs:
            assert solve(graph) == wide_tiebreak(graph)

    @pytest.mark.parametrize("weights", ["av", "cc", "pav"])
    @pytest.mark.parametrize(
        "params",
        [
            GeneratorParams("bipartite", 8, 0.4, 4, 3),
            GeneratorParams("bipartite", 6, 0.5, 3, 1),
            GeneratorParams("bipartite", 8, 0.5, 4, 1),
            GeneratorParams("bipartite", 10, 0.4, 3, 2),
        ],
    )
    def test_heavy_ties_of_cold_meta_elections(self, monkeypatch, params, weights):
        """The greedy from a cold solve of meta-elections of 72 to 240
        edges, where AV's equal copies and CC's zero weights tie most
        optima, against the wide solve; CC adds the Pareto repair."""
        from matchvote import WeightSequence

        graphs = []
        solve = engine.max_weight_matching
        monkeypatch.setattr(
            engine, "max_weight_matching", lambda graph, certificate=None: (
                graphs.append(graph) or solve(graph, certificate)
            ),
        )
        election = generate(params)
        meta_oracle_thiele(election, getattr(WeightSequence, weights)())
        meta_edges = len(election.approval_graph.undirected_edges) * election.k**2
        assert max(len(graph.edges) for graph in graphs) == meta_edges
        for graph in graphs:
            assert solve(graph) == wide_tiebreak(graph)


@pytest.fixture
def alternating_searches(monkeypatch) -> list:
    """The (start, goal) of every alternating-path search the bipartite
    greedy made during a test."""
    search = engine._alternating_search
    calls = []

    def counted(side, y, mate, fixed, adjacent, start, goal):
        calls.append((start, goal))
        return search(side, y, mate, fixed, adjacent, start, goal)

    monkeypatch.setattr(engine, "_alternating_search", counted)
    return calls


@pytest.mark.parametrize("weights, searches", [("av", 16), ("pav", 109), ("cc", 222)])
def test_failed_search_set_skips_searches(alternating_searches, weights, searches):
    """Exact Thiele on an n = 24 bipartite election at k = 12, where AV
    makes 7,488 of the 12,960 meta-edges tight.  Without the last failed
    search's node set the greedy makes 1,308, 273 and 635 searches."""
    from matchvote import WeightSequence, exact_thiele

    election = generate(GeneratorParams("bipartite", 24, 0.4, 12, 5))
    exact_thiele(election, getattr(WeightSequence, weights)())
    assert len(alternating_searches) == searches


def general_graph_edges(seed: int, n: int, p: float, top: int) -> list[tuple[int, int, int]]:
    rng = random.Random(seed)
    return [
        (u, v, rng.randint(0, top)) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]


def bipartite_graph_edges(seed: int, n: int, p: float, top: int) -> list[tuple[int, int, int]]:
    """Even nodes on one side, odd nodes on the other; sorted canonically."""
    rng = random.Random(seed)
    return sorted(
        (min(u, v), max(u, v), rng.randint(0, top))
        for u in range(0, n, 2)
        for v in range(1, n, 2)
        if rng.random() < p
    )


# The general graph's solve forms nested blossoms; the bipartite graph's
# forms none, so its certificate is y alone.
CERTIFIED_GRAPHS = {
    "general": (14, general_graph_edges(12, 14, 0.35, 9)),
    "bipartite": (12, bipartite_graph_edges(5, 12, 0.6, 4)),
}


class TestCertificate:
    """The blossom solver's dual certificate, checked by arithmetic alone."""

    def test_every_unit_change_is_refused(self):
        for name, (_, edges) in CERTIFIED_GRAPHS.items():
            pairs, y, blossoms = blossom.certified_matching(edges)
            if name == "general":
                # A blossom with z = 1 nested around one with z = 0.
                assert sorted(z for _, z in blossoms) == [0, 1]
            else:
                assert blossoms == []
            blossom.check_certificate(edges, pairs, y, blossoms)
            for i in range(len(y)):
                for delta in (-1, 1):
                    corrupted = list(y)
                    corrupted[i] += delta
                    with pytest.raises(EngineError, match="dual certificate"):
                        blossom.check_certificate(edges, pairs, corrupted, blossoms)
            for i, (members, z) in enumerate(blossoms):
                for delta in (-1, 1):
                    corrupted = list(blossoms)
                    corrupted[i] = (members, z + delta)
                    with pytest.raises(EngineError, match="dual certificate"):
                        blossom.check_certificate(edges, pairs, y, corrupted)

    @pytest.mark.parametrize("drop", [0, -1])
    def test_suboptimal_solver_is_refused(self, monkeypatch, drop):
        """A solver stub that drops one matched edge but reports the true
        duals is refused, on the plain and the tie-break route, of the
        general and the bipartite graph."""
        solve = blossom._primal_dual

        def suboptimal(n, local):
            mate, dual, found = solve(n, local)
            a = [v for v, m in enumerate(mate) if m > v][drop]
            mate[mate[a]] = mate[a] = -1
            return mate, dual, found

        monkeypatch.setattr(blossom, "_primal_dual", suboptimal)
        for n, edges in CERTIFIED_GRAPHS.values():
            graph = WeightedGraph.of(n, edges)
            with pytest.raises(EngineError, match="dual certificate"):
                max_weight_value(graph)
            with pytest.raises(EngineError, match="dual certificate"):
                max_weight_matching(graph)

    def test_corrupted_matching_is_refused(self):
        _, edges = CERTIFIED_GRAPHS["general"]
        pairs, y, blossoms = blossom.certified_matching(edges)
        u, v = pairs[0]
        other = next((a, b) for a, b, _ in edges if a == u and b != v)
        with pytest.raises(EngineError, match="sharing a node"):
            blossom.check_certificate(edges, pairs + [other], y, blossoms)
        with pytest.raises(EngineError, match="not an edge"):
            blossom.check_certificate(edges, [(u, 99)] + pairs[1:], y, blossoms)


@st.composite
def general_graphs(draw) -> WeightedGraph:
    """Up to 10 nodes, each pair an edge or not, weights from
    {0, 1/2, 1, 3/2, 2}: odd cycles, ties and zero-weight edges are common."""
    n = draw(st.integers(2, 10))
    slots = n * (n - 1) // 2
    weights = draw(
        st.lists(st.none() | st.sampled_from(HALVES), min_size=slots, max_size=slots)
    )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return WeightedGraph.of(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w is not None])


def networkx_pairs(edges) -> list[tuple[int, int]]:
    """networkx's maximum-weight matching of integer-weighted edges."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return sorted((min(u, v), max(u, v)) for u, v in nx.max_weight_matching(g))


def assert_tiebreak_agrees(graph: WeightedGraph) -> None:
    """The routed tie-break against the full-width solve, and against
    networkx on the same bonus-bit weights."""
    got = max_weight_matching(graph)
    assert got == wide_tiebreak(graph)
    wide = networkx_pairs(bonus_bit_edges(graph.edges))
    assert got == engine._lexicographic_minimum(graph, wide)


class TestAgainstNetworkx:
    """networkx's blossom as the independent twin of the engine's own."""

    @settings(max_examples=300, deadline=None)
    @given(graph=general_graphs())
    def test_value_tier(self, graph):
        weight_of = {(u, v): w for u, v, w in graph.edges}
        theirs = networkx_pairs(engine._integer_edges(graph.edges))
        assert max_weight_value(graph) == sum((weight_of[p] for p in theirs), F(0))
        # Same choices among equal slacks: the very same matching.
        assert list(engine._blossom(graph.edges)[1]) == theirs

    @settings(max_examples=300, deadline=None)
    @given(graph=general_graphs())
    def test_tiebreak_route(self, graph):
        assert_tiebreak_agrees(graph)

    def test_tiebreaks_of_a_rules_pass(self, monkeypatch):
        """Every canonical-tier graph of seq-PAV, seq-Phragmen and Rule X
        on the general elections n = 40 and 60 (p = 0.15, k = 10) of the
        benchmark's seed-1 rules workload (seeds: the first 8 bytes of
        sha256("1:rules/n40") and of sha256("1:rules/n60")): 63 graphs, all
        with odd cycles, 23,578 edges of which 6,576 are tight."""
        from matchvote import rule_x, seq_pav, seq_phragmen

        graphs = []
        solve = engine.max_weight_matching

        def recording(graph, certificate=None):
            graphs.append(graph)
            return solve(graph, certificate)

        monkeypatch.setattr(engine, "max_weight_matching", recording)
        for n, seed in ((40, 13584241550091571323), (60, 16304953386174001651)):
            election = generate(GeneratorParams("general", n, 0.15, 10, seed))
            seq_pav(election)
            seq_phragmen(election)
            rule_x(election, completion="none")
        monkeypatch.undo()
        assert len(graphs) == 63
        assert not any(is_bipartite(g) for g in graphs)
        assert sum(len(g.edges) for g in graphs) == 23578
        tight = 0
        for g in graphs:
            edges = engine._integer_edges(g.edges)
            _, y, blossoms = blossom.certified_matching(edges)
            tight += blossom.reduced_costs(edges, y, blossoms).count(0)
        assert tight == 6576
        for graph in graphs:
            assert_tiebreak_agrees(graph)


class TestWeightedApprovalWinner:
    def test_fig1_unit_weights_canonical_tie(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        winner = weighted_approval_winner(fig1_election, [F(1)] * 6)
        assert winner == c1
        assert approval_weight(fig1_election, [F(1)] * 6, winner) == 3

    def test_fig1_single_agent_weight(self, fig1_election, fig1_cands):
        _, _, c3 = fig1_cands
        weights = [F(0)] * 6
        weights[1] = F(1)
        winner = weighted_approval_winner(fig1_election, weights)
        assert winner == c3
        assert approval_weight(fig1_election, weights, winner) == 1

    def test_zero_weights_still_produce_candidate(self, fig1_election):
        winner = weighted_approval_winner(fig1_election, [F(0)] * 6)
        assert is_candidate(fig1_election, winner)

    def test_weight_validation(self, fig1_election):
        with pytest.raises(ElectionError, match="non-negative"):
            weighted_approval_winner(fig1_election, [F(-1)] + [F(0)] * 5)
        with pytest.raises(ElectionError, match="expected 6"):
            weighted_approval_winner(fig1_election, [F(1)] * 5)

    def test_oracle_equivalence_random(self):
        from conftest import random_corpus

        rng = random.Random(31)
        for election in random_corpus(31, 60):
            weights = [F(rng.randint(0, 8), rng.randint(1, 5)) for _ in range(election.n)]
            winner = weighted_approval_winner(election, weights)
            assert is_candidate(election, winner)
            assert approval_weight(election, weights, winner) == brute_waw_value(
                election, weights
            )


class TestOracleTiers:
    """The value tier against the canonical tier, the pre-tier two-phase
    path and brute force over the enumerated candidates."""

    @staticmethod
    def weighted_graph(election, weights) -> WeightedGraph:
        graph = election.approval_graph
        edges = [(a, b, weights[a] + weights[b]) for a, b in graph.mutual]
        edges += [(a, b, weights[a]) for a, b in graph.directed]
        return WeightedGraph.of(election.n, edges)

    def test_tiers_agree_on_random_corpus(self):
        from conftest import random_corpus

        rng = random.Random(41)
        positive = 0
        for election in random_corpus(41, 90):
            weights = [
                F(0) if rng.random() < 0.3 else F(rng.randint(1, 8), rng.randint(1, 5))
                for _ in range(election.n)
            ]
            value, group = weighted_approval_value(election, weights)
            winner = weighted_approval_winner(election, weights)
            assert value == approval_weight(election, weights, winner)
            assert value == max(
                approval_weight(election, weights, c)
                for c in enumerate_candidates(election, max_edges=32)
            )
            assert sum((weights[a] for a in group), F(0)) == value
            if all(w > 0 for w in weights):
                positive += 1
                two_phase = pareto_repair(
                    election, max_weight_matching(self.weighted_graph(election, weights))
                )
                assert winner == two_phase
        assert positive >= 5

    def test_positive_weights_skip_the_repair(self):
        from conftest import random_corpus

        for election in random_corpus(43, 30):
            weights = [F(1, a + 1) for a in range(election.n)]
            winner = max_weight_matching(self.weighted_graph(election, weights))
            assert is_candidate(election, winner)
            assert weighted_approval_winner(election, weights) == winner

    def test_value_tier_validates_weights(self, fig1_election):
        with pytest.raises(ElectionError, match="non-negative"):
            weighted_approval_value(fig1_election, [F(-1)] + [F(0)] * 5)
        with pytest.raises(ElectionError, match="expected 6"):
            weighted_approval_value(fig1_election, [F(1)] * 5)

    def test_floats_and_bools_never_reach_the_oracle(self, fig1_election):
        for oracle in (weighted_approval_value, weighted_approval_winner):
            for w in (0.1, True):
                with pytest.raises(ElectionError, match="not a rational"):
                    oracle(fig1_election, [F(1)] * 5 + [w])
        with pytest.raises(ElectionError, match="not a rational"):
            approval_weight(fig1_election, [0.1] * 6, Matching.of([(0, 1)]))
        ints = weighted_approval_value(fig1_election, [1, 0, 2, 0, 1, 1])
        assert ints == weighted_approval_value(fig1_election, [F(w) for w in (1, 0, 2, 0, 1, 1)])

    def test_approval_weight_refuses_a_list_of_the_wrong_length(self, fig1_election, fig1_cands):
        with pytest.raises(ElectionError, match="expected 6"):
            approval_weight(fig1_election, [F(1)], fig1_cands[0])

    def test_approval_weight_refuses_a_negative_weight(self, fig1_election, fig1_cands):
        with pytest.raises(ElectionError, match="non-negative"):
            approval_weight(fig1_election, [F(-1)] * 6, fig1_cands[0])

    def test_all_zero_weights_need_no_solve(self, blossom_calls, fig1_election):
        assert weighted_approval_value(fig1_election, [F(0)] * 6) == (F(0), frozenset())
        assert not blossom_calls
        assert weighted_approval_value(fig1_election, [F(0)] * 5 + [F(1)])[0] == 1
        assert len(blossom_calls) == 1


COMPILE_CORPUS = random_corpus(53, 60, n_max=9)

# Agent weights mixing 0, ints and fractions with denominators 1 to 12.
AGENT_WEIGHT = st.one_of(
    st.just(0),
    st.integers(1, 6),
    st.builds(Fraction, st.integers(0, 30), st.integers(1, 12)),
)


@st.composite
def weighted_elections(draw):
    election = draw(st.sampled_from(COMPILE_CORPUS))
    return election, draw(st.lists(AGENT_WEIGHT, min_size=election.n, max_size=election.n))


class TestCompiledValueTier:
    """The value tier's integer edges against the rational graph built
    from ``mutual`` and ``directed`` (``TestOracleTiers.weighted_graph``),
    independently of ``ApprovalGraph.approving_edges``."""

    @settings(max_examples=300, deadline=None)
    @given(weighted_elections())
    def test_compiled_edges_are_the_rescaled_rational_edges(self, case):
        election, weights = case
        twin = TestOracleTiers.weighted_graph(election, weights)
        edges = engine._compiled_edges(election, weights)[0]
        assert edges == engine._integer_edges(twin.edges)

    @settings(max_examples=300, deadline=None)
    @given(weighted_elections())
    def test_value_tier_matches_a_solve_of_the_rational_graph(self, case):
        election, weights = case
        if not any(weights):
            assert weighted_approval_value(election, weights) == (0, frozenset())
            return
        value, pairs = engine._blossom(TestOracleTiers.weighted_graph(election, weights).edges)
        expected = (value, approvers(election, Matching(pairs)))
        assert weighted_approval_value(election, weights) == expected

    def test_pareto_test_matches_the_rational_repair_solve(self):
        """Every matching of the complete graph, minimal or not."""
        for election in random_corpus(59, 30, n_max=6):
            n = election.n
            for pairs in iter_matchings(combinations(range(n), 2)):
                matching = Matching(pairs)
                supporters = approvers(election, matching)
                repair = [n + 1 if a in supporters else 1 for a in range(n)]
                best = max_weight_value(TestOracleTiers.weighted_graph(election, repair))
                expected = is_minimal(election, matching) and best == (n + 1) * len(supporters)
                assert is_candidate(election, matching) == expected


def forged_certificates(election, weights) -> list:
    """Certificates that do not prove an optimum of the compiled edges at
    ``weights``: every entry of y moved by one either way, the pairs of a
    suboptimal matching, and the certificate of other weights."""
    pairs, y, blossoms = engine._value_solve(election, weights)[2]
    edges = engine._compiled_edges(election, weights)[0]
    weight_of = {(u, v): w for u, v, w in edges}
    forged = []
    for i in range(len(y)):
        for delta in (-1, 1):
            moved = list(y)
            moved[i] += delta
            forged.append((pairs, moved, blossoms))
    dropped = next(p for p in pairs if weight_of[p] > 0)
    forged.append(([p for p in pairs if p != dropped], y, blossoms))
    forged.append(engine._value_solve(election, [F(1)] * election.n)[2])
    return forged


class TestCertificateHandOff:
    """The canonical tier started from the value tier's certificate instead
    of a second plain solve at the same weights."""

    @pytest.mark.parametrize(
        "rule, solves", [("seq_pav", 3), ("seq_phragmen", 8), ("rule_x", 8), ("ls_pav", 6)]
    )
    def test_solves_of_the_rules_on_fig1(self, blossom_calls, fig1_election, rule, solves):
        """fig1 is bipartite, so a canonical winner that starts from its
        round's certificate solves nothing more: seq-PAV's three rounds are
        its three marginals' solves.  Before the hand-off: 6, 13, 10, 9;
        before the Newton crossing search, seq-Phragmén's took 10."""
        import matchvote

        getattr(matchvote, rule)(fig1_election)
        assert len(blossom_calls) == solves

    def test_repair_and_witness_start_from_their_value_solve(
        self, blossom_calls, fig1_election, fig1_cands, triangle_election
    ):
        from matchvote import Committee, check_ejr
        from matchvote.fixtures import phragmen_alternating_sequence

        # The Pareto test's solve alone (the graph is bipartite).
        assert pareto_repair(fig1_election, Matching.of([(1, 2)])) == fig1_cands[2]
        assert len(blossom_calls) == 1
        blossom_calls.clear()
        # One value solve at ell = 4, the witness's wide solve on the tight
        # triangle and its repair's Pareto test.
        sequence = phragmen_alternating_sequence(triangle_election)
        verdict = check_ejr(triangle_election, Committee.from_sequence(sequence))
        assert verdict.ell == 4
        assert len(blossom_calls) == 3

    @settings(max_examples=300, deadline=None)
    @given(weighted_elections())
    def test_winner_is_the_same_from_the_value_tiers_certificate(self, case):
        election, weights = case
        certificate = engine._value_solve(election, weights)[2]
        untouched = deepcopy(certificate)
        plain = weighted_approval_winner(election, weights)
        assert weighted_approval_winner(election, weights, certificate) == plain
        assert certificate == untouched

    @pytest.mark.parametrize(
        "params",
        [GeneratorParams("general", 8, 0.5, 3, 4), GeneratorParams("bipartite", 8, 0.5, 3, 4)],
        ids=["general", "bipartite"],
    )
    def test_forged_certificates_are_refused(self, params):
        election = generate(params)
        weights = [F(a + 1, 2) for a in range(election.n)]
        graph = engine._canonical_graph(election, weights)
        assert is_bipartite(graph) == (params.election_class == "bipartite")
        forged = forged_certificates(election, weights)
        assert len(forged) == 2 * len(forged[0][1]) + 2
        for certificate in forged:
            with pytest.raises(EngineError):
                weighted_approval_winner(election, weights, certificate)
            with pytest.raises(EngineError):
                max_weight_matching(graph, certificate)


class TestParetoRepairAndCandidates:
    def test_repair_extends_to_candidate(self, fig1_election, fig1_cands):
        _, _, c3 = fig1_cands
        assert pareto_repair(fig1_election, Matching.of([(1, 2)])) == c3

    def test_repair_is_identity_on_candidates(self, fig1_election, fig1_cands):
        for c in fig1_cands:
            assert pareto_repair(fig1_election, c) == c

    def test_repair_of_empty_matching(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        repaired = pareto_repair(fig1_election, Matching(()))
        assert is_candidate(fig1_election, repaired)
        assert repaired == c1

    def test_repair_rejects_non_minimal(self, fig1_election):
        with pytest.raises(ElectionError, match="minimal"):
            pareto_repair(fig1_election, Matching.of([(4, 5)]))

    def test_is_candidate_examples(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        assert is_candidate(fig1_election, c2)
        assert not is_candidate(fig1_election, Matching.of([(0, 1)]))
        assert not is_candidate(fig1_election, Matching.of([(4, 5)]))

    def test_minimality_of_candidates_random(self):
        from conftest import random_corpus

        for election in random_corpus(17, 20):
            winner = weighted_approval_winner(election, [F(1)] * election.n)
            graph = election.approval_graph
            for a, b in winner.pairs:
                assert graph.approving_endpoints(a, b)


class TestGallaiEdmonds:
    def test_path_of_three(self):
        g = WeightedGraph.of(3, [(0, 1, 1), (1, 2, 1)])
        d = gallai_edmonds(g)
        assert d.inessential == (0, 2)
        assert d.boundary == (1,)
        assert d.core == ()
        assert d.components == ((0,), (2,))

    def test_single_edge_all_core(self):
        g = WeightedGraph.of(2, [(0, 1, 1)])
        d = gallai_edmonds(g)
        assert d.inessential == () and d.boundary == ()
        assert d.core == (0, 1)

    def test_triangle_factor_critical(self):
        g = WeightedGraph.of(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        d = gallai_edmonds(g)
        assert d.inessential == (0, 1, 2)
        assert d.boundary == () and d.core == ()
        assert d.components == ((0, 1, 2),)

    def test_matches_brute_force_definition_random(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(2, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.3, 0.5])
            ]
            g = WeightedGraph.of(n, [(u, v, F(1)) for u, v in edges])
            d = gallai_edmonds(g)
            nu = brute_matching_number(edges)
            expected = tuple(
                v
                for v in range(n)
                if brute_matching_number([e for e in edges if v not in e]) == nu
            )
            assert d.inessential == expected

    def test_whole_graph_is_solved_once(self, blossom_calls):
        """One solve of the whole graph, one for the core and one per
        component node minus that node: 17 solves on this 15-node
        factor-critical graph."""
        election = generate(GeneratorParams("symmetric", 15, 0.3, 5, 3))
        g = WeightedGraph.of(
            election.n, [(a, b, F(1)) for a, b in election.approval_graph.undirected_edges]
        )
        d = gallai_edmonds(g)
        assert d.components == (tuple(range(15)),)
        assert len(blossom_calls) == 17
        assert sum(1 for edges in blossom_calls if len(edges) == len(g.edges)) == 1

    def test_no_solve_per_node(self, blossom_calls):
        """The seeded n = 40 election that ``analyze`` reads has an empty
        D: one solve of the whole graph and one of the core, 2 in all (42
        when D was found by solving the graph minus each node in turn)."""
        election = generate(GeneratorParams("general", 40, 0.15, 10, 1))
        g = WeightedGraph.of(
            election.n, [(a, b, F(1)) for a, b in election.approval_graph.undirected_edges]
        )
        assert gallai_edmonds(g) == gallai_edmonds_twin(g)
        blossom_calls.clear()
        gallai_edmonds(g)
        assert len(blossom_calls) == 2

    def test_matches_the_twin_on_a_seeded_corpus(self):
        """Every field against the definition (one solve per node, then a
        depth-first search) on 1,000 graphs of at most 14 nodes: dense
        Bernoulli graphs, odd cycles glued with chords, trees, and sparse
        graphs with isolated nodes."""
        rng = random.Random(2201)
        for i in range(1000):
            n = rng.randint(1, 14)
            kind = i % 4
            if kind == 0:
                p = rng.choice([0.4, 0.6, 0.8])
                edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}
            elif kind == 1:
                order, edges, length = rng.sample(range(n), n), set(), rng.choice([3, 5, 7])
                while len(order) >= length:  # each cycle shares its last node with the next
                    cycle, order = order[:length], order[length - 1:]
                    edges |= {(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
                    length = rng.choice([3, 5, 7])
                for _ in range(rng.randint(0, n) if n > 1 else 0):
                    a, b = rng.sample(range(n), 2)
                    edges.add((min(a, b), max(a, b)))
            elif kind == 2:
                edges = {(rng.randrange(v), v) for v in range(1, n)}
            else:
                edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < 1.5 / n}
            g = WeightedGraph.of(n, [(u, v, F(1)) for u, v in edges])
            assert gallai_edmonds(g) == gallai_edmonds_twin(g), sorted(edges)

    @pytest.mark.parametrize(
        "certificate, message",
        [
            (([(0, 1)], [2, 0], []), "matched from the boundary in every"),
            (([(0, 1)], [0, 2], []), "matched from the boundary in every"),
            (([(0, 1)], [1, 1], [((0,), 1)]), "do not partition"),
        ],
        ids=["y=(2,0)", "y=(0,2)", "blossom-outside-D"],
    )
    def test_refuses_a_mutated_certificate(self, monkeypatch, certificate, message):
        """Optimal duals of the single edge (0, 1) other than the cold
        solve's y = (1, 1) read off a wrong D, which the surplus check
        refuses; a blossom with z > 0 outside D is refused before."""
        solve = engine.certified_matching
        monkeypatch.setattr(
            engine, "certified_matching",
            lambda edges: certificate if edges == [(0, 1, 1)] else solve(edges),
        )
        with pytest.raises(EngineError, match=message):
            gallai_edmonds(WeightedGraph.of(2, [(0, 1, 1)]))

    def test_deficiency_is_read_from_the_given_matching(self):
        from matchvote.engine import _verify_gallai_edmonds

        g = WeightedGraph.of(3, [(0, 1, 1), (1, 2, 1)])
        d = gallai_edmonds(g)
        _verify_gallai_edmonds(d, [(0, 1), (1, 2)], [(0, 1)], 3)
        with pytest.raises(EngineError, match="deficiency"):
            _verify_gallai_edmonds(d, [(0, 1), (1, 2)], [], 3)


class TestStructuralObservations:
    def test_approval_factor_three_bound(self):
        # Every pair of candidates has approval scores within a factor of 3.
        from conftest import random_corpus
        from matchvote import enumerate_candidates

        for election in random_corpus(53, 25):
            cands = enumerate_candidates(election, max_edges=32)
            sizes = [len(approvers(election, c)) for c in cands]
            for s in sizes:
                for t in sizes:
                    assert F(s) >= F(t, 3)

    def test_symmetric_candidates_share_score_and_are_maximum(self):
        from conftest import random_corpus
        from matchvote import enumerate_candidates

        for election in random_corpus(54, 25, classes=("symmetric",)):
            cands = enumerate_candidates(election, max_edges=32)
            edges = election.approval_graph.undirected_edges
            nu = brute_matching_number(edges)
            scores = {len(approvers(election, c)) for c in cands}
            assert len(scores) == 1
            assert all(len(c.pairs) == nu for c in cands)
            assert scores == {2 * nu}
