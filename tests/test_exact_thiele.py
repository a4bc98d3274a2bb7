from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

from matchvote import (
    Committee,
    ElectionError,
    EngineError,
    GeneratorParams,
    GuardExceeded,
    Matching,
    MatchingElection,
    WeightSequence,
    bipartite_thiele,
    classify,
    exact_thiele,
    generate,
    happiness,
    is_candidate,
    lift_committee,
    oracle_optimal_committee,
    seq_thiele,
    symmetric_to_bipartite,
    thiele_score,
)
from matchvote.exact_thiele import _AgentFlow, _bipartition
from conftest import random_corpus
from oracles import meta_oracle_thiele

# The module, which the package's ``exact_thiele`` function shadows.
exact_module = importlib.import_module("matchvote.exact_thiele")

F = Fraction


@pytest.fixture(scope="module")
def two_suitors():
    # u1 and u2 both mutually approve v1.
    return MatchingElection(
        ("u1", "u2", "v1"), (frozenset({2}), frozenset({2}), frozenset({0, 1})), 2
    )


@pytest.fixture(scope="module")
def mutual_pair():
    return MatchingElection(("a", "b"), (frozenset({1}), frozenset({0})), 3)


class TestBipartiteThiele:
    def test_shared_partner_splits_seats(self, two_suitors):
        out = bipartite_thiele(two_suitors, WeightSequence.pav())
        m1 = Matching.of([(0, 2)])
        m2 = Matching.of([(1, 2)])
        assert out.committee.multiset() == {m1: 1, m2: 1}
        assert out.score == F(7, 2)

    def test_single_pair_repeats(self, mutual_pair):
        pav = WeightSequence.pav()
        out = bipartite_thiele(mutual_pair, pav)
        assert out.committee.multiset() == {Matching.of([(0, 1)]): 3}
        assert out.score == 2 * (1 + F(1, 2) + F(1, 3))

    def test_rejects_non_bipartite(self, triangle_election):
        with pytest.raises(ElectionError, match="bipartite"):
            bipartite_thiele(triangle_election, WeightSequence.pav())

    def test_meta_election_size_guard(self):
        """prop-seq-core's meta-election would have 149 approval edges x
        98^2 edges; it is refused before it is built."""
        from matchvote.exact_thiele import MAX_META_EDGES
        from matchvote.fixtures import fixture

        election = fixture("prop-seq-core")
        assert len(election.approval_graph.undirected_edges) * 98**2 > MAX_META_EDGES
        with pytest.raises(GuardExceeded, match="would have 1430996 edges"):
            exact_thiele(election, WeightSequence.pav())

    def test_members_are_candidates(self):
        for election in random_corpus(41, 20, classes=("bipartite",)):
            out = bipartite_thiele(election, WeightSequence.pav())
            for m in out.committee.support:
                assert is_candidate(election, m)

    @pytest.mark.parametrize("weights_name", ["pav", "av", "cc"])
    def test_oracle_equivalence_all_weight_families(self, weights_name):
        maker = {
            "pav": WeightSequence.pav,
            "av": WeightSequence.av,
            "cc": WeightSequence.cc,
        }[weights_name]
        for election in random_corpus(42, 20, classes=("bipartite",)):
            out = bipartite_thiele(election, maker())
            _, optimum = oracle_optimal_committee(election, maker(), max_edges=40)
            assert out.score == optimum


# Full committees of bipartite_thiele on seeded bipartite elections
# (p = 0.4): unequal sides exercise the padding dummies, and all but the
# 12-agent election have several optimal committees, so these pin the
# tie-break and not only the score.
PINNED_COMMITTEES = [
    # (n, seed, k, weights, [(pairs, count), ...], score)  sides
    (5, 0, 3, "pav", [([(0, 4)], 3)], "11/6"),  # 4/1
    (5, 4, 3, "pav", [([(0, 3), (2, 4)], 2), ([(0, 4), (1, 3)], 1)], "37/6"),  # 3/2
    (6, 3, 3, "pav", [([(0, 3), (1, 4)], 2), ([(0, 5), (1, 3), (2, 4)], 1)], "37/6"),  # 3/3
    (
        6, 6, 3, "pav",
        [([(0, 4), (1, 5)], 1), ([(0, 4), (2, 5)], 1), ([(0, 5), (1, 4)], 1)],
        "5",
    ),  # 4/2
    (
        7, 0, 3, "pav",
        [([(0, 5), (1, 4)], 1), ([(0, 5), (2, 4)], 1), ([(1, 4), (3, 5)], 1)],
        "5",
    ),  # 5/2
    (7, 2, 3, "pav", [([(0, 5), (1, 4), (3, 6)], 2), ([(1, 6), (2, 4), (3, 5)], 1)], "8"),  # 4/3
    (7, 1, 3, "av", [([(0, 4), (1, 5), (2, 6)], 3)], "12"),  # 4/3
    (6, 0, 3, "cc", [([(0, 4), (1, 3)], 2), ([(0, 4), (2, 3)], 1)], "3"),  # 4/2
    (
        9, 5, 4, "pav",
        [([(0, 8), (1, 6), (2, 5), (3, 7)], 3), ([(1, 6), (2, 8), (3, 7), (4, 5)], 1)],
        "55/4",
    ),  # 5/4
    (12, 3, 4, "av", [([(0, 10), (1, 7), (2, 6), (3, 11), (4, 9), (5, 8)], 4)], "36"),  # 6/6
]


@pytest.mark.parametrize(
    "n, seed, k, weights_name, entries, score",
    PINNED_COMMITTEES,
    ids=[f"n{c[0]}-seed{c[1]}-k{c[2]}-{c[3]}" for c in PINNED_COMMITTEES],
)
def test_pinned_tie_break(n, seed, k, weights_name, entries, score):
    election = generate(GeneratorParams("bipartite", n, 0.4, k, seed))
    out = bipartite_thiele(election, getattr(WeightSequence, weights_name)())
    expected = Committee.from_counts({Matching.of(pairs): c for pairs, c in entries})
    assert out.committee == expected
    assert out.score == F(score)


class TestSymmetricReduction:
    def test_triangle_reduction_shape(self, triangle_election):
        reduction = symmetric_to_bipartite(triangle_election)
        assert reduction.inessential == (0, 1, 2)
        assert reduction.boundary == ()
        assert reduction.components == ((0, 1, 2),)
        assert reduction.psi is not None
        # One side is the component, the other its two dummies.
        assert reduction.psi.n == 5
        cls = classify(reduction.psi)
        assert cls.symmetric and cls.bipartite

    def test_pair_reduction_degenerate(self):
        e = MatchingElection(("a", "b"), (frozenset({1}), frozenset({0})), 3)
        reduction = symmetric_to_bipartite(e)
        assert reduction.psi is None
        assert reduction.core_matching == Matching.of([(0, 1)])
        with pytest.raises(ElectionError, match="degenerate"):
            lift_committee(reduction, Committee.from_counts({Matching(()): 1}))

    def test_path_reduction(self):
        e = MatchingElection(
            ("a", "b", "c"),
            (frozenset({1}), frozenset({0, 2}), frozenset({1})),
            2,
        )
        reduction = symmetric_to_bipartite(e)
        assert reduction.inessential == (0, 2)
        assert reduction.boundary == (1,)
        assert reduction.psi is not None and reduction.psi.n == 3

    def test_rejects_asymmetric(self, fig1_election):
        with pytest.raises(ElectionError, match="symmetric"):
            symmetric_to_bipartite(fig1_election)

    def test_lift_triangle_dummy_matching(self, triangle_election):
        reduction = symmetric_to_bipartite(triangle_election)
        psi = reduction.psi
        assert psi is not None and psi.names == ("a1", "a2", "a3", "~d0.0", "~d0.1")
        psi_matching = Matching.of([(0, 3), (1, 4)])
        lifted = lift_committee(reduction, Committee.from_counts({psi_matching: 1}))
        assert lifted.multiset() == {Matching.of([(0, 1)]): 1}

    def test_lift_path_boundary_matching(self):
        e = MatchingElection(
            ("a", "b", "c"),
            (frozenset({1}), frozenset({0, 2}), frozenset({1})),
            2,
        )
        reduction = symmetric_to_bipartite(e)
        psi = reduction.psi
        assert psi is not None
        # In the reduction, agent a (psi index 0) pairs with boundary b.
        base_b = reduction.psi_to_base.index(1)
        psi_matching = Matching.of([(0, base_b)])
        lifted = lift_committee(reduction, Committee.from_counts({psi_matching: 1}))
        assert lifted.multiset() == {Matching.of([(0, 1)]): 1}

    def test_lift_rejects_non_candidates(self, triangle_election):
        reduction = symmetric_to_bipartite(triangle_election)
        psi = reduction.psi
        assert psi is not None
        # Leaving a dummy unmatched is Pareto-dominated in the reduction.
        psi_matching = Matching.of([(0, 3)])
        with pytest.raises(ElectionError, match="candidates"):
            lift_committee(reduction, Committee.from_counts({psi_matching: 1}))

    def test_lift_preserves_inessential_happiness(self):
        pav = WeightSequence.pav()
        for election in random_corpus(43, 20, classes=("symmetric",)):
            if classify(election).bipartite:
                continue
            reduction = symmetric_to_bipartite(election)
            if reduction.psi is None:
                continue
            psi_out = bipartite_thiele(reduction.psi, pav)
            lifted = lift_committee(reduction, psi_out.committee)
            h_base = happiness(election, lifted)
            h_psi = happiness(reduction.psi, psi_out.committee)
            for psi_idx, base_idx in enumerate(
                reduction.psi_to_base[: len(reduction.inessential)]
            ):
                assert h_base[base_idx] == h_psi[psi_idx]
            # Core and boundary agents approve every lifted matching.
            decided = set(reduction.inessential)
            for agent in range(election.n):
                if agent not in decided:
                    assert h_base[agent] == lifted.size


class TestExactThiele:
    def test_fig1_pav(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        out = exact_thiele(fig1_election, WeightSequence.pav())
        assert out.score == 7
        assert out.committee.multiset() == {c1: 1, c2: 1, c3: 1}
        assert out.method == "bipartite"

    def test_triangle_pav(self, triangle_election):
        out = exact_thiele(triangle_election, WeightSequence.pav(), 3)
        assert out.method == "symmetric"
        assert out.score == F(9, 2)
        assert out.committee.multiset() == {
            Matching.of([(0, 1)]): 1,
            Matching.of([(0, 2)]): 1,
            Matching.of([(1, 2)]): 1,
        }

    def test_k_override_single_seat(self, fig1_election):
        out = exact_thiele(fig1_election, WeightSequence.pav(), 1)
        assert out.committee.size == 1
        assert out.score == 3

    def test_general_brute_force_path(self):
        # Directed 3-cycle: not symmetric, odd undirected cycle.
        e = MatchingElection(
            ("a", "b", "c"),
            (frozenset({1}), frozenset({2}), frozenset({0})),
            2,
        )
        out = exact_thiele(e, WeightSequence.pav())
        assert out.method == "brute-force"
        # Each single edge is a candidate approved by one agent; any two
        # distinct edges cover two agents for score 2.
        assert out.score == 2

    def test_general_guard_refusal(self):
        e = MatchingElection(
            ("a", "b", "c"),
            (frozenset({1}), frozenset({2}), frozenset({0})),
            2,
        )
        with pytest.raises(GuardExceeded, match="NP-hard"):
            exact_thiele(e, WeightSequence.pav(), max_edges=2)

    def test_oracle_equivalence_symmetric(self):
        pav = WeightSequence.pav()
        for election in random_corpus(44, 25, classes=("symmetric",)):
            out = exact_thiele(election, pav)
            _, optimum = oracle_optimal_committee(election, pav, max_edges=40)
            assert out.score == optimum

    def test_score_at_least_sequential(self):
        pav = WeightSequence.pav()
        for election in random_corpus(45, 20, classes=("bipartite", "symmetric")):
            exact = exact_thiele(election, pav)
            greedy = seq_thiele(election, pav)
            assert exact.score >= thiele_score(election, pav, greedy.committee)

    def test_score_matches_committee(self):
        pav = WeightSequence.pav()
        for election in random_corpus(46, 15, classes=("bipartite", "symmetric")):
            out = exact_thiele(election, pav)
            assert out.score == thiele_score(election, pav, out.committee)


# ---------------------------------------------------------------------------
# The agent-level flow against the meta-election oracle
# ---------------------------------------------------------------------------

FLOW_WEIGHTS = {
    "pav": WeightSequence.pav(),
    "av": WeightSequence.av(),
    "cc": WeightSequence.cc(),
    "zero-tail": WeightSequence.from_values([1, F(1, 2), F(1, 2), 0, 0, 0]),
}


@pytest.fixture
def flow_winners(monkeypatch) -> list:
    """The meta-election winners ``bipartite_thiele`` names, each with the
    certificate its canonical tier started from."""
    oracle = exact_module.weighted_approval_winner
    calls = []

    def recorded(meta, meta_weights, certificate=None):
        winner = oracle(meta, meta_weights, certificate)
        calls.append((winner, certificate))
        return winner

    monkeypatch.setattr(exact_module, "weighted_approval_winner", recorded)
    return calls


def _isolated(election: MatchingElection) -> bool:
    touched = {a for edge in election.approval_graph.undirected_edges for a in edge}
    return len(touched) < election.n


class TestAgentFlowTwin:
    """``bipartite_thiele`` starts the canonical tier from the flow's lifted
    certificate; ``meta_oracle_thiele`` solves the meta-election cold.
    Winner, committee and score must agree."""

    def _agree(self, flow_winners, election, weights, k=None):
        flow_winners.clear()
        out = bipartite_thiele(election, weights, k)
        ((winner, certificate),) = flow_winners
        assert certificate is not None
        twin_winner, twin = meta_oracle_thiele(election, weights, k)
        assert winner == twin_winner
        assert out.committee == twin.committee and out.score == twin.score

    @pytest.mark.parametrize("name", list(FLOW_WEIGHTS))
    def test_bipartite_elections(self, flow_winners, name):
        corpus = random_corpus(19, 60, classes=("bipartite",), n_max=9, k_max=4)
        assert any(e.k == 1 for e in corpus) and any(_isolated(e) for e in corpus)
        for election in corpus:
            self._agree(flow_winners, election, FLOW_WEIGHTS[name])

    @pytest.mark.parametrize("name", list(FLOW_WEIGHTS))
    def test_symmetric_stand_ins(self, flow_winners, name):
        stand_ins = []
        for election in random_corpus(20, 40, classes=("symmetric",), n_max=9, k_max=4):
            psi = symmetric_to_bipartite(election).psi
            if psi is not None:
                stand_ins.append(psi)
                self._agree(flow_winners, psi, FLOW_WEIGHTS[name], election.k)
        assert len(stand_ins) >= 20 and any(_isolated(psi) for psi in stand_ins)

    def test_agents_without_edges_at_k_one(self, flow_winners):
        # a1 and a2 approve b1; a3 and b2 have no edge.
        election = MatchingElection(
            ("a1", "a2", "a3", "b1", "b2"),
            (frozenset({3}), frozenset({3}), frozenset(), frozenset(), frozenset()),
            1,
        )
        for weights in FLOW_WEIGHTS.values():
            self._agree(flow_winners, election, weights)


# Two sides of three agents, eight approval edges (four mutual), k = 3.
REFUSAL_ELECTION = generate(GeneratorParams("bipartite", 6, 0.5, 3, 1))
_LIFT = exact_module._flow_certificate


def _corrupt(monkeypatch, change) -> None:
    """Make ``bipartite_thiele`` hand ``change(pairs, y)`` of the lifted
    certificate to the canonical tier."""

    def corrupted(*args):
        pairs, y, blossoms = _LIFT(*args)
        return (*change(list(pairs), list(y)), blossoms)

    monkeypatch.setattr(exact_module, "_flow_certificate", corrupted)


class TestAgentFlowRefusals:
    """The certificate check alone refuses a wrong flow or lift with
    ``EngineError``; no committee is returned."""

    def test_a_dual_one_unit_off_on_any_copy(self, monkeypatch):
        election, pav = REFUSAL_ELECTION, WeightSequence.pav()
        for copy in range(election.n * election.k):
            for delta in (1, -1):

                def change(pairs, y, copy=copy, delta=delta):
                    y[copy] += delta
                    return pairs, y

                _corrupt(monkeypatch, change)
                with pytest.raises(EngineError, match="dual certificate"):
                    bipartite_thiele(election, pav)

    def test_the_pairs_of_a_suboptimal_matching(self, monkeypatch):
        election, pav = REFUSAL_ELECTION, WeightSequence.pav()
        size = len(exact_module._flow_certificate(
            election, _bipartition(election), [pav[i] for i in range(1, election.k + 1)]
        )[0])
        assert size >= 2
        for dropped in range(size):
            _corrupt(monkeypatch, lambda pairs, y, i=dropped: (pairs[:i] + pairs[i + 1:], y))
            with pytest.raises(EngineError, match="dual certificate"):
                bipartite_thiele(election, pav)

    def test_a_flow_stopped_one_augmentation_early(self, monkeypatch):
        election, pav = REFUSAL_ELECTION, WeightSequence.pav()
        pushed = []
        push = _AgentFlow.push
        monkeypatch.setattr(
            _AgentFlow, "push", lambda self, path: (pushed.append(path), push(self, path))
        )
        expected = bipartite_thiele(election, pav)
        paths = len(pushed)
        assert paths >= 2
        pushed.clear()
        search = _AgentFlow.cheapest_path
        monkeypatch.setattr(
            _AgentFlow,
            "cheapest_path",
            lambda self: None if len(pushed) == paths - 1 else search(self),
        )
        with pytest.raises(EngineError, match="dual certificate"):
            bipartite_thiele(election, pav)
        monkeypatch.setattr(_AgentFlow, "cheapest_path", search)
        assert bipartite_thiele(election, pav) == expected

    def test_no_blossom_solve_on_the_meta_election(self, blossom_calls):
        election = generate(GeneratorParams("bipartite", 12, 0.4, 4, 3))
        out = bipartite_thiele(election, WeightSequence.pav())
        meta_edges = len(election.approval_graph.undirected_edges) * election.k**2
        # The k perfect-matching extractions and one Pareto test per distinct
        # member; before, also one solve of all 16 copies of every edge.
        assert len(blossom_calls) == election.k + len(out.committee.support)
        assert all(len(edges) < meta_edges for edges in blossom_calls)


class TestAgentFlowBounds:
    def test_a_flow_that_makes_no_progress_is_refused(self, monkeypatch):
        searches = []
        search = _AgentFlow.cheapest_path
        monkeypatch.setattr(
            _AgentFlow, "cheapest_path", lambda self: searches.append(1) or search(self)
        )
        monkeypatch.setattr(_AgentFlow, "push", lambda self, path: None)
        election = REFUSAL_ELECTION
        with pytest.raises(EngineError, match="did not stop within its bound"):
            bipartite_thiele(election, WeightSequence.pav())
        # k units for each agent of the smaller side, plus the last search.
        smaller = min(len(side) for side in _bipartition(election))
        assert len(searches) == election.k * smaller + 1

    def test_broken_potentials_are_refused(self):
        election = REFUSAL_ELECTION
        partition = _bipartition(election)
        flow = _AgentFlow(election, partition, [6, 3, 2])
        a = partition[0][0]
        flow.potential[3 + 3 * a] += 100  # a's approving lane
        with pytest.raises(EngineError, match="negative reduced cost"):
            flow.run()
