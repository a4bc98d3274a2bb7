from __future__ import annotations

from fractions import Fraction

import pytest

from matchvote import (
    Committee,
    ElectionError,
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
from conftest import random_corpus

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
