from __future__ import annotations

from fractions import Fraction

import pytest

from matchvote import (
    ElectionError,
    GeneratorParams,
    GuardExceeded,
    Matching,
    MatchingElection,
    WeightSequence,
    check_core,
    classify,
    dump_election,
    enumerate_candidates,
    exact_thiele,
    generate,
    is_candidate,
    load_election,
    oracle_optimal_committee,
    seq_pav,
)
from matchvote.fixtures import (
    FIXTURE_NAMES,
    fixture,
    prop_seq_core,
    rulex_proof_run,
    seq_core_blocking,
    seq_core_proof_committee,
)
from oracles import brute_candidates

F = Fraction


class TestEnumerateCandidates:
    def test_fig1_exactly_three(self, fig1_election, fig1_cands):
        assert enumerate_candidates(fig1_election) == fig1_cands

    def test_single_mutual_pair(self):
        e = MatchingElection(("a", "b"), (frozenset({1}), frozenset({0})), 1)
        assert enumerate_candidates(e) == (Matching.of([(0, 1)]),)

    def test_footnote4_two_candidates(self, footnote4_election, footnote4_cands):
        assert enumerate_candidates(footnote4_election) == footnote4_cands

    def test_guard_refusal(self):
        e = prop_seq_core()
        with pytest.raises(GuardExceeded, match="guard"):
            enumerate_candidates(e)

    def test_agrees_with_brute_filter(self):
        from conftest import random_corpus

        for election in random_corpus(81, 30):
            assert list(enumerate_candidates(election, max_edges=32)) == brute_candidates(
                election
            )

    def test_all_outputs_are_candidates(self):
        from conftest import random_corpus

        for election in random_corpus(82, 15):
            for m in enumerate_candidates(election, max_edges=32):
                assert is_candidate(election, m)


class TestOracleOptimalCommittee:
    def test_fig1_pav(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        committee, score = oracle_optimal_committee(fig1_election, WeightSequence.pav())
        assert score == 7
        assert committee.multiset() == {c1: 1, c2: 1, c3: 1}

    def test_footnote4_prefers_three_to_one(self, footnote4_election, footnote4_cands):
        c, cp = footnote4_cands
        committee, score = oracle_optimal_committee(
            footnote4_election, WeightSequence.pav()
        )
        assert committee.multiset() == {c: 3, cp: 1}
        assert score == F(13, 2)

    def test_k_one_picks_most_approved(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        committee, score = oracle_optimal_committee(
            fig1_election, WeightSequence.pav(), 1
        )
        assert committee.multiset() == {c1: 1}
        assert score == 3

    def test_multiset_guard(self, fig1_election):
        with pytest.raises(GuardExceeded, match="NP-hard"):
            oracle_optimal_committee(
                fig1_election, WeightSequence.pav(), max_multisets=2
            )

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_size_rejected(self, fig1_election, k):
        with pytest.raises(ElectionError, match="committee size must be positive"):
            oracle_optimal_committee(fig1_election, WeightSequence.pav(), k)


BIPARTITE = generate(GeneratorParams("bipartite", 6, 0.5, 2, 1))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda e: enumerate_candidates(e, max_edges=-1), "max_edges"),
        (lambda e: oracle_optimal_committee(e, WeightSequence.pav(), max_multisets=-1),
         "max_multisets"),
        # A bipartite election, which never reaches the guarded search.
        (lambda e: exact_thiele(BIPARTITE, WeightSequence.pav(), max_edges=-1), "max_edges"),
        (lambda e: exact_thiele(BIPARTITE, WeightSequence.pav(), max_multisets=-1),
         "max_multisets"),
        (lambda e: check_core(e, seq_pav(e).committee, max_deviations=-1), "max_deviations"),
    ],
    ids=["enumerate", "oracle-multisets", "exact-edges", "exact-multisets", "core-deviations"],
)
def test_negative_guard_is_input_error(fig1_election, call, name):
    with pytest.raises(ElectionError, match=f"{name} must be non-negative"):
        call(fig1_election)


def test_guard_defaults_come_from_harness():
    import inspect

    from matchvote import check_core, exact_thiele, explore_cowinners
    from matchvote.cli import build_parser
    from matchvote.harness import DEFAULT_EDGE_GUARD, DEFAULT_MULTISET_GUARD

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    for fn in (check_core, exact_thiele, explore_cowinners):
        assert default(fn, "max_edges") is DEFAULT_EDGE_GUARD
    assert default(exact_thiele, "max_multisets") is DEFAULT_MULTISET_GUARD
    assert default(check_core, "max_deviations") is DEFAULT_MULTISET_GUARD
    args = build_parser().parse_args(["enumerate", "election.json"])
    assert args.max_edges is DEFAULT_EDGE_GUARD


class TestGenerate:
    def test_deterministic_for_seed(self):
        params = GeneratorParams("bipartite", 6, 0.5, 3, 42)
        assert generate(params) == generate(params)

    def test_symmetric_probability_one_is_complete(self):
        e = generate(GeneratorParams("symmetric", 6, 1.0, 3, 5))
        assert all(len(s) == 5 for s in e.approvals)
        assert classify(e).symmetric

    def test_class_constraints_hold(self):
        for i in range(12):
            sym = generate(GeneratorParams("symmetric", 6, 0.4, 2, 100 + i))
            assert classify(sym).symmetric
            bip = generate(GeneratorParams("bipartite", 7, 0.4, 2, 200 + i))
            assert classify(bip).bipartite

    def test_general_instances_usually_general(self):
        hits = sum(
            1
            for i in range(20)
            if classify(generate(GeneratorParams("general", 7, 0.4, 3, 300 + i))).tag
            == "general"
        )
        assert hits >= 15

    def test_probability_zero_rejected(self):
        with pytest.raises(ElectionError, match="probability 0"):
            generate(GeneratorParams("general", 4, 0.0, 1, 1))

    def test_unknown_class_rejected(self):
        with pytest.raises(ElectionError, match="unknown election class"):
            GeneratorParams("tripartite", 4, 0.5, 1, 1)

    def test_redraws_are_bounded(self):
        with pytest.raises(GuardExceeded, match="1000 draws"):
            generate(GeneratorParams("general", 2, 1e-300, 1, 1))


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip(self, name):
        e = fixture(name)
        assert load_election(dump_election(e)) == e

    def test_shapes(self):
        assert fixture("fig1").n == 6 and fixture("fig1").k == 3
        assert fixture("footnote4").n == 4 and fixture("footnote4").k == 4
        assert fixture("prop-phragmen-ejr").n == 3 and fixture("prop-phragmen-ejr").k == 6
        assert fixture("prop-rulex-core").n == 13 and fixture("prop-rulex-core").k == 13
        big = fixture("prop-seq-core")
        assert big.n == 98 and big.k == 98

    def test_unknown_name(self):
        with pytest.raises(ElectionError, match="unknown fixture"):
            fixture("fig2")

    def test_rulex_run_members_have_eight_approvers(self, rulex_election):
        sequence, _, _, _ = rulex_proof_run(rulex_election)
        from matchvote import approvers

        for m in sequence:
            assert len(approvers(rulex_election, m)) == 8

    def test_seq_core_committee_is_greedy_valid(self):
        from matchvote import verify_run

        e = prop_seq_core()
        committee = seq_core_proof_committee(e)
        assert verify_run(e, "seq-pav", committee.trace).valid

    def test_seq_core_committee_profile(self):
        e = prop_seq_core()
        committee = seq_core_proof_committee(e)
        assert committee.size == 98
        from matchvote import happiness

        h = happiness(e, committee)
        index = e.index_of
        a_h = sorted(h[index[f"A{i + 1}"]] for i in range(27))
        b_h = sorted(h[index[f"B{i + 1}"]] for i in range(27))
        c_h = sorted(h[index[f"C{i + 1}"]] for i in range(41))
        assert sum(a_h) == 107 and a_h[0] == 3
        assert sum(b_h) == 107 and b_h[0] == 3
        assert sum(c_h) == 80 and c_h[0] == 1 and c_h[1] == 1
        group, deviation = seq_core_blocking(e, committee)
        assert len(group) == 4 and deviation.size == 4
