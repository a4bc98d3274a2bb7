from __future__ import annotations

from fractions import Fraction

import pytest

from matchvote import (
    Committee,
    ElectionError,
    GuardExceeded,
    Matching,
    MatchingElection,
    approvers,
    check_core,
    check_ejr,
    check_pjr,
    enumerate_candidates,
    happiness,
    ls_pav,
    rule_x,
    seq_pav,
    seq_phragmen,
    verify_blocking,
)
from matchvote.fixtures import (
    phragmen_alternating_sequence,
    prop_seq_core,
    rulex_proof_run,
    seq_core_blocking,
    seq_core_proof_committee,
)
from conftest import random_corpus
from oracles import brute_ejr_violation, brute_pjr_violation

F = Fraction


class TestCheckEjr:
    def test_triangle_alternating_committee_violates(self, triangle_election):
        committee = Committee.from_sequence(
            phragmen_alternating_sequence(triangle_election)
        )
        verdict = check_ejr(triangle_election, committee)
        assert not verdict.satisfied
        assert verdict.ell == 4
        assert verdict.group == (0, 2)
        assert verdict.threshold == 2

    def test_fig1_balanced_committee_satisfies(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        verdict = check_ejr(
            fig1_election, Committee.from_counts({c1: 1, c2: 1, c3: 1})
        )
        assert verdict.satisfied

    def test_footnote4_even_split_violates(self, footnote4_election, footnote4_cands):
        c, cp = footnote4_cands
        verdict = check_ejr(footnote4_election, Committee.from_counts({c: 2, cp: 2}))
        assert not verdict.satisfied
        assert verdict.ell == 3
        assert verdict.group == (0, 2, 3)

    def test_size_mismatch_rejected(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        with pytest.raises(ElectionError, match="size"):
            check_ejr(fig1_election, Committee.from_counts({c1: 1}))

    def test_agrees_with_brute_force(self):
        for election in random_corpus(61, 40):
            committee = seq_phragmen(election).committee
            cands = enumerate_candidates(election, max_edges=32)
            h = happiness(election, committee)
            brute = brute_ejr_violation(election, cands, h)
            verdict = check_ejr(election, committee)
            assert verdict.satisfied == (brute is None)

    def test_witness_self_certifies(self):
        for election in random_corpus(62, 30):
            run = rule_x(election, completion="fill")
            verdict = check_ejr(election, run.committee)
            if verdict.satisfied:
                continue
            h = happiness(election, run.committee)
            group = verdict.group or ()
            assert F(len(group)) >= verdict.threshold
            supporters = approvers(election, verdict.witness_candidate)
            assert all(a in supporters and h[a] < verdict.ell for a in group)


class TestCheckPjr:
    def test_footnote4_even_split_violates(self, footnote4_election, footnote4_cands):
        c, cp = footnote4_cands
        verdict = check_pjr(footnote4_election, Committee.from_counts({c: 2, cp: 2}))
        assert not verdict.satisfied
        assert verdict.ell == 3
        assert verdict.group == (0, 2, 3)

    def test_footnote4_majority_split_satisfies(self, footnote4_election, footnote4_cands):
        c, cp = footnote4_cands
        verdict = check_pjr(footnote4_election, Committee.from_counts({c: 3, cp: 1}))
        assert verdict.satisfied

    def test_fig1_phragmen_cowinner_satisfies(self, fig1_election, fig1_cands):
        c1, c2, _ = fig1_cands
        verdict = check_pjr(fig1_election, Committee.from_counts({c1: 2, c2: 1}))
        assert verdict.satisfied

    def test_universally_approved_committee_satisfies(self):
        e = MatchingElection(("a", "b"), (frozenset({1}), frozenset({0})), 4)
        committee = Committee.from_counts({Matching.of([(0, 1)]): 4})
        assert check_pjr(e, committee).satisfied

    def test_guard_refusal(self, footnote4_election, footnote4_cands):
        c, cp = footnote4_cands
        committee = Committee.from_counts({c: 2, cp: 2})
        with pytest.raises(GuardExceeded, match="coNP"):
            check_pjr(footnote4_election, committee, max_support_scan=1)

    def test_agrees_with_brute_force(self):
        for election in random_corpus(63, 30):
            committee = seq_pav(election).committee
            cands = enumerate_candidates(election, max_edges=32)
            brute = brute_pjr_violation(election, cands, committee)
            verdict = check_pjr(election, committee)
            assert verdict.satisfied == (brute is None)

    def test_witness_self_certifies(self):
        # A violation witness must reach the cohesion threshold, share the
        # witness candidate, and hold fewer than ell approved committee
        # copies -- re-checked here with direct arithmetic only.  Committees
        # of k copies of one candidate are routinely disproportional.
        found = 0
        for election in random_corpus(69, 40):
            first = enumerate_candidates(election, max_edges=32)[0]
            committee = Committee.from_counts({first: election.k})
            verdict = check_pjr(election, committee)
            if verdict.satisfied:
                continue
            found += 1
            group = verdict.group or ()
            assert F(len(group)) >= verdict.threshold
            supporters = approvers(election, verdict.witness_candidate)
            assert all(a in supporters for a in group)
            counts = committee.multiset()
            covered = sum(
                count
                for m, count in counts.items()
                if any(a in approvers(election, m) for a in group)
            )
            assert covered < verdict.ell
        # The corpus must actually exercise the violating branch.
        assert found >= 1


class TestCheckCore:
    def test_fig1_all_three_committees_stable(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        for counts in ({c1: 1, c2: 1, c3: 1}, {c1: 2, c2: 1}, {c1: 1, c2: 2}):
            verdict = check_core(fig1_election, Committee.from_counts(counts))
            assert verdict.satisfied

    def test_k_one_needs_unanimous_improvement(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        e = fig1_election.with_k(1)
        verdict = check_core(e, Committee.from_counts({c1: 1}))
        assert verdict.satisfied

    def test_violation_witness_self_certifies(self, footnote4_election, footnote4_cands):
        c, cp = footnote4_cands
        committee = Committee.from_counts({cp: 4})
        verdict = check_core(footnote4_election, committee)
        assert not verdict.satisfied
        assert verdict.deviation is not None
        assert verify_blocking(
            footnote4_election, committee, verdict.group, verdict.deviation
        )

    def test_first_violation_is_lexicographic(self, footnote4_election, footnote4_cands):
        c, cp = footnote4_cands
        committee = Committee.from_counts({cp: 4})
        verdict = check_core(footnote4_election, committee)
        assert verdict.ell == 1
        assert verdict.deviation.multiset() == {c: 1}

    def test_guard_refusal_large_committee(self, rulex_election):
        sequence, _, _, _ = rulex_proof_run(rulex_election)
        committee = Committee.from_sequence(sequence).without_trace()
        with pytest.raises(GuardExceeded, match="coNP"):
            check_core(rulex_election, committee)


class TestVerifyBlocking:
    def test_rulex_proof_deviation(self, rulex_election):
        sequence, _, group, deviation = rulex_proof_run(rulex_election)
        committee = Committee.from_sequence(sequence)
        assert verify_blocking(rulex_election, committee, group, deviation)

    def test_empty_group_never_blocks(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        committee = Committee.from_counts({c1: 1, c2: 1, c3: 1})
        assert not verify_blocking(
            fig1_election, committee, (), Committee.from_counts({c2: 1})
        )

    def test_no_strict_improvement_fails(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        committee = Committee.from_counts({c1: 1, c2: 1, c3: 1})
        assert not verify_blocking(
            fig1_election, committee, (4, 5), Committee.from_counts({c2: 1})
        )

    def test_non_candidate_deviation_fails(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        committee = Committee.from_counts({c1: 1, c2: 1, c3: 1})
        stray = Matching.of([(0, 1)])
        assert not verify_blocking(
            fig1_election, committee, (0, 1), Committee.from_counts({stray: 1})
        )

    def test_oversized_deviation_rejected(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        committee = Committee.from_counts({c1: 1, c2: 1, c3: 1})
        with pytest.raises(ElectionError, match="exceeds k"):
            verify_blocking(
                fig1_election, committee, (0,), Committee.from_counts({c1: 4})
            )

    def test_negative_alias_rejected(self):
        # group[0] - n indexes the same agent as group[0], so this group
        # names three distinct agents, one short of the threshold of 4.
        election = prop_seq_core()
        committee = seq_core_proof_committee(election)
        group, deviation = seq_core_blocking(election, committee)
        aliased = group[:-1] + (group[0] - election.n,)
        with pytest.raises(ElectionError, match="outside"):
            verify_blocking(election, committee, aliased, deviation)

    def test_index_past_the_last_agent_rejected(self):
        election = prop_seq_core()
        committee = seq_core_proof_committee(election)
        group, deviation = seq_core_blocking(election, committee)
        with pytest.raises(ElectionError, match="outside"):
            verify_blocking(election, committee, group[:-1] + (election.n,), deviation)


class TestImplicationChain:
    def test_core_implies_ejr_implies_pjr(self):
        for election in random_corpus(64, 40):
            committee = seq_pav(election).committee
            core = check_core(election, committee, max_edges=32).satisfied
            ejr = check_ejr(election, committee).satisfied
            pjr = check_pjr(election, committee).satisfied
            if core:
                assert ejr
            if ejr:
                assert pjr


class TestRuleGuarantees:
    def test_rule_x_full_committees_provide_ejr(self):
        for election in random_corpus(65, 40):
            run = rule_x(election)
            if run.purchased == election.k:
                assert check_ejr(election, run.committee).satisfied

    def test_seq_phragmen_provides_pjr(self):
        for election in random_corpus(66, 40):
            committee = seq_phragmen(election).committee
            assert check_pjr(election, committee).satisfied

    def test_ls_pav_provides_core(self):
        for election in random_corpus(67, 25):
            committee = ls_pav(election).committee
            assert check_core(election, committee, max_edges=32).satisfied

    def test_seq_pav_provides_ejr_on_symmetric(self):
        for election in random_corpus(68, 40, classes=("symmetric",)):
            committee = seq_pav(election).committee
            assert check_ejr(election, committee).satisfied
