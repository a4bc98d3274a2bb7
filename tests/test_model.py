from __future__ import annotations

import json
import os
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matchvote import (
    Committee,
    ElectionError,
    Matching,
    MatchingElection,
    WeightSequence,
    approvers,
    classify,
    committee_from_dict,
    committee_to_dict,
    dump_election,
    happiness,
    load_election,
    thiele_score,
)
from matchvote.model import format_rational, parse_rational

FIG1_JSON = json.dumps(
    {
        "agents": ["a1", "a2", "a3", "a4", "a5", "a6"],
        "approvals": {
            "a1": ["a2"],
            "a2": ["a3"],
            "a3": ["a4"],
            "a4": ["a3"],
            "a5": ["a3"],
            "a6": ["a4"],
        },
        "k": 3,
    }
)


class TestLoadElection:
    def test_fig1_round_trip(self, fig1_election):
        loaded = load_election(FIG1_JSON)
        assert loaded == fig1_election
        assert loaded.n == 6
        assert load_election(dump_election(loaded)) == loaded

    def test_self_approval_rejected(self):
        text = json.dumps({"agents": ["a1", "a2"], "approvals": {"a1": ["a1"]}, "k": 1})
        with pytest.raises(ElectionError, match="approves itself"):
            load_election(text)

    def test_unknown_agent_rejected(self):
        text = json.dumps({"agents": ["a1", "a2"], "approvals": {"a1": ["zz"]}, "k": 1})
        with pytest.raises(ElectionError, match="unknown agent"):
            load_election(text)

    def test_all_empty_profile_rejected(self):
        text = json.dumps({"agents": ["a1", "a2"], "approvals": {}, "k": 1})
        with pytest.raises(ElectionError, match="at least one approval"):
            load_election(text)

    def test_nonpositive_k_rejected(self):
        text = json.dumps({"agents": ["a1", "a2"], "approvals": {"a1": ["a2"]}, "k": 0})
        with pytest.raises(ElectionError, match="k must be positive"):
            load_election(text)

    def test_malformed_json_rejected(self):
        with pytest.raises(ElectionError, match="invalid JSON"):
            load_election("{nope")

    @pytest.mark.parametrize(
        "text",
        ["[" * 200000, FIG1_JSON.replace('"k": 3', '"k": 1' + "0" * 5000)],
        ids=["nested-past-the-recursion-limit", "integer-past-the-digit-limit"],
    )
    def test_json_that_json_loads_cannot_hold_rejected(self, text):
        with pytest.raises(ElectionError, match="invalid JSON"):
            load_election(text)

    def test_duplicate_names_rejected(self):
        text = json.dumps({"agents": ["a", "a"], "approvals": {}, "k": 1})
        with pytest.raises(ElectionError):
            load_election(text)


class TestMatching:
    def test_canonical_form(self):
        m = Matching.of([(3, 2), (0, 1)])
        assert m.pairs == ((0, 1), (2, 3))

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ElectionError, match="more than one pair"):
            Matching.of([(0, 1), (1, 2)])

    def test_self_pair_rejected(self):
        with pytest.raises(ElectionError, match="itself"):
            Matching.of([(2, 2)])

    def test_ordering_is_lexicographic_with_prefixes_first(self):
        empty = Matching(())
        a = Matching.of([(0, 1)])
        b = Matching.of([(0, 1), (2, 3)])
        c = Matching.of([(0, 2)])
        assert empty < a < b < c


class TestAccessors:
    def test_partner_lookup(self):
        m = Matching.of([(0, 1), (2, 5)])
        assert m.partner(5) == 2 and m.partner(1) == 0
        assert m.partner(3) is None

    def test_approving_endpoints(self, fig1_election):
        graph = fig1_election.approval_graph
        assert graph.approving_endpoints(2, 3) == (2, 3)  # mutual
        assert graph.approving_endpoints(0, 1) == (0,)    # one-sided
        assert graph.approving_endpoints(0, 5) == ()      # no approvals

    def test_with_k_validates(self, fig1_election):
        assert fig1_election.with_k(5).k == 5
        with pytest.raises(ElectionError, match="positive"):
            fig1_election.with_k(0)

    def test_committee_iteration_expands_multiplicity(self, fig1_cands):
        c1, c2, _ = fig1_cands
        committee = Committee.from_counts({c1: 2, c2: 1})
        assert list(committee) == [c1, c1, c2]


class TestClassify:
    def test_fig1_is_bipartite_not_symmetric(self, fig1_election):
        cls = classify(fig1_election)
        # The undirected view is a tree, so a valid 2-coloring exists even
        # though four approvals are one-sided.
        assert not cls.symmetric
        assert cls.bipartite
        side1, side2 = cls.bipartition
        assert set(side1) | set(side2) == set(range(6))
        for a in range(6):
            for b in fig1_election.approvals[a]:
                assert (a in side1) != (b in side1)
        # The witness puts the smallest agent of each component, an
        # isolated one included, on the first side.
        assert cls.bipartition == ((0, 2, 5), (1, 3, 4))
        two_components = MatchingElection(
            tuple("abcdefg"),
            tuple(frozenset(s) for s in ({4}, (), (), {4}, (), {2}, {3})),
            1,
        )
        assert classify(two_components).bipartition == ((0, 1, 2, 3), (4, 5, 6))

    def test_triangle_symmetric_not_bipartite(self, triangle_election):
        cls = classify(triangle_election)
        assert cls.symmetric and not cls.bipartite
        assert cls.tag == "symmetric"

    def test_mutual_pair_both(self):
        e = MatchingElection(("a", "b"), (frozenset({1}), frozenset({0})), 1)
        cls = classify(e)
        assert cls.symmetric and cls.bipartite
        assert cls.tag == "symmetric bipartite"

    def test_directed_triangle_general(self):
        e = MatchingElection(
            ("a", "b", "c"),
            (frozenset({1}), frozenset({2}), frozenset({0})),
            2,
        )
        assert classify(e).tag == "general"

    @settings(max_examples=40, deadline=None)
    @given(perm=st.permutations(range(6)))
    def test_relabeling_invariance(self, fig1_election, perm):
        e = fig1_election
        relabeled = [set() for _ in range(6)]
        for a in range(6):
            for b in e.approvals[a]:
                relabeled[perm[a]].add(perm[b])
        permuted = MatchingElection(
            tuple(f"x{i}" for i in range(6)),
            tuple(frozenset(s) for s in relabeled),
            e.k,
        )
        assert classify(permuted).symmetric == classify(e).symmetric
        assert classify(permuted).bipartite == classify(e).bipartite


class TestApprovers:
    def test_fig1_c1(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        assert approvers(fig1_election, c1) == frozenset({0, 2, 3})

    def test_fig1_c3(self, fig1_election, fig1_cands):
        _, _, c3 = fig1_cands
        assert approvers(fig1_election, c3) == frozenset({1, 5})

    def test_empty_matching(self, fig1_election):
        assert approvers(fig1_election, Matching(())) == frozenset()

    def test_symmetric_approvers_are_matched_agents(self, triangle_election):
        m = Matching.of([(0, 1)])
        assert approvers(triangle_election, m) == frozenset({0, 1})


class TestThieleScore:
    def test_fig1_pav_score_seven(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        committee = Committee.from_counts({c1: 1, c2: 1, c3: 1})
        pav = WeightSequence.pav()
        assert thiele_score(fig1_election, pav, committee) == 7
        assert happiness(fig1_election, committee) == (2, 1, 1, 1, 1, 2)

    def test_fig1_pav_score_repeat(self, fig1_election, fig1_cands):
        c1, c2, _ = fig1_cands
        committee = Committee.from_counts({c1: 2, c2: 1})
        assert thiele_score(fig1_election, WeightSequence.pav(), committee) == Fraction(41, 6)

    def test_monotone_under_adding_members(self, fig1_election, fig1_cands):
        pav = WeightSequence.pav()
        c1, _, _ = fig1_cands
        base = Committee.from_counts({c1: 1})
        base_score = thiele_score(fig1_election, pav, base)
        for extra in fig1_cands:
            counts = {c1: 1}
            counts[extra] = counts.get(extra, 0) + 1
            bigger = Committee.from_counts(counts)
            assert thiele_score(fig1_election, pav, bigger) >= base_score

    def test_happiness_multiplicity_identity(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        committee = Committee.from_counts({c1: 2, c3: 1})
        h = happiness(fig1_election, committee)
        for agent in range(6):
            expected = sum(
                count
                for m, count in committee.entries
                if agent in approvers(fig1_election, m)
            )
            assert h[agent] == expected


class TestWeightSequence:
    def test_pav_values(self):
        pav = WeightSequence.pav()
        assert pav[1] == 1 and pav[4] == Fraction(1, 4)
        assert pav.prefix(3) == Fraction(11, 6)
        assert pav.strictly_decreasing

    def test_cc_and_av(self):
        cc = WeightSequence.cc()
        assert cc[1] == 1 and cc[2] == 0 and cc.prefix(5) == 1
        av = WeightSequence.av()
        assert av.prefix(4) == 4

    def test_must_start_at_one(self):
        with pytest.raises(ElectionError, match="w_1 = 1"):
            WeightSequence.from_values([Fraction(1, 2)])

    def test_must_not_increase(self):
        with pytest.raises(ElectionError, match="increases"):
            ws = WeightSequence.from_values([1, Fraction(1, 2), Fraction(3, 4)])
            ws[3]

    def test_custom_list_is_validated_when_built(self):
        # Entries past the first probes are checked too, not only w_1..w_k.
        with pytest.raises(ElectionError, match="increases at index 3"):
            WeightSequence.from_values([1, "1/2", 2])
        with pytest.raises(ElectionError, match="negative w_3"):
            WeightSequence.from_values([1, 0, -1])

    def test_custom_list_refuses_floats_and_bools(self):
        for values in ([1, 0.5], [True, 0], [1, False]):
            with pytest.raises(ElectionError, match="not a rational"):
                WeightSequence.from_values(values)

    def test_generator_refuses_floats(self):
        with pytest.raises(ElectionError, match="not a rational"):
            WeightSequence(lambda i: 1.0)
        halving = WeightSequence(lambda i: 1 if i == 1 else 0.5)
        with pytest.raises(ElectionError, match="not a rational"):
            halving[2]

    def test_custom_exhaustion_error(self):
        ws = WeightSequence.from_values([1, Fraction(1, 2)])
        assert ws[2] == Fraction(1, 2)
        with pytest.raises(ElectionError, match="w_3"):
            ws[3]

    def test_cached_reads_do_not_wait_for_an_extension(self):
        # The generator stalls inside an extension (which holds the lock)
        # until a reader has read every cached entry; reads that took the
        # lock would stall with it.
        extending, read = threading.Event(), threading.Event()

        def stalling(i):
            if i == 20:
                extending.set()
                read.wait(timeout=10)
            return Fraction(1, i)

        ws = WeightSequence(stalling, strictly_decreasing=True)
        ws.prefix(10)
        cached = []

        def reader():
            cached.extend([ws[i] for i in range(1, 11)] + [ws.prefix(h) for h in range(11)])

        extender = threading.Thread(target=ws.prefix, args=(30,))
        extender.start()
        try:
            assert extending.wait(timeout=10)
            reading = threading.Thread(target=reader)
            reading.start()
            reading.join(timeout=5)
            assert not reading.is_alive(), "a cached read waited for the extension"
        finally:
            read.set()
            extender.join(timeout=60)
        assert not extender.is_alive()
        pav = WeightSequence.pav()
        assert cached == [pav[i] for i in range(1, 11)] + [pav.prefix(h) for h in range(11)]
        assert ws.prefix(30) == pav.prefix(30)

    def test_reads_while_another_thread_extends(self):
        # More threads than cores walk each fresh sequence upwards at once,
        # switching every microsecond, so most reads land on the entry
        # another thread is appending: a read of a value or a prefix sum
        # not yet fully appended returns a wrong value or raises IndexError.
        pav = [Fraction(1, i) for i in range(1, 302)]
        sums = [sum(pav[:h], Fraction(0)) for h in range(302)]
        wrong, finished = [], []

        def walk(ws):
            for i in range(1, 301):
                if ws[i] != pav[i - 1] or ws.prefix(i) != sums[i]:
                    wrong.append(i)
            finished.append(i)

        walkers = (os.cpu_count() or 1) + 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ws = WeightSequence.pav()
                threads = [threading.Thread(target=walk, args=(ws,)) for _ in range(walkers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and len(finished) == 20 * walkers

    def test_refusals_hold_under_concurrent_reads(self):
        # w_50 increases: every thread that reaches it is refused, and the
        # cached entries before it stay readable.
        ws = WeightSequence(lambda i: Fraction(1, i) if i != 50 else Fraction(1))
        refused = []

        def read():
            try:
                ws.prefix(60)
            except ElectionError as exc:
                refused.append(str(exc))

        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(refused) == 4 and all("increases at index 50" in r for r in refused)
        assert ws[49] == Fraction(1, 49)
        with pytest.raises(ElectionError, match="increases at index 50"):
            ws[50]


class TestCommittee:
    def test_trace_must_collapse(self, fig1_cands):
        c1, c2, _ = fig1_cands
        with pytest.raises(ElectionError, match="trace"):
            Committee(((c1, 1), (c2, 1)), trace=(c1, c1))

    def test_from_sequence_keeps_order(self, fig1_cands):
        c1, c2, _ = fig1_cands
        committee = Committee.from_sequence([c2, c1, c2])
        assert committee.trace == (c2, c1, c2)
        assert committee.size == 3
        assert committee.count(c2) == 2

    def test_committee_json_round_trip(self, fig1_election, fig1_cands):
        c1, _, c3 = fig1_cands
        committee = Committee.from_counts({c1: 2, c3: 1})
        data = committee_to_dict(fig1_election, committee)
        assert committee_from_dict(fig1_election, data) == committee

    def test_committee_json_rejects_bad_count(self, fig1_election, fig1_cands):
        data = {"pairs": [["a1", "a2"]], "count": 0}
        with pytest.raises(ElectionError, match="count"):
            committee_from_dict(fig1_election, {"matchings": [data]})

    @pytest.mark.parametrize("pair", [[["a1"], "a2"], ["a1", {"a": 1}], [None, "a2"]])
    def test_committee_json_rejects_non_string_names(self, fig1_election, pair):
        with pytest.raises(ElectionError, match="by string"):
            committee_from_dict(fig1_election, {"matchings": [{"pairs": [pair]}]})


class TestRationalFormat:
    @pytest.mark.parametrize(
        "value,text",
        [(Fraction(7), "7"), (Fraction(1, 3), "1/3"), (Fraction(-5, 12), "-5/12")],
    )
    def test_round_trip(self, value, text):
        assert format_rational(value) == text
        assert parse_rational(text) == value

    def test_floats_rejected(self):
        with pytest.raises(ElectionError):
            parse_rational(0.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(
            min_value=-1000, max_value=1000, max_denominator=10**6
        )
    )
    def test_any_rational_survives_serialization(self, value):
        assert parse_rational(format_rational(value)) == value


class TestCanonicalization:
    @settings(max_examples=100, deadline=None)
    @given(st.permutations(range(8)), st.integers(0, 4), st.randoms(use_true_random=False))
    def test_matching_canonical_form_is_order_free(self, agents, npairs, rng):
        pairs = [(agents[2 * i], agents[2 * i + 1]) for i in range(npairs)]
        reference = Matching.of(pairs)
        shuffled = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
        rng.shuffle(shuffled)
        assert Matching.of(shuffled) == reference
        assert list(reference.pairs) == sorted(reference.pairs)
