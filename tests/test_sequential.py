from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

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
    approvers,
    check_core,
    enumerate_candidates,
    explore_cowinners,
    generate,
    is_candidate,
    ls_pav,
    oracle_optimal_committee,
    parse_rational,
    RunCertificate,
    rule_x,
    seq_pav,
    seq_phragmen,
    seq_thiele,
    thiele_score,
    verify_run,
)
from matchvote.fixtures import phragmen_alternating_sequence, rulex_proof_run
from matchvote.sequential import _RULE_X, _rule_step
from conftest import random_corpus
from oracles import (
    brute_candidates, explore_twin, phragmen_round_optimum, replay_run, rulex_round_optimum,
)

F = Fraction
ZERO = F(0)


@pytest.fixture(scope="module")
def pair_election():
    return MatchingElection(("a", "b"), (frozenset({1}), frozenset({0})), 2)


class TestSeqThiele:
    def test_fig1_pav_selects_all_three(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        run = seq_pav(fig1_election)
        assert run.committee.trace == (c1, c2, c3)
        assert [r.marginal for r in run.rounds] == [3, F(5, 2), F(3, 2)]

    def test_single_round_is_approval_winner(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        run = seq_thiele(fig1_election, WeightSequence.pav(), 1)
        assert run.committee.trace == (c1,)

    def test_coverage_weights_ignore_satisfied_agents(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        run = seq_thiele(fig1_election, WeightSequence.cc())
        assert run.committee.trace == (c1, c2, c3)
        # Round 2 is a tie between c2 and c3 at marginal weight 2; the
        # canonical order prefers c2.
        assert run.rounds[1].marginal == 2

    def test_outputs_are_candidates(self):
        for election in random_corpus(11, 15):
            run = seq_pav(election)
            for m in run.committee.support:
                assert is_candidate(election, m)


class TestSeqPhragmen:
    def test_fig1_canonical_run(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        run = seq_phragmen(fig1_election)
        assert run.rounds[0].t_star == F(1, 3)
        assert run.committee.trace == (c1, c2, c1)
        assert run.committee.multiset() == {c1: 2, c2: 1}
        assert [r.t_star for r in run.rounds] == [F(1, 3), F(1, 9), F(7, 27)]

    def test_money_conservation(self):
        for election in random_corpus(12, 20):
            run = seq_phragmen(election)
            spent = election.n * run.elapsed - sum(run.budgets, ZERO)
            assert spent == len(run.rounds)

    def test_single_pair_buys_at_half(self, pair_election):
        run = seq_phragmen(pair_election)
        assert [r.t_star for r in run.rounds] == [F(1, 2), F(1, 2)]
        assert run.committee.multiset() == {Matching.of([(0, 1)]): 2}

    def test_round_optimum_matches_enumeration(self):
        for election in random_corpus(13, 25):
            candidates = enumerate_candidates(election, max_edges=32)
            run = seq_phragmen(election)
            budgets = [ZERO] * election.n
            for rnd in run.rounds:
                expected = phragmen_round_optimum(election, candidates, budgets)
                assert rnd.t_star == expected
                budgets = [b + rnd.t_star for b in budgets]
                for a in approvers(election, rnd.chosen):
                    budgets[a] = ZERO


class TestRuleX:
    def test_fig1_stops_short(self, fig1_election, fig1_cands):
        c1, c2, _ = fig1_cands
        run = rule_x(fig1_election)
        assert run.committee.trace == (c1, c2)
        assert run.purchased == 2 and run.stopped_short
        assert [r.q_star for r in run.rounds] == [F(1, 3), F(5, 12)]

    def test_fill_completion(self, fig1_election, fig1_cands):
        c1, c2, _ = fig1_cands
        run = rule_x(fig1_election, completion="fill")
        assert run.committee.size == 3
        assert run.purchased == 2
        assert run.committee.trace == (c1, c2, c1)

    def test_payments_collect_one_dollar(self):
        for election in random_corpus(14, 20):
            run = rule_x(election)
            for rnd in run.rounds:
                assert sum(rnd.payments, ZERO) == 1
                assert all(b >= 0 for b in rnd.budgets_after)

    def test_probes_below_price_are_unaffordable(self):
        for election in random_corpus(15, 15):
            run = rule_x(election)
            for rnd in run.rounds:
                for q, value in rnd.probes:
                    if q < rnd.q_star:
                        assert value < 1

    def test_single_pair_single_seat(self):
        e = MatchingElection(("a", "b"), (frozenset({1}), frozenset({0})), 1)
        run = rule_x(e)
        assert run.rounds[0].q_star == F(1, 2)
        assert run.committee.multiset() == {Matching.of([(0, 1)]): 1}

    def test_unknown_completion_rejected(self, fig1_election):
        with pytest.raises(ElectionError, match="completion"):
            rule_x(fig1_election, completion="pad")

    def test_nonpositive_k_rejected(self, fig1_election):
        with pytest.raises(ElectionError, match="positive"):
            rule_x(fig1_election, 0)
        with pytest.raises(ElectionError, match="positive"):
            seq_thiele(fig1_election, WeightSequence.pav(), -1)

    def test_round_optimum_matches_enumeration(self):
        for election in random_corpus(16, 25):
            candidates = enumerate_candidates(election, max_edges=32)
            run = rule_x(election)
            budgets = [F(election.k, election.n)] * election.n
            for rnd in run.rounds:
                expected = rulex_round_optimum(election, candidates, budgets)
                assert rnd.q_star == expected
                for a in approvers(election, rnd.chosen):
                    budgets[a] -= min(budgets[a], rnd.q_star)
            if run.purchased < election.k:
                assert rulex_round_optimum(election, candidates, budgets) is None


class TestLsPav:
    def test_fig1_needs_no_swaps(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        run = ls_pav(fig1_election)
        assert run.committee.multiset() == {c1: 1, c2: 1, c3: 1}
        assert run.score == 7 and not run.swaps

    def test_k_one_degenerates_to_approval_winner(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        run = ls_pav(fig1_election, 1)
        assert run.committee.multiset() == {c1: 1}

    def test_recovers_from_bad_start(self, fig1_election, fig1_cands):
        c1, _, c3 = fig1_cands
        bad = Committee.from_counts({c3: 3})
        run = ls_pav(fig1_election, initial=bad)
        assert run.swaps
        pav = WeightSequence.pav()
        _, optimum = oracle_optimal_committee(fig1_election, pav)
        k = fig1_election.k
        eps = F(1, (1 + 2 * (k - 1)) * (k - 1) * k)
        slack = eps * (40 * fig1_election.n * k**4)
        assert run.score >= optimum - slack
        assert run.score == thiele_score(fig1_election, pav, run.committee)

    def test_outputs_are_core_stable(self):
        for election in random_corpus(18, 15):
            run = ls_pav(election)
            assert check_core(election, run.committee, max_edges=32).satisfied

    def test_initial_size_mismatch_rejected(self, fig1_election, fig1_cands):
        c1, _, _ = fig1_cands
        with pytest.raises(ElectionError, match="size"):
            ls_pav(fig1_election, initial=Committee.from_counts({c1: 2}))

    def test_non_candidate_start_rejected(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        i = fig1_election.index_of
        # (a5, a6) is approved by neither endpoint, so the first member is
        # not minimal.
        padded = Matching.of([*c1.pairs, (i["a5"], i["a6"])])
        with pytest.raises(ElectionError, match="not a candidate"):
            ls_pav(fig1_election, initial=Committee.from_counts({padded: 1, c2: 1, c3: 1}))
        # k = 1 plays the approval winner, but still checks its start.
        with pytest.raises(ElectionError, match="not a candidate"):
            ls_pav(fig1_election, 1, initial=Committee.from_counts({padded: 1}))
        with pytest.raises(ElectionError, match="size"):
            ls_pav(fig1_election, 1, initial=Committee.from_counts({c1: 2}))

    def test_canonical_tier_only_for_accepted_swaps(self, monkeypatch, fig1_election, fig1_cands):
        import matchvote.sequential

        winner = matchvote.sequential.weighted_approval_winner
        calls = []

        def counted(election, weights, certificate=None):
            calls.append(weights)
            return winner(election, weights, certificate)

        monkeypatch.setattr(matchvote.sequential, "weighted_approval_winner", counted)
        run = ls_pav(fig1_election, initial=Committee.from_counts({fig1_cands[2]: 3}))
        assert run.swaps and len(calls) == len(run.swaps)

    def test_swap_refuses_a_winner_below_the_optimum(self, monkeypatch, fig1_election, fig1_cands):
        import matchvote.sequential

        c3 = fig1_cands[2]
        monkeypatch.setattr(
            matchvote.sequential,
            "weighted_approval_winner",
            lambda election, weights, certificate=None: c3,
        )
        with pytest.raises(EngineError, match="canonical winner"):
            ls_pav(fig1_election, initial=Committee.from_counts({c3: 3}))


class TestVerifyRun:
    def test_fig1_seq_pav_valid(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        cert = verify_run(fig1_election, "seq-pav", [c1, c2, c3])
        assert cert.valid
        assert [r.optimum for r in cert.rounds] == [3, F(5, 2), F(3, 2)]

    def test_fig1_wrong_first_round(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        cert = verify_run(fig1_election, "seq-pav", [c3, c1, c2])
        assert not cert.valid
        assert cert.first_invalid == 1
        assert cert.rounds[0].optimum == 3 and cert.rounds[0].achieved == 2

    def test_fig1_phragmen_both_tied_runs_valid(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        assert verify_run(fig1_election, "seq-phragmen", [c1, c2, c1]).valid
        assert verify_run(fig1_election, "seq-phragmen", [c2, c1, c3]).valid
        # ... but not in a different order: c1 cannot be bought twice in a row.
        cert = verify_run(fig1_election, "seq-phragmen", [c1, c1, c2])
        assert not cert.valid and cert.first_invalid == 2

    def test_triangle_alternating_sequence(self, triangle_election):
        sequence = phragmen_alternating_sequence(triangle_election)
        cert = verify_run(triangle_election, "seq-phragmen", sequence)
        assert cert.valid
        assert cert.rounds[0].optimum == F(1, 2)

    def test_rulex_proof_sequence(self, rulex_election):
        sequence, prices, _, _ = rulex_proof_run(rulex_election)
        cert = verify_run(rulex_election, "rule-x", sequence)
        assert cert.valid
        assert [r.optimum for r in cert.rounds] == prices

    def test_rulex_overlong_sequence_invalid(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        cert = verify_run(fig1_election, "rule-x", [c1, c2, c3])
        assert not cert.valid and cert.first_invalid == 3
        assert "stopped" in cert.message

    def test_non_candidate_rejected(self, fig1_election):
        stray = Matching.of([(0, 1)])
        cert = verify_run(fig1_election, "seq-pav", [stray])
        assert not cert.valid and "non-candidate" in cert.message

    def test_unknown_rule_tag(self, fig1_election):
        with pytest.raises(ElectionError, match="unknown rule tag"):
            verify_run(fig1_election, "borda", [])

    def test_seq_thiele_needs_weights(self, fig1_election):
        with pytest.raises(ElectionError, match="weight sequence"):
            verify_run(fig1_election, "seq-thiele", [])

    def test_rule_runs_self_verify(self):
        for election in random_corpus(19, 15):
            assert verify_run(
                election, "seq-pav", seq_pav(election).committee.trace
            ).valid
            assert verify_run(
                election, "seq-phragmen", seq_phragmen(election).committee.trace
            ).valid
            run = rule_x(election)
            assert verify_run(
                election, "rule-x", [r.chosen for r in run.rounds]
            ).valid


CC = WeightSequence.cc()

TWIN_RULES = (
    ("seq-pav", None, seq_pav),
    ("seq-thiele", CC, lambda election: seq_thiele(election, CC)),
    ("seq-phragmen", None, seq_phragmen),
    ("rule-x", None, rule_x),
)
TWIN_RULES_BY_TAG = {tag: rule for tag, _, rule in TWIN_RULES}


def corrupted_runs(election, own, candidates, rng):
    """The run ``own`` and sequences made from it: other candidates swapped
    in, a candidate minus one pair (minimal but dominated), a candidate
    plus one unapproved pair (not minimal), the empty matching, more than k
    rounds, and k random candidates."""

    def swapped(member):
        out = list(own) or [candidates[0]]
        out[rng.randrange(len(out))] = member
        return out

    yield list(own)
    for _ in range(3):
        yield swapped(rng.choice(candidates))
    wide = [c for c in candidates if len(c.pairs) >= 2]
    if wide:
        c = rng.choice(wide)
        dropped = rng.choice(c.pairs)
        yield swapped(Matching(tuple(p for p in c.pairs if p != dropped)))
    for c in candidates:
        free = sorted(set(range(election.n)) - c.agents)
        unapproved = [
            (u, v)
            for u, v in combinations(free, 2)
            if v not in election.approvals[u] and u not in election.approvals[v]
        ]
        if unapproved:
            yield swapped(Matching(tuple(sorted(c.pairs + (rng.choice(unapproved),)))))
            break
    yield swapped(Matching(()))
    yield list(own) + [rng.choice(candidates) for _ in range(election.k + 1 - len(own))]
    yield [rng.choice(candidates) for _ in range(election.k)]


def _outcome(certificate: RunCertificate) -> str:
    if certificate.valid:
        return "valid"
    for kind in ("non-candidate", "stopped", "rounds but k"):
        if kind in certificate.message:
            return kind
    return "mismatch"


class TestVerifyRunTwin:
    """``verify_run`` checks each round at its candidate's own value;
    ``replay_run`` tests every candidacy up front and searches every round
    optimum.  Whole certificates must agree, messages included."""

    def test_agrees_with_the_full_replay(self):
        rng = random.Random(83)
        seen = set()
        for i in range(48):
            params = GeneratorParams(
                ("general", "bipartite")[i % 2],
                rng.randint(5, 8),
                rng.choice([0.3, 0.5, 0.7]),
                rng.randint(2, 4),
                8300 + i,
            )
            election = generate(params)
            candidates = brute_candidates(election)
            for tag, weights, rule in TWIN_RULES:
                own = [r.chosen for r in rule(election).rounds]
                for sequence in corrupted_runs(election, own, candidates, rng):
                    certificate = verify_run(election, tag, sequence, weights)
                    assert certificate == replay_run(election, tag, sequence, weights)
                    seen.add((tag, _outcome(certificate)))
        for tag, _, _ in TWIN_RULES:
            for outcome in ("valid", "non-candidate", "mismatch", "rounds but k"):
                assert (tag, outcome) in seen
        assert ("rule-x", "stopped") in seen


class TestVerifyRunOwnValue:
    """Each check of a round at its candidate's own value is needed."""

    def test_rule_x_needs_the_optimum_below_one_dollar_at_the_left_end(self):
        # a1 approves a3 and a4, a2 approves a4, a3 approves a2, a4 approves a1.
        election = MatchingElection(
            ("a1", "a2", "a3", "a4"),
            (frozenset({2, 3}), frozenset({3}), frozenset({1}), frozenset({0})),
            4,
        )
        a = Matching.of([(0, 3), (1, 2)])  # approvers a1, a3, a4
        b = Matching.of([(0, 2), (1, 3)])  # approvers a1, a2
        assert [r.chosen for r in rule_x(election).rounds] == [a, a, a, b]
        # After two rounds the budgets are 1/3, 1, 1/3, 1/3: b affords one
        # dollar at q_C = 2/3, where the optimum is one dollar, but a
        # affords it already at the bracket's left end 1/3.
        state = (F(1, 3), F(1), F(1, 3), F(1, 3))
        assert _RULE_X.own_value(state, approvers(election, b)) == (F(2, 3), F(1, 3))
        cert = verify_run(election, "rule-x", [a, a, b])
        assert cert == replay_run(election, "rule-x", [a, a, b])
        assert cert.first_invalid == 3 and cert.message == "round 3: group affords 2/3 at q* = 1/3"

    def test_phragmen_at_time_zero_needs_no_pareto_solve(
        self, blossom_calls, footnote4_election
    ):
        run = seq_phragmen(footnote4_election)
        assert [r.t_star for r in run.rounds] == [F(1, 3)] * 3 + [ZERO]
        blossom_calls.clear()
        assert verify_run(footnote4_election, "seq-phragmen", run.committee.trace).valid
        # One value solve a round.  In the fourth a1, a3 and a4 have just
        # paid and weigh 0 at t* = 0, but a matching dominating the group
        # would have held more than one dollar at t = 1/3.  Before: 5.
        assert len(blossom_calls) == 4

    def test_zero_weights_leave_domination_to_the_pareto_solve(self, fig1_election, fig1_cands):
        c1, c2, _ = fig1_cands
        # Under CC weights a1, a3 and a4 weigh 0 after c1, so c2 without its
        # pair (a1, a2) reaches the maximum marginal 2, yet c2 dominates it.
        dominated = Matching(tuple(p for p in c2.pairs if p != (0, 1)))
        cert = verify_run(fig1_election, "seq-thiele", [c1, dominated], CC)
        expected = RunCertificate(
            "seq-thiele", False, (), 2, "round 2 selects a non-candidate matching"
        )
        assert cert == expected == replay_run(fig1_election, "seq-thiele", [c1, dominated], CC)

    def test_dominated_matching_is_reported_at_its_own_index(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        dominated = Matching(tuple(p for p in c2.pairs if p != (0, 1)))
        # Round 1 of the second sequence fails first, but a later
        # non-candidate is still what a replay reports.
        for sequence in ([c1, dominated], [c3, c1, dominated]):
            cert = verify_run(fig1_election, "seq-pav", sequence)
            n = len(sequence)
            assert cert == RunCertificate(
                "seq-pav", False, (), n, f"round {n} selects a non-candidate matching"
            )

    @pytest.mark.parametrize("tag", ["seq-pav", "seq-phragmen", "rule-x"])
    def test_an_optimum_one_unit_high_is_not_accepted(self, monkeypatch, fig1_election, tag):
        import matchvote.sequential

        sequence = [r.chosen for r in TWIN_RULES_BY_TAG[tag](fig1_election).rounds]
        step = _rule_step(tag, None, "test")
        state = step.initial(fig1_election, fig1_election.k)
        high = step.weights(state, step.optimum(fig1_election, state).value)
        solve = matchvote.sequential._value_solve

        def one_high(election, weights):
            optimum, group, certificate = solve(election, weights)
            return (optimum + 1 if list(weights) == high else optimum), group, certificate

        monkeypatch.setattr(matchvote.sequential, "_value_solve", one_high)
        try:
            cert = verify_run(fig1_election, tag, sequence)
        except EngineError:
            return
        assert not cert.valid and cert.first_invalid == 1

    @pytest.mark.parametrize("tag", ["seq-pav", "seq-phragmen", "rule-x"])
    def test_solves_on_fig1(self, blossom_calls, fig1_election, tag):
        """One certified value solve a round (Rule X's second round also
        solves at its bracket's left end).  Before: 6, 13 and 7 solves."""
        run = TWIN_RULES_BY_TAG[tag](fig1_election)
        blossom_calls.clear()
        assert verify_run(fig1_election, tag, [r.chosen for r in run.rounds]).valid
        assert len(blossom_calls) == 3

    def test_solves_on_a_seeded_general_election(self, blossom_calls):
        """seq-PAV and seq-Phragmén pay one solve a round, Rule X at most
        three (q_C, lo and a Pareto solve)."""
        election = generate(GeneratorParams("general", 40, 0.15, 10, 1))
        solves = {}
        for tag in ("seq-pav", "seq-phragmen", "rule-x"):
            rounds = TWIN_RULES_BY_TAG[tag](election).rounds
            blossom_calls.clear()
            assert verify_run(election, tag, [r.chosen for r in rounds]).valid
            solves[tag] = len(blossom_calls)
            if tag in ("seq-pav", "seq-phragmen"):
                assert solves[tag] == len(rounds)
            else:
                assert solves[tag] <= 3 * len(rounds)
        # Before: 20, 51 and 34 solves.
        assert solves == {"seq-pav": 10, "seq-phragmen": 10, "rule-x": 14}


class TestMinCrossing:
    def test_matches_brute_force_on_random_line_families(self):
        from matchvote.sequential import min_crossing

        rng = random.Random(314)
        checked, multi_step = 0, 0
        for _ in range(500):
            lines = [
                (F(rng.randint(-30, 4), rng.randint(1, 4)), F(rng.randint(0, 6)))
                for _ in range(rng.randint(1, 7))
            ]
            lo = F(rng.randint(0, 3))
            hi = lo + F(rng.randint(1, 30), rng.randint(1, 3))

            def f(x):
                return max(b + s * x for b, s in lines)

            if not (f(lo) < 1 <= f(hi)):
                continue
            probes = []

            def evaluate(x):
                # Any tight line will do; the search must not care which.
                probes.append(x)
                b, s = rng.choice([(b, s) for b, s in lines if b + s * x == f(x)])
                return f(x), (1 - b) / s if s else None

            got = min_crossing(evaluate, lo, hi, 6)
            roots = [(1 - b) / s for b, s in lines if s > 0]
            assert got == min(r for r in roots if lo < r <= hi and f(r) == 1)
            assert len(probes) <= 1 + len({s for _, s in lines})
            checked += 1
            multi_step += len(probes) > 2
        assert checked > 100 and multi_step > 10

    def test_roots_outside_the_open_bracket_rejected(self):
        # f(x) = 2x on [0, 1] crosses one at 1/2; each evaluator answers
        # hi with a root at or beyond an end of (lo, x), or with none.
        from matchvote.sequential import min_crossing

        for root in (F(1), F(2), ZERO, F(-1), None):
            with pytest.raises(EngineError, match="not strictly inside"):
                min_crossing(lambda x: (2 * x, root), ZERO, F(1), 2)

    def test_bound_stops_an_evaluator_without_intermediate_slopes(self):
        # f stays at two while every root halves the distance to lo, so the
        # line from each step to its root is steeper than the one before,
        # where Newton's slopes must fall; an honest evaluator of slopes in
        # [1, 3] cannot do this.  The search gives up after its three
        # steps, at the fourth evaluation.
        from matchvote.sequential import min_crossing

        probes = []

        def evaluate(x):
            probes.append(x)
            return F(2), x / 2

        with pytest.raises(EngineError, match="bound of 3 steps"):
            min_crossing(evaluate, ZERO, F(8), 3)
        assert probes == [8, 4, 2, 1]

    def test_lines_crossing_at_hi(self):
        # f = max(x, 2x - 1) on [0, 1] reaches one only at x = 1, so the
        # search returns hi after evaluating it alone.
        from matchvote.sequential import min_crossing

        probes = []

        def evaluate(x):
            probes.append(x)
            b, s = max((ZERO, F(1)), (F(-1), F(2)), key=lambda bs: (bs[0] + bs[1] * x, bs[1]))
            return b + s * x, (1 - b) / s

        assert min_crossing(evaluate, ZERO, F(1), 2) == 1
        assert probes == [1]


class TestNewtonCrossingInTheRules:
    @pytest.fixture(scope="class")
    def seeded_election(self):
        return generate(GeneratorParams("general", 40, 0.15, 10, 1))

    def test_interior_solves_on_a_seeded_general_election(
        self, blossom_calls, monkeypatch, seeded_election
    ):
        """Each crossing search solves only at its Newton steps (hi's solve
        is the bracketing probe's), at most n of them."""
        import matchvote.sequential as sequential

        search = sequential.min_crossing
        interior = []

        def counted(evaluate, lo, hi, bound):
            before = len(blossom_calls)
            crossing = search(evaluate, lo, hi, bound)
            interior.append(len(blossom_calls) - before)
            return crossing

        monkeypatch.setattr(sequential, "min_crossing", counted)
        solves = {}
        for rule in (seq_phragmen, rule_x):
            blossom_calls.clear()
            rule(seeded_election)
            solves[rule.__name__] = len(blossom_calls)
        assert interior and max(interior) <= seeded_election.n
        assert max(interior) > 1
        # Before the Newton crossing search: 51 and 40 solves.
        assert solves == {"seq_phragmen": 42, "rule_x": 37}

    @pytest.mark.parametrize("rule", [seq_phragmen, rule_x])
    def test_a_step_that_does_not_descend_is_refused(self, monkeypatch, seeded_election, rule):
        """A Newton step's value solve answers with the true value but a
        group weighing at most one dollar there, so the group's own value,
        if it has one, is not below the step's x: the search must raise
        rather than loop or return a wrong t* or q*."""
        import matchvote.sequential as sequential

        solve = sequential._value_solve
        values = [ZERO]
        lies = []

        def lying(election, weights):
            value, group, certificate = solve(election, weights)
            if value > 1 and values[-1] > 1:
                # Above one dollar right after hi's probe or a step that was
                # above it too: a Newton step inside the bracket.
                light, total = set(), ZERO
                for a in sorted(group):
                    if total + weights[a] <= 1:
                        light.add(a)
                        total += weights[a]
                group = frozenset(light)
                lies.append(group)
            values.append(value)
            return value, group, certificate

        monkeypatch.setattr(sequential, "_value_solve", lying)
        with pytest.raises(EngineError, match="not strictly inside"):
            rule(seeded_election)
        assert len(lies) == 1


class TestExploreCowinners:
    def test_fig1_phragmen_tie_set(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        outcomes = explore_cowinners(fig1_election, "seq-phragmen")
        assert outcomes == frozenset(
            {
                Committee.from_counts({c1: 1, c2: 1, c3: 1}),
                Committee.from_counts({c1: 2, c2: 1}),
            }
        )

    def test_fig1_seq_pav_unique(self, fig1_election, fig1_cands):
        c1, c2, c3 = fig1_cands
        outcomes = explore_cowinners(fig1_election, "seq-pav")
        assert outcomes == frozenset({Committee.from_counts({c1: 1, c2: 1, c3: 1})})

    def test_fig1_rule_x_unique_short(self, fig1_election, fig1_cands):
        c1, c2, _ = fig1_cands
        outcomes = explore_cowinners(fig1_election, "rule-x")
        assert outcomes == frozenset({Committee.from_counts({c1: 1, c2: 1})})

    def test_every_cowinner_is_a_valid_run(self, triangle_election):
        outcomes = explore_cowinners(triangle_election, "seq-phragmen")
        assert len(outcomes) >= 2
        canonical = seq_phragmen(triangle_election).committee.without_trace()
        assert canonical in outcomes

    @pytest.mark.parametrize(
        "rule, purchases", [("seq-pav", 1500), ("seq-phragmen", 1500), ("rule-x", 750)]
    )
    def test_long_runs_need_no_recursion(self, rule, purchases):
        # One approving agent and k = 1500: a single co-winner 1500 rounds
        # deep (Rule X spends the approver's 750 dollars at one per round).
        election = MatchingElection(("a", "b"), (frozenset({1}), frozenset()), 1500)
        pair = Matching.of([(0, 1)])
        assert explore_cowinners(election, rule) == frozenset(
            {Committee.from_counts({pair: purchases})}
        )

    @pytest.mark.parametrize("rule", ["seq-pav", "seq-phragmen"])
    def test_suboptimal_oracle_is_caught(self, monkeypatch, fig1_election, fig1_cands, rule):
        import matchvote.sequential

        # c3 does not attain the first round's optimum (see TestVerifyRun).
        suboptimal = fig1_cands[2]
        monkeypatch.setattr(
            matchvote.sequential,
            "weighted_approval_winner",
            lambda election, weights, certificate=None: suboptimal,
        )
        with pytest.raises(EngineError, match="enumerated candidates"):
            explore_cowinners(fig1_election, rule)

    def test_state_guard(self, triangle_election):
        with pytest.raises(GuardExceeded, match="exponential"):
            explore_cowinners(triangle_election, "seq-phragmen", max_states=3)

    def test_negative_state_guard_is_malformed_input(self, triangle_election):
        with pytest.raises(ElectionError, match="max_states must be non-negative"):
            explore_cowinners(triangle_election, "seq-phragmen", max_states=-1)

    def test_one_round_per_distinct_state(
        self, monkeypatch, blossom_calls, fig1_election, triangle_election
    ):
        import matchvote.sequential

        winner = matchvote.sequential.weighted_approval_winner
        rounds = []

        def counted(election, weights, certificate=None):
            rounds.append(weights)
            return winner(election, weights, certificate=certificate)

        monkeypatch.setattr(matchvote.sequential, "weighted_approval_winner", counted)
        # (oracle rounds, certified solves) of the memo and of the per-path twin
        expected = [
            (triangle_election, explore_cowinners, (16, 63)),
            (triangle_election, explore_twin, (94, 375)),
            (fig1_election, explore_cowinners, (5, 15)),
            (fig1_election, explore_twin, (5, 15)),
        ]
        for election, explore, counts in expected:
            rounds.clear()
            blossom_calls.clear()
            explore(election, "seq-phragmen")
            assert (len(rounds), len(blossom_calls)) == counts, explore.__name__
        alternating = Committee.from_sequence(
            phragmen_alternating_sequence(triangle_election)
        ).without_trace()
        assert alternating in explore_cowinners(triangle_election, "seq-phragmen")

    def test_rule_outputs_are_always_among_cowinners(self):
        for election in random_corpus(21, 12, n_max=6, k_max=2):
            assert seq_pav(election).committee.without_trace() in explore_cowinners(
                election, "seq-pav", max_edges=32
            )
            assert seq_phragmen(election).committee.without_trace() in explore_cowinners(
                election, "seq-phragmen", max_edges=32
            )
            assert rule_x(election).committee.without_trace() in explore_cowinners(
                election, "rule-x", max_edges=32
            )


class TestExploreTwin:
    """``explore_cowinners`` against ``explore_twin``, the per-path walk
    that solves every node's round again."""

    CORPUS = random_corpus(20, 24, n_max=6, k_max=3)
    RULES = [
        ("seq-pav", None),
        ("seq-phragmen", None),
        ("rule-x", None),
        ("seq-thiele", WeightSequence.cc()),
    ]

    @pytest.mark.parametrize("rule, weights", RULES, ids=[r for r, _ in RULES])
    def test_same_outcomes(self, rule, weights):
        ties = short = 0
        for election in self.CORPUS:
            outcomes = explore_cowinners(election, rule, weights, max_edges=32)
            assert outcomes == explore_twin(election, rule, weights, max_edges=32)
            ties += len(outcomes) > 1
            short += any(c.size < election.k for c in outcomes)
        assert ties > 0
        if rule == "rule-x":
            assert short > 0  # runs that stop early are among the compared ones

    @pytest.mark.parametrize("rule, weights", RULES, ids=[r for r, _ in RULES])
    def test_same_guard_at_few_states(self, rule, weights):
        refused = returned = 0
        for election in self.CORPUS:
            results = []
            for explore in (explore_cowinners, explore_twin):
                try:
                    results.append(explore(election, rule, weights, max_edges=32, max_states=3))
                except GuardExceeded:
                    results.append(None)
            assert results[0] == results[1]
            refused += results[0] is None
            returned += results[0] is not None
        assert refused > 0 and returned > 0


@pytest.mark.parametrize("rule", [seq_pav, seq_phragmen, rule_x])
def test_rule_refuses_a_winner_below_the_optimum(monkeypatch, fig1_election, fig1_cands, rule):
    import matchvote.sequential

    # The value tier still finds each round's optimum; c3 misses round 1's.
    suboptimal = fig1_cands[2]
    monkeypatch.setattr(
        matchvote.sequential,
        "weighted_approval_winner",
        lambda election, weights, certificate=None: suboptimal,
    )
    with pytest.raises(EngineError, match="canonical winner"):
        rule(fig1_election)


# ---------------------------------------------------------------------------
# Pinned canonical runs
# ---------------------------------------------------------------------------


class PinnedRun(NamedTuple):
    """One seeded election (k = 4) and the full canonical run of each rule.

    Rationals are space-separated; a committee member is written as its
    pairs "a-b".  Most of these elections have tied rounds (several
    candidates attain the round optimum), so the traces pin the tie-break
    and not only the values.
    """

    election_class: str
    n: int
    p: float
    seed: int
    pav_marginals: str
    pav_trace: list[str]
    phragmen_t_stars: str
    phragmen_trace: list[str]
    rulex_q_stars: str
    rulex_payments: list[str]
    rulex_probes: list[str]
    rulex_trace: list[str]


PINNED_RUNS = [
    PinnedRun(
        "general", 6, 0.2, 1,
        pav_marginals="3 3 3/2 3/2",
        pav_trace=["0-1 2-4 3-5", "0-4 1-5", "0-1 2-4 3-5", "0-4 1-5"],
        phragmen_t_stars="1/3 0 1/3 0",
        phragmen_trace=["0-1 2-4 3-5", "0-4 1-5", "0-1 2-4 3-5", "0-4 1-5"],
        rulex_q_stars="1/3 1/3 1/3 1/3",
        rulex_payments=[
            "1/3 0 1/3 1/3 0 0",
            "1/3 0 1/3 1/3 0 0",
            "0 1/3 0 0 1/3 1/3",
            "0 1/3 0 0 1/3 1/3",
        ],
        rulex_probes=["2/3 2", "1/3 1", "2/3 2", "1/3 1"],
        rulex_trace=["0-1 2-4 3-5", "0-1 2-4 3-5", "0-4 1-5", "0-4 1-5"],
    ),
    PinnedRun(
        "general", 7, 0.2, 31,
        pav_marginals="3 5/2 2 4/3",
        pav_trace=["0-1 2-3 4-5", "0-2 1-3 5-6", "1-3 2-6 4-5", "0-1 2-3 5-6"],
        phragmen_t_stars="1/3 1/9 4/27 16/81",
        phragmen_trace=["0-1 2-3 4-5", "0-2 1-3 5-6", "0-1 2-6 4-5", "0-1 2-3 5-6"],
        rulex_q_stars="1/3 8/21 4/7",
        rulex_payments=[
            "1/3 0 0 1/3 0 1/3 0",
            "5/21 8/21 0 0 0 0 8/21",
            "0 4/21 4/7 0 0 5/21 0",
        ],
        rulex_probes=["4/7 12/7", "5/21 5/7 4/7 29/21", "4/21 4/7 5/21 2/3 4/7 1"],
        rulex_trace=["0-1 2-3 4-5", "0-2 1-3 5-6", "1-3 2-6 4-5"],
    ),
    PinnedRun(
        "general", 8, 0.2, 14,
        pav_marginals="4 3 7/3 17/12",
        pav_trace=["0-1 2-6 3-5 4-7", "0-1 2-7 3-4 5-6", "0-5 1-6 2-7 3-4", "0-1 2-6 3-5 4-7"],
        phragmen_t_stars="1/4 1/8 1/8 5/32",
        phragmen_trace=[
            "0-1 2-6 3-5 4-7",
            "0-1 2-7 3-4 5-6",
            "0-5 1-6 2-7 3-4",
            "0-1 2-6 3-5 4-7",
        ],
        rulex_q_stars="1/4 1/4 1/2",
        rulex_payments=[
            "1/4 0 1/4 0 0 1/4 0 1/4",
            "1/4 0 1/4 0 0 1/4 0 1/4",
            "0 0 0 1/2 0 0 1/2 0",
        ],
        rulex_probes=["1/2 2", "1/4 1", "1/2 1"],
        rulex_trace=["0-1 2-6 3-5 4-7", "0-1 2-6 3-5 4-7", "0-1 2-7 3-4 5-6"],
    ),
    PinnedRun(
        "general", 10, 0.2, 15,
        pav_marginals="5 7/2 13/6 5/3",
        pav_trace=["0-4 1-5 2-8", "0-5 1-9 2-8 4-7", "0-4 1-9 2-8", "0-5 1-9 2-8 4-7"],
        phragmen_t_stars="1/5 3/25 19/125 87/625",
        phragmen_trace=["0-4 1-5 2-8", "0-5 1-9 2-8 4-7", "0-4 1-5 2-8", "0-5 1-9 2-8 4-7"],
        rulex_q_stars="1/5 1/5",
        rulex_payments=["1/5 0 1/5 0 1/5 1/5 0 0 1/5 0", "1/5 0 1/5 0 1/5 1/5 0 0 1/5 0"],
        rulex_probes=["2/5 2", "1/5 1"],
        rulex_trace=["0-4 1-5 2-8", "0-4 1-5 2-8"],
    ),
    PinnedRun(
        "general", 10, 0.2, 23,
        pav_marginals="5 4 17/6 23/12",
        pav_trace=["0-4 1-2 3-5 8-9", "0-8 1-4 2-9 3-7", "1-6 2-4 3-5 8-9", "0-4 1-2 3-7 8-9"],
        phragmen_t_stars="1/5 2/25 14/125 73/625",
        phragmen_trace=[
            "0-4 1-2 3-5 8-9",
            "0-8 1-4 2-9 3-7",
            "0-4 1-6 3-5 8-9",
            "0-9 1-2 3-7 4-6",
        ],
        rulex_q_stars="1/5 1/5 1/3",
        rulex_payments=[
            "1/5 0 1/5 1/5 0 0 0 0 1/5 1/5",
            "1/5 0 1/5 1/5 0 0 0 0 1/5 1/5",
            "0 1/3 0 0 1/3 0 0 1/3 0 0",
        ],
        rulex_probes=["2/5 2", "1/5 1", "2/5 6/5"],
        rulex_trace=["0-4 1-2 3-5 8-9", "0-4 1-2 3-5 8-9", "0-8 1-4 2-9 3-7"],
    ),
    PinnedRun(
        "general", 12, 0.2, 0,
        pav_marginals="6 4 17/6 25/12",
        pav_trace=[
            "0-10 1-5 2-4 3-8 6-11",
            "0-10 2-4 3-8 5-6 9-11",
            "1-5 2-3 4-6 7-11 8-10",
            "0-10 1-5 2-4 3-8 9-11",
        ],
        phragmen_t_stars="1/6 1/10 1/10 2/15",
        phragmen_trace=[
            "0-10 1-5 2-4 3-8 6-11",
            "1-5 2-3 4-6 8-10 9-11",
            "0-10 1-5 2-4 3-8 6-11",
            "0-10 2-4 3-8 5-6 9-11",
        ],
        rulex_q_stars="1/6 1/6 1/3",
        rulex_payments=[
            "0 0 1/6 1/6 1/6 1/6 0 0 0 0 1/6 1/6",
            "0 0 1/6 1/6 1/6 1/6 0 0 0 0 1/6 1/6",
            "0 0 0 0 0 0 1/3 0 1/3 1/3 0 0",
        ],
        rulex_probes=["1/3 2", "1/6 1", "1/3 1"],
        rulex_trace=["0-10 1-5 2-4 3-8 6-11", "0-10 1-5 2-4 3-8 6-11", "1-5 2-3 4-6 8-10 9-11"],
    ),
    PinnedRun(
        "symmetric", 6, 0.3, 19,
        pav_marginals="4 5/2 5/3 5/4",
        pav_trace=["1-3 2-5", "1-4 2-3", "1-4 2-5", "1-5 3-4"],
        phragmen_t_stars="1/4 3/16 13/64 51/256",
        phragmen_trace=["1-3 2-5", "1-4 2-3", "1-3 2-5", "1-4 2-3"],
        rulex_q_stars="1/4 1/4 1/2",
        rulex_payments=["0 1/4 1/4 1/4 0 1/4", "0 1/4 1/4 1/4 0 1/4", "0 1/6 1/6 1/6 1/2 0"],
        rulex_probes=["2/3 8/3", "5/12 5/3", "1/6 2/3 2/3 7/6"],
        rulex_trace=["1-3 2-5", "1-3 2-5", "1-4 2-3"],
    ),
    PinnedRun(
        "symmetric", 10, 0.3, 3,
        pav_marginals="8 9/2 3 9/4",
        pav_trace=["0-6 1-8 2-7 3-5", "0-6 1-8 2-7 5-9", "0-9 1-2 3-5 6-7", "0-9 1-8 2-7 3-5"],
        phragmen_t_stars="1/8 7/64 57/512 455/4096",
        phragmen_trace=[
            "0-6 1-8 2-7 3-5",
            "0-6 1-8 2-7 5-9",
            "0-6 1-8 2-7 3-5",
            "0-6 1-8 2-7 5-9",
        ],
        rulex_q_stars="1/8 1/8 1/8",
        rulex_payments=[
            "1/8 1/8 1/8 1/8 0 1/8 1/8 1/8 1/8 0",
            "1/8 1/8 1/8 1/8 0 1/8 1/8 1/8 1/8 0",
            "1/8 1/8 1/8 1/8 0 1/8 1/8 1/8 1/8 0",
        ],
        rulex_probes=["2/5 16/5", "11/40 11/5", "3/20 6/5"],
        rulex_trace=["0-6 1-8 2-7 3-5", "0-6 1-8 2-7 3-5", "0-6 1-8 2-7 3-5"],
    ),
]


def _rationals(text: str) -> list[Fraction]:
    return [parse_rational(x) for x in text.split()]


def _members(trace: list[str]) -> tuple[Matching, ...]:
    return tuple(
        Matching.of(tuple(int(x) for x in pair.split("-")) for pair in member.split())
        for member in trace
    )


@pytest.mark.parametrize(
    "pinned",
    PINNED_RUNS,
    ids=[f"{r.election_class}-n{r.n}-seed{r.seed}" for r in PINNED_RUNS],
)
def test_pinned_canonical_runs(pinned):
    election = generate(GeneratorParams(pinned.election_class, pinned.n, pinned.p, 4, pinned.seed))

    pav = seq_pav(election)
    assert [r.marginal for r in pav.rounds] == _rationals(pinned.pav_marginals)
    assert pav.committee.trace == _members(pinned.pav_trace)

    phragmen = seq_phragmen(election)
    assert [r.t_star for r in phragmen.rounds] == _rationals(pinned.phragmen_t_stars)
    assert phragmen.committee.trace == _members(pinned.phragmen_trace)

    rulex = rule_x(election)
    assert [r.q_star for r in rulex.rounds] == _rationals(pinned.rulex_q_stars)
    assert [list(r.payments) for r in rulex.rounds] == [
        _rationals(p) for p in pinned.rulex_payments
    ]
    assert [[x for probe in r.probes for x in probe] for r in rulex.rounds] == [
        _rationals(p) for p in pinned.rulex_probes
    ]
    assert rulex.committee.trace == _members(pinned.rulex_trace)
