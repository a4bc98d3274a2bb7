"""Proportionality audits: PJR, EJR and core stability with witnesses.

EJR is decided in at most k oracle calls, one per distinct marked set
(mark the agents still below the target happiness, ask for the best
candidate among them).  PJR additionally scans sub-multisets of the
committee, and core stability scans deviating committees over the
enumerated candidate space; both are exponential and guarded, matching
their coNP-completeness.  The EJR and PJR threshold tests need only the
oracle's value tier; the canonical tier is asked once, for the witness of
a violation, and starts from the certificate of the solve that found it.
Every violation verdict carries a witness that re-validates with direct
arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, ceil

from .blossom import Certificate
from .errors import ElectionError, EngineError, GuardExceeded
from .model import Committee, Matching, MatchingElection, approvers, happiness
from .engine import (
    _value_solve,
    approval_weight,
    is_candidate,
    weighted_approval_winner,
)
from .harness import (
    DEFAULT_EDGE_GUARD,
    DEFAULT_MULTISET_GUARD,
    check_guard,
    enumerate_candidates,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one audit, with a self-certifying witness on violation.

    For EJR/PJR violations the witness is (ell, group, candidate): the group
    reaches the cohesion threshold ell*n/k, commonly approves the candidate,
    and is under-represented as the axiom defines.  For core violations the
    witness is (ell, group, deviation): a size-ell committee every group
    member strictly prefers.
    """

    axiom: str
    satisfied: bool
    ell: int | None = None
    group: tuple[int, ...] | None = None
    witness_candidate: Matching | None = None
    deviation: Committee | None = None
    threshold: Fraction | None = None


def _cohesion_threshold(election: MatchingElection, ell: int) -> Fraction:
    return Fraction(ell * election.n, election.k)


def _indicator(election: MatchingElection, marked: frozenset[int]) -> list[Fraction]:
    return [ONE if a in marked else ZERO for a in range(election.n)]


def _witness(
    axiom: str,
    election: MatchingElection,
    ell: int,
    threshold: Fraction,
    marked: frozenset[int],
    value: Fraction,
    certificate: Certificate | None,
) -> AxiomVerdict:
    """The violation verdict once ``value``, the value tier's optimum under
    0/1 weights on ``marked``, reaches ``threshold``: the canonical winner,
    started from that solve's ``certificate``, and the first
    ceil(threshold) of its marked supporters."""
    agent_weights = _indicator(election, marked)
    best = weighted_approval_winner(election, agent_weights, certificate)
    if approval_weight(election, agent_weights, best) != value:
        raise EngineError("the canonical winner misses the value tier's optimum")
    group = tuple(sorted(marked & approvers(election, best))[: ceil(threshold)])
    return AxiomVerdict(
        axiom, False, ell=ell, group=group, witness_candidate=best, threshold=threshold
    )


def _checked(election: MatchingElection, committee: Committee) -> None:
    if committee.size != election.k:
        raise ElectionError(
            f"committee has size {committee.size}, expected k = {election.k}"
        )
    for m in committee.support:
        election.check_matching(m)


def check_ejr(election: MatchingElection, committee: Committee) -> AxiomVerdict:
    """Extended justified representation.

    For each ell, agents with happiness below ell are marked; a violation
    exists iff some candidate is approved by at least ell*n/k marked agents,
    which one value-tier oracle call with 0/1 weights decides.  The marked
    sets grow with ell and the threshold only rises, so a marked set equal
    to the last one solved, whose weight fell short of a lower threshold,
    is not solved again.
    """
    _checked(election, committee)
    h = happiness(election, committee)
    solved = None
    for ell in range(1, election.k + 1):
        marked = frozenset(a for a in range(election.n) if h[a] < ell)
        threshold = _cohesion_threshold(election, ell)
        if not marked or len(marked) < threshold or marked == solved:
            continue
        weight, _, certificate = _value_solve(election, _indicator(election, marked))
        if weight >= threshold:
            return _witness("ejr", election, ell, threshold, marked, weight, certificate)
        solved = marked
    return AxiomVerdict("ejr", True)


def check_pjr(
    election: MatchingElection, committee: Committee, *, max_support_scan: int = 10**6
) -> AxiomVerdict:
    """Proportional justified representation.

    A group violates PJR for ell iff the committee holds fewer than ell
    copies of candidates its members approve.  It suffices to scan the
    support subsets U whose total multiplicity is at most ell - 1, mark the
    agents whose approved committee members all lie in U, and ask whether
    ell*n/k marked agents share any candidate (one 0/1 value-tier oracle
    call).
    """
    _checked(election, committee)
    support = committee.support
    if (2 ** len(support)) * election.k > max_support_scan:
        raise GuardExceeded(
            f"PJR scan over 2^{len(support)} support subsets exceeds the guard; "
            f"checking PJR in matching elections is coNP-complete"
        )
    approves_member: dict[int, frozenset[Matching]] = {}
    supporter_cache = {m: approvers(election, m) for m in support}
    for a in range(election.n):
        approves_member[a] = frozenset(m for m in support if a in supporter_cache[m])
    multiplicity = committee.multiset()
    # Distinct marked sets recur across subsets.  A set already solved fell
    # short of a threshold no higher than the current one (the scan returns
    # at the first that does not), so it is not solved again.
    solved: set[frozenset[int]] = set()
    for ell in range(1, election.k + 1):
        threshold = _cohesion_threshold(election, ell)
        for r in range(len(support) + 1):
            for combo in combinations(support, r):
                if sum(multiplicity[m] for m in combo) > ell - 1:
                    continue
                allowed = set(combo)
                marked = frozenset(
                    a for a in range(election.n) if approves_member[a] <= allowed
                )
                if len(marked) < threshold or marked in solved:
                    continue
                solved.add(marked)
                weight, _, certificate = _value_solve(election, _indicator(election, marked))
                if weight >= threshold:
                    return _witness("pjr", election, ell, threshold, marked, weight, certificate)
    return AxiomVerdict("pjr", True)


def check_core(
    election: MatchingElection,
    committee: Committee,
    *,
    max_edges: int = DEFAULT_EDGE_GUARD,
    max_deviations: int = DEFAULT_MULTISET_GUARD,
) -> AxiomVerdict:
    """Core stability by exhaustive deviation search.

    Sound and complete given full candidate enumeration: every blocking
    committee can be assumed to consist of candidates, since replacing a
    member by a Pareto-improvement never loses a supporter.  Returns the
    lexicographically first violation (smallest ell, then canonical
    deviation order).  Guarded: checking core stability is coNP-hard.
    """
    _checked(election, committee)
    check_guard("max_deviations", max_deviations)
    candidates = enumerate_candidates(election, max_edges=max_edges)
    total = sum(comb(len(candidates) + ell - 1, ell) for ell in range(1, election.k + 1))
    if total > max_deviations:
        raise GuardExceeded(
            f"core check would scan {total} deviating committees, beyond the guard "
            f"of {max_deviations}; checking core stability is coNP-hard"
        )
    h = happiness(election, committee)
    supporter_sets = [approvers(election, m) for m in candidates]
    for ell in range(1, election.k + 1):
        threshold = _cohesion_threshold(election, ell)
        for combo in combinations_with_replacement(range(len(candidates)), ell):
            gained = [0] * election.n
            for ci in combo:
                for a in supporter_sets[ci]:
                    gained[a] += 1
            blockers = tuple(a for a in range(election.n) if gained[a] > h[a])
            if len(blockers) >= threshold:
                counts: dict[Matching, int] = {}
                for ci in combo:
                    counts[candidates[ci]] = counts.get(candidates[ci], 0) + 1
                return AxiomVerdict(
                    "core",
                    False,
                    ell=ell,
                    group=blockers,
                    deviation=Committee.from_counts(counts),
                    threshold=threshold,
                )
    return AxiomVerdict("core", True)


def verify_blocking(
    election: MatchingElection,
    committee: Committee,
    group: tuple[int, ...] | list[int],
    deviation: Committee,
) -> bool:
    """True iff ``group`` blocks ``committee`` via ``deviation``.

    Checks that the deviation consists of candidates, that the group is
    large enough for ell = |deviation|, and that every group member strictly
    gains; group members must be agent indices in range(n).  Built for
    fixtures too large for the exhaustive core check.
    """
    _checked(election, committee)
    if deviation.size == 0:
        raise ElectionError("deviation committee must be nonempty")
    ell = deviation.size
    if ell > election.k:
        raise ElectionError(f"deviation of size {ell} exceeds k = {election.k}")
    members = set(group)
    if not members <= set(range(election.n)):
        raise ElectionError(f"group names agents outside 0..{election.n - 1}")
    if len(members) < _cohesion_threshold(election, ell):
        return False
    for m in deviation.support:
        if not is_candidate(election, m):
            return False
    h_now = happiness(election, committee)
    h_dev = happiness(election, deviation)
    return all(h_dev[a] > h_now[a] for a in members)
