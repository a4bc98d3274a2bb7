"""Brute-force oracles and reproducible random election generators.

Everything here trades time for independence: candidate enumeration and the
exhaustive committee search are deliberately naive so they can serve as
ground truth for the polynomial algorithms.  Guards fail loudly instead of
degrading, because a silently truncated oracle is worse than no oracle.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, expm1, log1p
from typing import Iterator, Sequence

from .errors import ElectionError, GuardExceeded
from .model import (
    Committee,
    Matching,
    MatchingElection,
    Pair,
    WeightSequence,
    approvers,
    committee_size,
)

DEFAULT_EDGE_GUARD = 16
DEFAULT_MULTISET_GUARD = 10**6
MAX_DRAWS = 1000
# generate refuses up front when its draws succeed with less probability.
MIN_SUCCESS = 1e-12


def check_guard(name: str, value: int) -> None:
    """Refuse a negative guard with ``ElectionError``: it is malformed
    input, not a refusal of work (which ``GuardExceeded`` reports)."""
    if value < 0:
        raise ElectionError(f"{name} must be non-negative, got {value}")


def all_matchings(edges: Sequence[Pair]) -> Iterator[tuple[Pair, ...]]:
    """Every matching (as a sorted pair tuple) inside the given edge set."""
    edges = sorted(edges)

    def extend(i: int, used: frozenset[int], acc: tuple[Pair, ...]) -> Iterator[tuple[Pair, ...]]:
        if i == len(edges):
            yield acc
            return
        yield from extend(i + 1, used, acc)
        u, v = edges[i]
        if u not in used and v not in used:
            yield from extend(i + 1, used | {u, v}, acc + ((u, v),))

    yield from extend(0, frozenset(), ())


def enumerate_candidates(
    election: MatchingElection, *, max_edges: int = DEFAULT_EDGE_GUARD
) -> tuple[Matching, ...]:
    """All candidates (minimal, Pareto-optimal matchings), canonically sorted.

    Walks every matching of the approval graph's undirected view; matchings
    built from approval edges are automatically minimal, so only Pareto
    domination between approver sets needs checking.
    """
    check_guard("max_edges", max_edges)
    edges = election.approval_graph.undirected_edges
    if len(edges) > max_edges:
        raise GuardExceeded(
            f"candidate enumeration over {len(edges)} approval edges exceeds the "
            f"guard of {max_edges}; the candidate space grows exponentially"
        )
    entries = [
        (pairs, approvers(election, Matching(pairs))) for pairs in all_matchings(edges)
    ]
    approver_sets = {a for _, a in entries}
    candidates = [
        Matching(pairs)
        for pairs, approved in entries
        if not any(approved < other for other in approver_sets)
    ]
    return tuple(sorted(candidates))


def best_committee_by_enumeration(
    election: MatchingElection,
    weights: WeightSequence,
    k: int,
    candidates: Sequence[Matching],
    *,
    max_multisets: int = DEFAULT_MULTISET_GUARD,
) -> tuple[Committee, Fraction]:
    """Exhaustive search over all size-k candidate multisets.

    Returns the first multiset (in lexicographic candidate order) attaining
    the maximum score, so ties resolve deterministically.
    """
    check_guard("max_multisets", max_multisets)
    if not candidates:
        raise ElectionError("no candidates to search over")
    count = comb(len(candidates) + k - 1, k)
    if count > max_multisets:
        raise GuardExceeded(
            f"{count} committees of size {k} over {len(candidates)} candidates "
            f"exceed the guard of {max_multisets}; exact search over general "
            f"elections is NP-hard"
        )
    supporter_sets = [approvers(election, m) for m in candidates]
    best_score: Fraction | None = None
    best_combo: tuple[int, ...] | None = None
    for combo in combinations_with_replacement(range(len(candidates)), k):
        per_agent = [0] * election.n
        for ci in combo:
            for agent in supporter_sets[ci]:
                per_agent[agent] += 1
        score = sum((weights.prefix(h) for h in per_agent), Fraction(0))
        if best_score is None or score > best_score:
            best_score = score
            best_combo = combo
    assert best_combo is not None and best_score is not None
    counts: dict[Matching, int] = {}
    for ci in best_combo:
        counts[candidates[ci]] = counts.get(candidates[ci], 0) + 1
    return Committee.from_counts(counts), best_score


def oracle_optimal_committee(
    election: MatchingElection,
    weights: WeightSequence,
    k: int | None = None,
    *,
    max_edges: int = DEFAULT_EDGE_GUARD,
    max_multisets: int = DEFAULT_MULTISET_GUARD,
) -> tuple[Committee, Fraction]:
    """Independent optimum for desk-scale instances: enumerate candidates,
    then score every size-k multiset."""
    size = committee_size(election, k)
    candidates = enumerate_candidates(election, max_edges=max_edges)
    return best_committee_by_enumeration(
        election, weights, size, candidates, max_multisets=max_multisets
    )


ELECTION_CLASSES = ("general", "bipartite", "symmetric")


@dataclass(frozen=True)
class GeneratorParams:
    """Seeded Bernoulli election sampler parameters.

    The approval probability applies per ordered pair for general elections,
    per unordered pair for symmetric ones, and per ordered cross pair for
    bipartite ones (sides are the first ceil(n/2) agents versus the rest).
    """

    election_class: str
    n: int
    p: float
    k: int
    seed: int

    @property
    def slots(self) -> int:
        """Number of approval coin flips in one draw."""
        n = self.n
        if self.election_class == "general":
            return n * (n - 1)
        if self.election_class == "symmetric":
            return n * (n - 1) // 2
        return 2 * ((n + 1) // 2) * (n // 2)

    def __post_init__(self) -> None:
        if self.election_class not in ELECTION_CLASSES:
            raise ElectionError(
                f"unknown election class {self.election_class!r}; expected one of {ELECTION_CLASSES}"
            )
        if self.n < 2:
            raise ElectionError("generator needs n >= 2")
        if not (0.0 <= self.p <= 1.0):
            raise ElectionError("approval probability must lie in [0, 1]")
        if self.k <= 0:
            raise ElectionError("generator needs k >= 1")


def generate(params: GeneratorParams) -> MatchingElection:
    """Deterministic random election for a seed; redraws degenerate profiles.

    All-empty profiles are invalid, so the sampler keeps drawing from the
    same seeded stream until at least one approval appears, at most
    ``MAX_DRAWS`` = 1000 times; ``GuardExceeded`` is raised when every draw
    is empty (likely only for a vanishing p).  Each draw costs one random
    number per approval slot, so when all draws together would find an
    approval with probability below ``MIN_SUCCESS`` = 1e-12 the guard
    refuses before the first draw instead.  For p == 0 the instance is
    unsatisfiable and ``ElectionError`` is raised at once.
    """
    if params.p == 0.0:
        raise ElectionError("approval probability 0 can only generate invalid elections")
    if params.p < 1.0:
        success = -expm1(MAX_DRAWS * params.slots * log1p(-params.p))
        if success < MIN_SUCCESS:
            raise GuardExceeded(
                f"{MAX_DRAWS} draws at approval probability {params.p} would find an "
                f"approval with probability {success:.3g}; raise p"
            )
    rng = random.Random(params.seed)
    names = tuple(f"a{i + 1}" for i in range(params.n))
    for _ in range(MAX_DRAWS):
        approvals: list[set[int]] = [set() for _ in range(params.n)]
        if params.election_class == "general":
            for a in range(params.n):
                for b in range(params.n):
                    if a != b and rng.random() < params.p:
                        approvals[a].add(b)
        elif params.election_class == "symmetric":
            for a in range(params.n):
                for b in range(a + 1, params.n):
                    if rng.random() < params.p:
                        approvals[a].add(b)
                        approvals[b].add(a)
        else:
            side1 = range((params.n + 1) // 2)
            side2 = range((params.n + 1) // 2, params.n)
            for a in side1:
                for b in side2:
                    if rng.random() < params.p:
                        approvals[a].add(b)
                    if rng.random() < params.p:
                        approvals[b].add(a)
        if any(approvals):
            return MatchingElection(
                names, tuple(frozenset(s) for s in approvals), params.k
            )
    raise GuardExceeded(
        f"{MAX_DRAWS} draws at approval probability {params.p} were all empty; "
        f"raise p"
    )
