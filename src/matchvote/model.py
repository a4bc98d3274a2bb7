"""Core data model for approval-based matching elections.

Agents approve other agents. A candidate is a minimal, Pareto-optimal
matching of the agents, and a committee is a multiset of k candidates.
All scores and thresholds are exact ``fractions.Fraction`` values; every
type in this module is immutable after construction.
"""
from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ElectionError

Pair = tuple[int, int]

ZERO = Fraction(0)
ONE = Fraction(1)


def format_rational(x: Fraction | int) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (exact, JSON-safe)."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: Fraction | str | int | float) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or an int into an exact Fraction; a
    Fraction is returned unchanged.  Floats and bools are refused."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ElectionError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ElectionError(f"not a rational: {text!r}") from exc
    raise ElectionError(f"not a rational: {text!r} (floats are rejected, use p/q strings)")


@dataclass(frozen=True, order=True)
class Matching:
    """A set of disjoint unordered agent pairs, in canonical form.

    Canonical form: each pair is (low index, high index) and pairs are
    sorted ascending.  Tuple ordering of ``pairs`` therefore defines the
    global candidate order used for all tie-breaking.
    """

    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for a, b in self.pairs:
            if a == b:
                raise ElectionError(f"pair ({a},{b}) matches an agent to itself")
            if a > b:
                raise ElectionError(f"pair ({a},{b}) is not in canonical (low, high) order")
            if a in seen or b in seen:
                raise ElectionError(f"agent {a if a in seen else b} appears in more than one pair")
            seen.add(a)
            seen.add(b)
        if list(self.pairs) != sorted(self.pairs):
            raise ElectionError("pairs are not sorted canonically")

    @staticmethod
    def of(pairs: Iterable[Sequence[int]]) -> "Matching":
        """Build a canonical matching from unordered pairs."""
        canon = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        return Matching(canon)

    @property
    def agents(self) -> frozenset[int]:
        return frozenset(a for pair in self.pairs for a in pair)

    def partner(self, agent: int) -> int | None:
        for a, b in self.pairs:
            if a == agent:
                return b
            if b == agent:
                return a
        return None

    def __len__(self) -> int:
        return len(self.pairs)


EMPTY_MATCHING = Matching(())


@dataclass(frozen=True)
class ApprovalGraph:
    """Mixed graph view of a profile: mutual and one-sided approvals.

    ``mutual`` holds canonical undirected edges {a,b} with both approvals;
    ``directed`` holds (a,b) where a approves b but not vice versa.  The two
    edge sets are disjoint by construction.
    """

    n: int
    mutual: tuple[Pair, ...]
    directed: tuple[Pair, ...]

    @cached_property
    def approving_edges(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Every edge (u, v), u < v, in canonical order, with the endpoints
        that approve their partner: both for a mutual approval, else one."""
        edges = [(a, b, (a, b)) for a, b in self.mutual]
        edges += [(min(a, b), max(a, b), (a,)) for a, b in self.directed]
        return tuple(sorted(edges))

    @cached_property
    def undirected_edges(self) -> tuple[Pair, ...]:
        """All edges with directions dropped, canonically sorted."""
        return tuple((u, v) for u, v, _ in self.approving_edges)

    def approving_endpoints(self, a: int, b: int) -> tuple[int, ...]:
        """Endpoints of {a,b} that approve their partner."""
        lo, hi = min(a, b), max(a, b)
        edges = self.approving_edges
        i = bisect_left(edges, (lo, hi))  # (lo, hi) sorts just before (lo, hi, ...)
        if i < len(edges) and edges[i][:2] == (lo, hi):
            return edges[i][2]
        return ()


@dataclass(frozen=True)
class MatchingElection:
    """An election instance: named agents, approval profile and size k.

    ``approvals[i]`` is the set of agent indices approved by agent i.
    Self-approvals are rejected, and at least one agent must approve
    somebody (otherwise there are no candidates at all).
    """

    names: tuple[str, ...]
    approvals: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self) -> None:
        n = len(self.names)
        if n < 2:
            raise ElectionError(f"need at least 2 agents, got {n}")
        if len(set(self.names)) != n:
            raise ElectionError("agent names must be unique")
        if any(not name for name in self.names):
            raise ElectionError("agent names must be non-empty strings")
        if len(self.approvals) != n:
            raise ElectionError("approvals must cover every agent")
        for i, approved in enumerate(self.approvals):
            if i in approved:
                raise ElectionError(f"agent {self.names[i]!r} approves itself")
            for j in approved:
                if not (0 <= j < n):
                    raise ElectionError(f"agent {self.names[i]!r} approves unknown index {j}")
        if all(not approved for approved in self.approvals):
            raise ElectionError("every approval set is empty; need at least one approval")
        if self.k <= 0:
            raise ElectionError(f"committee size k must be positive, got {self.k}")

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def approval_graph(self) -> ApprovalGraph:
        mutual: list[Pair] = []
        directed: list[Pair] = []
        for a in range(self.n):
            for b in self.approvals[a]:
                if a in self.approvals[b]:
                    if a < b:
                        mutual.append((a, b))
                else:
                    directed.append((a, b))
        return ApprovalGraph(self.n, tuple(sorted(mutual)), tuple(sorted(directed)))

    def with_k(self, k: int) -> "MatchingElection":
        return MatchingElection(self.names, self.approvals, k)

    def check_matching(self, m: Matching) -> None:
        """Validate that m is a matching over this election's agents."""
        for a, b in m.pairs:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ElectionError(f"pair ({a},{b}) uses an unknown agent index")


@dataclass(frozen=True)
class ElectionClass:
    """Domain classification: symmetric and/or bipartite flags.

    ``bipartition`` carries a witness (N1, N2): the 2-coloring of the
    undirected approval graph whose color vector is lexicographically
    smallest (other valid partitions may exist).
    """

    symmetric: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None

    @property
    def bipartite(self) -> bool:
        return self.bipartition is not None

    @property
    def tag(self) -> str:
        parts = []
        if self.symmetric:
            parts.append("symmetric")
        if self.bipartite:
            parts.append("bipartite")
        return " ".join(parts) if parts else "general"


def two_colouring(n: int, edges: Iterable[Pair]) -> list[int] | None:
    """Side 0 or 1 of every node of the graph on nodes 0..n-1, or None when
    it has an odd cycle.  The smallest node of each connected component
    (an isolated node included) goes on side 0; a connected bipartite graph
    has one colouring with that node fixed, so the search order does not
    matter."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    side = [-1] * n
    for root in range(n):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return None
    return side


def classify(election: MatchingElection) -> ElectionClass:
    """Classify an election as symmetric and/or bipartite (else general).

    Symmetric: every approval is mutual.  Bipartite: the undirected view of
    the approval graph is 2-colorable; since every approval induces an edge,
    2-colorability already forces all approvals to cross the partition.
    Invariant under agent relabeling (up to the witness partition).
    """
    graph = election.approval_graph
    symmetric = not graph.directed

    side = two_colouring(election.n, graph.undirected_edges)
    partition = None
    if side is not None:
        partition = (
            tuple(i for i, s in enumerate(side) if s == 0),
            tuple(i for i, s in enumerate(side) if s == 1),
        )
    return ElectionClass(symmetric, partition)


def approvers(election: MatchingElection, matching: Matching) -> frozenset[int]:
    """Agents matched to a partner they approve."""
    election.check_matching(matching)
    result = set()
    for a, b in matching.pairs:
        if b in election.approvals[a]:
            result.add(a)
        if a in election.approvals[b]:
            result.add(b)
    return frozenset(result)


def is_minimal(election: MatchingElection, matching: Matching) -> bool:
    """True iff every pair is approved by at least one of its endpoints."""
    election.check_matching(matching)
    return all(
        b in election.approvals[a] or a in election.approvals[b]
        for a, b in matching.pairs
    )


class WeightSequence:
    """A non-increasing weight sequence w_1 = 1 >= w_2 >= ... >= 0.

    Weights are produced lazily from a generator function and cached;
    exactness (no float or bool), monotonicity and non-negativity are
    verified as far as the sequence is probed (for ``from_values``, over
    the whole list when it is built).
    ``strictly_decreasing`` additionally asserts w_i > w_{i+1}.
    Extension runs under a lock so instances can be shared across threads
    like every other type in this module.  The cache lists are only ever
    appended to, so a read of an entry already cached takes no lock.
    """

    __slots__ = ("name", "strictly_decreasing", "_fn", "_values", "_prefix", "_lock")

    def __init__(
        self,
        fn: Callable[[int], Fraction],
        *,
        name: str = "custom",
        strictly_decreasing: bool = False,
    ) -> None:
        self.name = name
        self.strictly_decreasing = strictly_decreasing
        self._fn = fn
        self._values: list[Fraction] = []
        self._prefix: list[Fraction] = [ZERO]
        self._lock = threading.Lock()
        if self[1] != 1:
            raise ElectionError(f"weight sequence {name!r} must start with w_1 = 1")

    def _extend(self, i: int) -> None:
        with self._lock:
            while len(self._values) < i:
                nxt = parse_rational(self._fn(len(self._values) + 1))
                if nxt < 0:
                    raise ElectionError(f"weight sequence {self.name!r} has negative w_{len(self._values) + 1}")
                if self._values:
                    prev = self._values[-1]
                    if nxt > prev:
                        raise ElectionError(f"weight sequence {self.name!r} increases at index {len(self._values) + 1}")
                    if self.strictly_decreasing and nxt >= prev:
                        raise ElectionError(
                            f"weight sequence {self.name!r} is declared strictly decreasing but w_{len(self._values)} == w_{len(self._values) + 1}"
                        )
                self._values.append(nxt)
                self._prefix.append(self._prefix[-1] + nxt)

    def __getitem__(self, i: int) -> Fraction:
        if i < 1:
            raise ElectionError(f"weight index {i} out of range (1-based)")
        if i > len(self._values):
            self._extend(i)
        return self._values[i - 1]

    def prefix(self, h: int) -> Fraction:
        """Sum of w_1 .. w_h (zero for h = 0)."""
        if h < 0:
            raise ElectionError(f"happiness {h} cannot be negative")
        if h >= len(self._prefix):
            self._extend(h)
        return self._prefix[h]

    @classmethod
    def pav(cls) -> "WeightSequence":
        return cls(lambda i: Fraction(1, i), name="pav", strictly_decreasing=True)

    @classmethod
    def av(cls) -> "WeightSequence":
        return cls(lambda i: ONE, name="av")

    @classmethod
    def cc(cls) -> "WeightSequence":
        return cls(lambda i: ONE if i == 1 else ZERO, name="cc")

    @classmethod
    def from_values(cls, values: Sequence[Fraction | int | str], *, name: str = "custom") -> "WeightSequence":
        vals = [parse_rational(v) for v in values]
        if not vals:
            raise ElectionError("custom weight sequence is empty")

        def fn(i: int) -> Fraction:
            if i > len(vals):
                raise ElectionError(
                    f"custom weight sequence has {len(vals)} entries but w_{i} was requested"
                )
            return vals[i - 1]

        strict = all(a > b for a, b in zip(vals, vals[1:]))
        sequence = cls(fn, name=name, strictly_decreasing=strict)
        sequence.prefix(len(vals))  # the list is finite: validate every entry now
        return sequence


@dataclass(frozen=True)
class Committee:
    """A multiset of matchings, optionally with a selection-order trace.

    ``entries`` maps each distinct matching to its positive multiplicity,
    stored sorted in the canonical matching order.  When ``trace`` is
    present it records the order in which a sequential rule selected the
    members and must collapse to exactly the same multiset.
    """

    entries: tuple[tuple[Matching, int], ...]
    trace: tuple[Matching, ...] | None = None

    def __post_init__(self) -> None:
        matchings = [m for m, _ in self.entries]
        if matchings != sorted(matchings):
            raise ElectionError("committee entries are not sorted canonically")
        if len(set(matchings)) != len(matchings):
            raise ElectionError("committee entries contain duplicate matchings")
        if any(count <= 0 for _, count in self.entries):
            raise ElectionError("committee multiplicities must be positive")
        if self.trace is not None:
            collapsed: dict[Matching, int] = {}
            for m in self.trace:
                collapsed[m] = collapsed.get(m, 0) + 1
            if collapsed != dict(self.entries):
                raise ElectionError("committee trace does not collapse to its multiset")

    @staticmethod
    def from_counts(counts: Mapping[Matching, int] | Iterable[tuple[Matching, int]]) -> "Committee":
        items = dict(counts)
        return Committee(tuple(sorted(items.items(), key=lambda kv: kv[0])))

    @staticmethod
    def from_sequence(sequence: Iterable[Matching]) -> "Committee":
        trace = tuple(sequence)
        counts: dict[Matching, int] = {}
        for m in trace:
            counts[m] = counts.get(m, 0) + 1
        return Committee(tuple(sorted(counts.items(), key=lambda kv: kv[0])), trace)

    @property
    def size(self) -> int:
        return sum(count for _, count in self.entries)

    @property
    def support(self) -> tuple[Matching, ...]:
        return tuple(m for m, _ in self.entries)

    def count(self, matching: Matching) -> int:
        for m, c in self.entries:
            if m == matching:
                return c
        return 0

    def multiset(self) -> dict[Matching, int]:
        return dict(self.entries)

    def without_trace(self) -> "Committee":
        return Committee(self.entries)

    def __iter__(self):
        for m, c in self.entries:
            for _ in range(c):
                yield m


def committee_size(election: MatchingElection, k: int | None) -> int:
    """The requested committee size: ``k`` if given, else the election's."""
    size = election.k if k is None else k
    if size <= 0:
        raise ElectionError(f"committee size must be positive, got {size}")
    return size


def happiness(election: MatchingElection, committee: Committee) -> tuple[int, ...]:
    """Per-agent happiness: committee members (with multiplicity) approved."""
    scores = [0] * election.n
    for matching, count in committee.entries:
        for agent in approvers(election, matching):
            scores[agent] += count
    return tuple(scores)


def thiele_score(
    election: MatchingElection, weights: WeightSequence, committee: Committee
) -> Fraction:
    """Exact committee score: sum over agents of w_1 + ... + w_{h_a}."""
    return sum((weights.prefix(h) for h in happiness(election, committee)), ZERO)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------
#
# Election:  {"agents": ["a1", ...], "approvals": {"a1": ["a2"], ...}, "k": 3}
# Committee: {"matchings": [{"pairs": [["a1","a2"], ...], "count": 1}, ...]}
# Agents absent from "approvals" have empty approval sets.


def election_from_dict(data: object) -> MatchingElection:
    if not isinstance(data, dict):
        raise ElectionError("election JSON must be an object")
    agents = data.get("agents")
    if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
        raise ElectionError('field "agents" must be a list of strings')
    names = tuple(agents)
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ElectionError('field "agents" contains duplicate names')
    raw = data.get("approvals", {})
    if not isinstance(raw, dict):
        raise ElectionError('field "approvals" must be an object')
    approvals: list[set[int]] = [set() for _ in names]
    for name, approved in raw.items():
        if name not in index:
            raise ElectionError(f'field "approvals" mentions unknown agent {name!r}')
        if not isinstance(approved, list) or not all(isinstance(b, str) for b in approved):
            raise ElectionError(f'approvals of {name!r} must be a list of agent names')
        for other in approved:
            if other not in index:
                raise ElectionError(f"agent {name!r} approves unknown agent {other!r}")
            approvals[index[name]].add(index[other])
    k = data.get("k")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ElectionError('field "k" must be an integer')
    return MatchingElection(names, tuple(frozenset(s) for s in approvals), k)


def election_to_dict(election: MatchingElection) -> dict:
    return {
        "agents": list(election.names),
        "approvals": {
            election.names[a]: sorted(election.names[b] for b in election.approvals[a])
            for a in range(election.n)
            if election.approvals[a]
        },
        "k": election.k,
    }


def load_election(text: str) -> MatchingElection:
    """Parse and validate the election JSON wire format."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ElectionError(f"invalid JSON: {exc}") from exc
    return election_from_dict(data)


def dump_election(election: MatchingElection) -> str:
    return json.dumps(election_to_dict(election), indent=2)


def matching_from_name_pairs(election: MatchingElection, pairs: object) -> Matching:
    if not isinstance(pairs, list):
        raise ElectionError("matching pairs must be a list")
    index = election.index_of
    resolved = []
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ElectionError(f"malformed pair {pair!r}")
        a, b = pair
        if not (isinstance(a, str) and isinstance(b, str)):
            raise ElectionError(f"pair {pair!r} must name two agents by string")
        if a not in index or b not in index:
            raise ElectionError(f"pair {pair!r} uses unknown agent names")
        resolved.append((index[a], index[b]))
    return Matching.of(resolved)


def matching_to_name_pairs(election: MatchingElection, matching: Matching) -> list[list[str]]:
    return [[election.names[a], election.names[b]] for a, b in matching.pairs]


def committee_from_dict(election: MatchingElection, data: object) -> Committee:
    if not isinstance(data, dict) or not isinstance(data.get("matchings"), list):
        raise ElectionError('committee JSON must be an object with a "matchings" list')
    counts: dict[Matching, int] = {}
    for item in data["matchings"]:
        if not isinstance(item, dict):
            raise ElectionError("each committee entry must be an object")
        m = matching_from_name_pairs(election, item.get("pairs"))
        count = item.get("count", 1)
        if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
            raise ElectionError(f"committee entry count must be a positive integer, got {count!r}")
        counts[m] = counts.get(m, 0) + count
    return Committee.from_counts(counts)


def committee_to_dict(election: MatchingElection, committee: Committee) -> dict:
    return {
        "matchings": [
            {"pairs": matching_to_name_pairs(election, m), "count": c}
            for m, c in committee.entries
        ]
    }
