"""Sequential committee rules built on the weighted approval winner oracle.

Each rule is defined once, as a *step* over a per-agent state (happiness
counts or budgets) with one weight map ``weights(state, x)``, the agent
weights at round value x: w_{h_a + 1} for seq-w-Thiele, b_a + t for
seq-Phragmén and min(b_a, q) for the method of equal shares (Rule X).  A
step also gives its ``initial`` state, the round ``optimum``, the state
after a candidate is played (``advance``) and, by arithmetic, a group's
``own_value``, the x at which it reaches the round's target.  The optimum
needs only numbers, so it runs entirely on the oracle's value tier:
seq-w-Thiele's is one solve, the maximum marginal; seq-Phragmén and Rule
X share one first-crossing search for the least x at which the optimum
reaches one dollar, which probes the weight map's breakpoints in order
and runs Newton's method inside the bracket: from its right end, each
step solves once and moves to the ``own_value`` of the group tight there,
at most n steps.

The rest derives from the weight map, for every rule: a candidate
achieves its approvers' total weight at the round's weights, and the
canonical winner is the oracle's canonical tier at the same weights,
asked once per round.  The round's optimum carries the certificate of the
value solve at exactly those weights (the marginal's solve, the probe
that hit one dollar, or the last Newton step), and the canonical
tier starts from it instead of solving again, so a round costs one
certified solve fewer; the certificate lives for that round only.
Three uses share the steps: the rule itself plays the canonical winner
each round, after checking that it attains the round optimum;
``verify_run`` replays a given selection sequence and certifies
round-by-round that each chosen candidate attains the round optimum, which
makes committees produced under adversarial tie-breaking checkable: it
never searches for the optimum or asks for a winner, but checks the
optimum at the candidate's own value with one or two certified value
solves, and falls back to ``optimum`` only to report a failed round; and
``explore_cowinners`` branches over every enumerated candidate that
attains the optimum, checking the canonical winner too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .blossom import Certificate
from .errors import ElectionError, EngineError, GuardExceeded
from .model import (
    Committee,
    Matching,
    MatchingElection,
    WeightSequence,
    approvers,
    committee_size,
    happiness,
    is_minimal,
)
from .engine import (
    _value_solve,
    approval_weight,
    is_candidate,
    weighted_approval_winner,
)
from .harness import DEFAULT_EDGE_GUARD, check_guard, enumerate_candidates

ZERO = Fraction(0)
ONE = Fraction(1)

# ---------------------------------------------------------------------------
# Crossing search
# ---------------------------------------------------------------------------

Evaluator = Callable[[Fraction], tuple[Fraction, Fraction | None]]  # f(x), a tight root


def min_crossing(evaluate: Evaluator, lo: Fraction, hi: Fraction, bound: int) -> Fraction:
    """The least x in (lo, hi] with f(x) == 1, by Newton's method from the
    right (Dinkelbach's method).

    ``evaluate(x)`` returns f(x) and the root of the affine line of a
    group tight at x, or None if that group never reaches one.  Requires
    f convex on [lo, hi], the upper envelope of those lines, with
    f(lo) < 1 <= f(hi), and lines of integer slope in [1, ``bound``].
    Starting at x = hi, each step moves x to the root r of its tight line
    ℓ until f(x) == 1.  With ℓ <= f, ℓ(x) = f(x) > 1 and ℓ(lo) <= f(lo) < 1,
    r lies strictly inside (lo, x), and f(r) >= ℓ(r) = 1 keeps r at or
    above the first crossing x*.  A line tight at r whose slope is at
    least ℓ's would rise above f(x) at x, so the slopes strictly decrease
    and at most ``bound`` steps run.  f(x) == 1 with f(lo) < 1 and
    convexity forces x = x*.  A root outside (lo, x) or a step past the
    bound raises ``EngineError``.
    """
    x = hi
    for _ in range(bound + 1):
        value, root = evaluate(x)
        if value == ONE:
            return x
        if root is None or not lo < root < x:
            raise EngineError(
                f"crossing step from {x} has root {root}, not strictly inside ({lo}, {x})"
            )
        x = root
    raise EngineError(f"crossing search did not finish within its bound of {bound} steps")


# ---------------------------------------------------------------------------
# Rule steps
# ---------------------------------------------------------------------------

State = tuple  # one entry per agent: happiness counts or budgets


@dataclass(frozen=True)
class _Optimum:
    """One round's optimum: the rule's value (maximum marginal, t* or q*),
    the approver weight a candidate must reach at the step's weights for
    that value to tie (the marginal, or one dollar), for the crossing
    rules the breakpoints probed while bracketing, and the certificate of
    the value solve at the weights of ``value`` (None if nothing was
    solved), for the canonical tier to start from."""

    value: Fraction
    target: Fraction
    probes: tuple[tuple[Fraction, Fraction], ...] = ()
    certificate: Certificate | None = field(default=None, compare=False, repr=False)


def _canonical_winner(
    election: MatchingElection, step: _Step, state: State, best: _Optimum, reference: str
) -> Matching:
    """The oracle's canonical winner at the round's weights, checked to
    attain the optimum that ``reference`` (whatever found it) reaches."""
    weights = step.weights(state, best.value)
    winner = weighted_approval_winner(election, weights, certificate=best.certificate)
    reached = approval_weight(election, weights, winner)
    if reached != best.target:
        raise EngineError(
            f"the oracle's canonical winner reaches {reached} but {reference} reach {best.target}"
        )
    return winner


def _play(
    election: MatchingElection, step: _Step, size: int
) -> Iterator[tuple[_Optimum, Matching, State, State]]:
    """The canonical run: every round plays the oracle's canonical winner.
    Yields each round's optimum and winner with the state before and after
    it, for ``size`` rounds or until the rule stops."""
    state = step.initial(election, size)
    for _ in range(size):
        best = step.optimum(election, state)
        if best is None:
            return
        winner = _canonical_winner(election, step, state, best, "the value solves")
        before, state = state, step.advance(election, state, winner, best.value)
        yield best, winner, before, state


def _first_crossing(
    election: MatchingElection, step: _Step, state: State, breakpoints: Sequence[Fraction]
) -> _Optimum | None:
    """The least x >= 0 at which f(x), the optimum at the agent weights
    ``step.weights(state, x)``, reaches one dollar; None when f stays below
    one up to the last of the ascending ``breakpoints``.

    Every agent weight is non-decreasing in x and affine, of slope 0 or 1,
    between consecutive points of 0 and the breakpoints, so f, the largest
    group weight, is convex on each such bracket.  The breakpoints are
    probed in order until f reaches one.  A probe at exactly one is the
    first crossing, since convexity keeps f below one on the rest of its
    bracket; otherwise ``min_crossing`` runs Newton's method inside the
    bracket [lo, hi], stepping to the ``own_value`` of the value tier's
    group tight at each x.  That is the root of the group's line on the
    bracket: seq-Phragmén's t_C is the line's root by definition, and Rule
    X's water-filling q_C is too, because no budget lies strictly inside
    the bracket.  Each line has integer slope in [1, n], so the search
    takes at most n steps.  All solves are on the value tier, and the
    optimum carries the certificate of the one at its x.
    """
    solved: dict[Fraction, tuple[Fraction, frozenset[int], Certificate | None]] = {}

    def solve(x: Fraction) -> tuple[Fraction, frozenset[int], Certificate | None]:
        if x not in solved:
            solved[x] = _value_solve(election, step.weights(state, x))
        return solved[x]

    probes: list[tuple[Fraction, Fraction]] = []
    lo = ZERO
    for hi in breakpoints:
        reached, _, certificate = solve(hi)
        probes.append((hi, reached))
        if reached >= ONE:
            break
        lo = hi
    else:
        return None
    if reached == ONE:
        return _Optimum(hi, ONE, tuple(probes), certificate)
    if hi == lo:
        raise EngineError("a supporter group already exceeds one dollar")

    def evaluate(x: Fraction) -> tuple[Fraction, Fraction | None]:
        reached, group, _ = solve(x)
        own = step.own_value(state, group)
        return reached, None if own is None else own[0]

    crossing = min_crossing(evaluate, lo, hi, election.n)
    return _Optimum(crossing, ONE, tuple(probes), solve(crossing)[2])


# ---------------------------------------------------------------------------
# seq-w-Thiele
# ---------------------------------------------------------------------------


class _ThieleStep:
    """The state is each agent's happiness h_a, and agent a weighs
    w_{h_a + 1} whatever the round value; that value is the maximum
    marginal score."""

    mismatch = "marginal {achieved} < optimum {value}"

    def __init__(self, sequence: WeightSequence) -> None:
        self.sequence = sequence

    def weights(self, h: State, marginal: Fraction | None = None) -> list[Fraction]:
        return [self.sequence[x + 1] for x in h]

    def initial(self, election: MatchingElection, size: int) -> State:
        return (0,) * election.n

    def optimum(self, election: MatchingElection, h: State) -> _Optimum:
        marginal, _, certificate = _value_solve(election, self.weights(h))
        return _Optimum(marginal, marginal, certificate=certificate)

    def own_value(self, h: State, group: frozenset[int]) -> tuple[Fraction, None]:
        """The group's marginal; the maximum marginal is one solve anyway."""
        return sum((self.sequence[h[a] + 1] for a in group), ZERO), None

    def advance(
        self, election: MatchingElection, h: State, matching: Matching, marginal: Fraction
    ) -> State:
        group = approvers(election, matching)
        return tuple(x + 1 if a in group else x for a, x in enumerate(h))


@dataclass(frozen=True)
class SeqThieleRound:
    marginal: Fraction
    chosen: Matching


@dataclass(frozen=True)
class SeqThieleRun:
    committee: Committee
    rounds: tuple[SeqThieleRound, ...]


def seq_thiele(
    election: MatchingElection, weights: WeightSequence, k: int | None = None
) -> SeqThieleRun:
    """Greedy w-Thiele: each round adds the candidate with maximum marginal
    score, found by one oracle call with agent weight w_{h_a + 1}."""
    size = committee_size(election, k)
    rounds = tuple(
        SeqThieleRound(best.value, winner)
        for best, winner, _, _ in _play(election, _ThieleStep(weights), size)
    )
    return SeqThieleRun(Committee.from_sequence([r.chosen for r in rounds]), rounds)


def seq_pav(election: MatchingElection, k: int | None = None) -> SeqThieleRun:
    return seq_thiele(election, WeightSequence.pav(), k)


# ---------------------------------------------------------------------------
# seq-Phragmén
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhragmenRound:
    t_star: Fraction
    chosen: Matching
    budgets_after: tuple[Fraction, ...]


@dataclass(frozen=True)
class PhragmenRun:
    committee: Committee
    rounds: tuple[PhragmenRound, ...]
    elapsed: Fraction
    budgets: tuple[Fraction, ...]


class _PhragmenStep:
    """The state is the agents' budgets, and agent a weighs b_a + t at time
    t; the round value is the purchase time t*, the first time a group
    holds one dollar.  Every election has an approval, so some group holds
    one dollar by t = 1, and the weights are affine on [0, 1]."""

    mismatch = "group holds {achieved} dollars at t* = {value}"

    def weights(self, budgets: State, t: Fraction) -> list[Fraction]:
        return [b + t for b in budgets]

    def initial(self, election: MatchingElection, size: int) -> State:
        return (ZERO,) * election.n

    def optimum(self, election: MatchingElection, budgets: State) -> _Optimum | None:
        return _first_crossing(election, self, budgets, (ZERO, ONE))

    def own_value(self, budgets: State, group: frozenset[int]) -> tuple[Fraction, None] | None:
        """t_C, the time the group holds one dollar, if it is not past.
        Every non-empty group's weight rises at slope >= 1, so f(t_C) = 1
        alone keeps f below one on [0, t_C): no left end needs a solve."""
        if not group:
            return None
        t = (ONE - sum((budgets[a] for a in group), ZERO)) / len(group)
        return (t, None) if t >= 0 else None

    def advance(
        self, election: MatchingElection, budgets: State, matching: Matching, t_star: Fraction
    ) -> State:
        group = approvers(election, matching)
        return tuple(ZERO if a in group else b + t_star for a, b in enumerate(budgets))


_PHRAGMEN = _PhragmenStep()


def seq_phragmen(election: MatchingElection, k: int | None = None) -> PhragmenRun:
    """Continuous-budget rule: agents earn money at unit speed; the first
    candidate whose supporters jointly hold one dollar is bought and the
    supporters' budgets reset to zero.

    The purchase time solves f(t) = 1 on the optimal value curve
    f(t) = max over candidates of (group budget + group size * t).
    """
    size = committee_size(election, k)
    rounds = tuple(
        PhragmenRound(best.value, winner, after)
        for best, winner, _, after in _play(election, _PHRAGMEN, size)
    )
    return PhragmenRun(
        Committee.from_sequence([r.chosen for r in rounds]),
        rounds,
        sum((r.t_star for r in rounds), ZERO),
        rounds[-1].budgets_after,
    )


# ---------------------------------------------------------------------------
# Rule X (method of equal shares)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleXRound:
    q_star: Fraction
    chosen: Matching
    payments: tuple[Fraction, ...]
    budgets_after: tuple[Fraction, ...]
    probes: tuple[tuple[Fraction, Fraction], ...]
    """(q, f(q)) at the budget-value breakpoints evaluated while bracketing."""


@dataclass(frozen=True)
class RuleXRun:
    committee: Committee
    rounds: tuple[RuleXRound, ...]
    budgets: tuple[Fraction, ...]
    completion: str
    purchased: int
    target_size: int

    @property
    def stopped_short(self) -> bool:
        return self.purchased < self.target_size


COMPLETION_POLICIES = ("none", "fill")


class _RuleXStep:
    """The state is the agents' budgets, k/n each at the start, and agent a
    weighs min(b_a, q) at price q; the round value is the least price q*
    at which a group affords one dollar.  The weights are affine between
    consecutive distinct budgets, so those are the breakpoints.  There is
    no optimum once nothing is affordable."""

    mismatch = "group affords {achieved} at q* = {value}"

    def weights(self, budgets: State, q: Fraction) -> list[Fraction]:
        return [min(b, q) for b in budgets]

    def initial(self, election: MatchingElection, size: int) -> State:
        return (Fraction(size, election.n),) * election.n

    def optimum(self, election: MatchingElection, budgets: State) -> _Optimum | None:
        return _first_crossing(election, self, budgets, sorted({b for b in budgets if b > 0}))

    def own_value(
        self, budgets: State, group: frozenset[int]
    ) -> tuple[Fraction, Fraction | None] | None:
        """q_C, the least price at which the group affords one dollar (water
        filling over its sorted budgets), with the largest positive budget
        below q_C, if any: f is convex on that bracket, so f(q_C) = 1 needs
        f < 1 at its left end too.  None when the group cannot afford one
        dollar."""
        spent, left = ZERO, len(group)
        for b in sorted(budgets[a] for a in group):
            if spent + left * b >= ONE:
                q = (ONE - spent) / left
                return q, max((c for c in budgets if 0 < c < q), default=None)
            spent, left = spent + b, left - 1
        return None

    def advance(
        self, election: MatchingElection, budgets: State, matching: Matching, q_star: Fraction
    ) -> State:
        group = approvers(election, matching)
        return tuple(b - min(b, q_star) if a in group else b for a, b in enumerate(budgets))


_RULE_X = _RuleXStep()

_Step = _ThieleStep | _PhragmenStep | _RuleXStep


def rule_x(
    election: MatchingElection, k: int | None = None, completion: str = "none"
) -> RuleXRun:
    """Method of equal shares: every agent starts with k/n dollars; each
    round buys, for the smallest feasible per-agent price q, a candidate
    whose supporters can jointly pay one dollar at caps min(budget, q).

    Stops early when no candidate is affordable.  ``completion`` is "none"
    (return the short committee) or "fill" (pad with the unit-weight
    approval winner, recorded separately from the purchase rounds).
    """
    size = committee_size(election, k)
    if completion not in COMPLETION_POLICIES:
        raise ElectionError(f"unknown completion policy {completion!r}")
    rounds = []
    budgets = _RULE_X.initial(election, size)
    # The loop rebinds budgets, so it ends holding the final budgets.
    for best, winner, before, budgets in _play(election, _RULE_X, size):
        payments = tuple(b - a for b, a in zip(before, budgets))
        if sum(payments, ZERO) != ONE:
            raise EngineError("Rule X purchase did not collect exactly one dollar")
        if any(b < 0 for b in budgets):
            raise EngineError("Rule X drove a budget negative")
        rounds.append(RuleXRound(best.value, winner, payments, budgets, best.probes))
    sequence = [r.chosen for r in rounds]
    purchased = len(sequence)
    if completion == "fill" and purchased < size:
        filler = weighted_approval_winner(election, [ONE] * election.n)
        sequence.extend([filler] * (size - purchased))
    return RuleXRun(
        Committee.from_sequence(sequence),
        tuple(rounds),
        budgets,
        completion,
        purchased,
        size,
    )


# ---------------------------------------------------------------------------
# LS-PAV
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LsPavSwap:
    removed: Matching
    added: Matching
    score_after: Fraction


@dataclass(frozen=True)
class LsPavRun:
    committee: Committee
    score: Fraction
    swaps: tuple[LsPavSwap, ...]


def _pav_score(weights: WeightSequence, h: Sequence[int]) -> Fraction:
    return sum((weights.prefix(x) for x in h), ZERO)


def ls_pav(
    election: MatchingElection,
    k: int | None = None,
    initial: Committee | None = None,
) -> LsPavRun:
    """Local-search PAV: swap one committee member for the best replacement
    while this raises the PAV score by at least
    eps = 1 / ((1 + 2(k-1)) (k-1) k); the fixpoint is core stable.

    Starts from the seq-PAV committee unless ``initial``, a committee of
    candidates, is supplied (the guarantee holds for any start; seq-PAV
    just converges faster).  k = 1 degenerates to the plain approval
    winner since no eps is defined.
    Each trial's gain is one value solve; the canonical tier is asked only
    for an accepted swap, starting from that solve's certificate, and its
    winner must attain the value optimum.
    """
    size = committee_size(election, k)
    if initial is not None:
        if initial.size != size:
            raise ElectionError(f"initial committee has size {initial.size}, expected {size}")
        if not all(is_candidate(election, member) for member in initial.support):
            raise ElectionError("initial committee has a member that is not a candidate")
    weights = WeightSequence.pav()
    step = _ThieleStep(weights)
    if size == 1:
        winner = weighted_approval_winner(election, [ONE] * election.n)
        committee = Committee.from_counts({winner: 1})
        return LsPavRun(committee, _pav_score(weights, happiness(election, committee)), ())

    epsilon = Fraction(1, (1 + 2 * (size - 1)) * (size - 1) * size)
    if initial is None:
        current = seq_pav(election, size).committee.without_trace()
    else:
        current = initial.without_trace()
    h = list(happiness(election, current))
    score = _pav_score(weights, h)
    swaps: list[LsPavSwap] = []
    max_swaps = 1000 + 40 * election.n * size**4
    while True:
        improved = False
        for removed in current.support:
            removed_supporters = approvers(election, removed)
            reduced = h[:]
            for a in removed_supporters:
                reduced[a] -= 1
            best = step.optimum(election, reduced)
            base = score - sum(
                (weights[reduced[a] + 1] for a in removed_supporters), ZERO
            )
            new_score = base + best.value
            if new_score >= score + epsilon:
                added = _canonical_winner(election, step, reduced, best, "the value solves")
                counts = current.multiset()
                counts[removed] -= 1
                if counts[removed] == 0:
                    del counts[removed]
                counts[added] = counts.get(added, 0) + 1
                current = Committee.from_counts(counts)
                for a in approvers(election, added):
                    reduced[a] += 1
                h = reduced
                score = _pav_score(weights, h)
                if score != new_score:
                    raise EngineError("LS-PAV incremental score drifted")
                swaps.append(LsPavSwap(removed, added, score))
                improved = True
                break
        if not improved:
            return LsPavRun(current, score, tuple(swaps))
        if len(swaps) > max_swaps:
            raise EngineError("LS-PAV exceeded its swap budget")


# ---------------------------------------------------------------------------
# Run verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifiedRound:
    optimum: Fraction
    achieved: Fraction | None
    chosen: Matching
    valid: bool


@dataclass(frozen=True)
class RunCertificate:
    rule: str
    valid: bool
    rounds: tuple[VerifiedRound, ...]
    first_invalid: int | None
    message: str = ""


VERIFIABLE_RULES = ("seq-thiele", "seq-pav", "seq-phragmen", "rule-x")


def _rule_step(rule: str, weights: WeightSequence | None, caller: str) -> _Step:
    """The step of a rule tag; seq-thiele needs ``weights``, the other tags
    ignore them."""
    if rule not in VERIFIABLE_RULES:
        raise ElectionError(f"unknown rule tag {rule!r}; expected one of {VERIFIABLE_RULES}")
    if rule == "seq-phragmen":
        return _PHRAGMEN
    if rule == "rule-x":
        return _RULE_X
    if rule == "seq-pav":
        return _ThieleStep(WeightSequence.pav())
    if weights is None:
        raise ElectionError(f"{caller} needs a weight sequence for seq-thiele")
    return _ThieleStep(weights)


def verify_run(
    election: MatchingElection,
    rule: str,
    sequence: Sequence[Matching],
    weights: WeightSequence | None = None,
) -> RunCertificate:
    """Replay a selection sequence and certify it as a valid execution.

    A round is valid when the supplied candidate exactly attains the round
    optimum (maximum marginal score, earliest purchase time t*, or minimal
    price q*), regardless of how ties were broken.  The first failing round
    is reported, and a non-candidate anywhere in the sequence is reported
    before any failing round.  Rule tags: seq-thiele (requires weights),
    seq-pav, seq-phragmen, rule-x.

    No round searches for its optimum.  The step gives the chosen group's
    own value x_C, by arithmetic: its marginal, the time t_C at which it
    holds one dollar, or the least price q_C at which it affords one.  One
    certified value solve then checks that the optimum f at the round
    weights of x_C equals the group's weight there.  For seq-w-Thiele that
    is the round.  For seq-Phragmén it proves t_C = t*: every non-empty
    group's weight rises at slope >= 1, so f(t_C) = 1 keeps f below one on
    [0, t_C).  For Rule X the weights are affine on [lo, q_C], for lo the
    largest positive budget below q_C or else 0, so f is convex there;
    f(lo) < 1 (one more solve, unless lo = 0, where f is 0) and f(q_C) = 1
    keep f below one on [lo, q_C), and f is non-decreasing, so q_C = q*.
    Minimality is arithmetic.  At round weights that are all positive, a
    matching dominating a valid round's candidate would weigh strictly
    more than the certified optimum, so only a round with a zero weight
    pays the Pareto solve of ``is_candidate``, and a seq-Phragmén round at
    t* = 0 does not either.  Its budgets are 0 or what the agents held at
    t_r0, r0 being the last earlier round with t > 0 (the first round has
    t > 0, since every budget starts at 0), as rounds at t = 0 add no
    money and only zero their payers.  So a matching whose approvers
    strictly contain the chosen group, which holds one dollar, would have
    held more than one dollar at t_r0: the group's budgets are at most
    their weights there, and every other agent weighed at least t_r0 > 0.
    That is above round r0's certified optimum f(t_r0) = 1.  A round that
    fails any check is reported as a full replay reports it
    (``_failed_round``).
    """
    step = _rule_step(rule, weights, "verify_run")
    if len(sequence) > election.k:
        return RunCertificate(
            rule, False, (), 1, f"sequence has {len(sequence)} rounds but k = {election.k}"
        )
    rounds: list[VerifiedRound] = []
    state = step.initial(election, election.k)
    for chosen in sequence:
        minimal = is_minimal(election, chosen)
        own = step.own_value(state, approvers(election, chosen)) if minimal else None
        if own is None:
            return _failed_round(election, rule, step, state, sequence, rounds)
        value, lo = own
        at = step.weights(state, value)
        achieved = approval_weight(election, at, chosen)
        if (
            _value_solve(election, at)[0] != achieved
            or (lo is not None and _value_solve(election, step.weights(state, lo))[0] >= ONE)
            or (
                not all(w > 0 for w in at)
                and not (step is _PHRAGMEN and value == 0)
                and not is_candidate(election, chosen)
            )
        ):
            return _failed_round(election, rule, step, state, sequence, rounds)
        rounds.append(VerifiedRound(value, achieved, chosen, True))
        state = step.advance(election, state, chosen, value)
    return RunCertificate(rule, True, tuple(rounds), None)


def _failed_round(
    election: MatchingElection,
    rule: str,
    step: _Step,
    state: State,
    sequence: Sequence[Matching],
    rounds: list[VerifiedRound],
) -> RunCertificate:
    """The certificate of a replay whose next round failed its checks, as
    a full replay reports it: the first non-candidate from that round on,
    else the round's true optimum, which its candidate must then miss."""
    i = len(rounds) + 1
    for j in range(i, len(sequence) + 1):
        if not is_candidate(election, sequence[j - 1]):
            return RunCertificate(rule, False, (), j, f"round {j} selects a non-candidate matching")
    best = step.optimum(election, state)
    if best is None:
        message = f"round {i}: no candidate is affordable, the rule has stopped"
        return RunCertificate(rule, False, tuple(rounds), i, message)
    chosen = sequence[i - 1]
    achieved = approval_weight(election, step.weights(state, best.value), chosen)
    if achieved == best.target:
        raise EngineError(f"round {i}: the candidate attains the optimum but not at its own value")
    message = f"round {i}: " + step.mismatch.format(achieved=achieved, value=best.value)
    rounds.append(VerifiedRound(best.value, achieved, chosen, False))
    return RunCertificate(rule, False, tuple(rounds), i, message)


# ---------------------------------------------------------------------------
# Co-winner exploration (desk scale)
# ---------------------------------------------------------------------------


def explore_cowinners(
    election: MatchingElection,
    rule: str,
    weights: WeightSequence | None = None,
    *,
    max_edges: int = DEFAULT_EDGE_GUARD,
    max_states: int = 20000,
) -> frozenset[Committee]:
    """All committees a sequential rule can return under some tie-breaking.

    Branches over every candidate attaining each round's optimum, so the
    state space is exponential; both candidate enumeration and the number
    of states entered are guarded (a negative guard is ``ElectionError``),
    and no other depth limit applies (the search keeps its own stack).
    Every round optimum of the oracle is cross-checked against the
    enumerated candidates, and the oracle's canonical winner must attain
    it.  Rule tags as in ``verify_run``.

    The walk enters and counts every node of every tie-breaking path, but
    a round's work depends on the state alone: the optimum, the check of
    the candidates' weights, the canonical winner and the tied children.
    So that work is done once per distinct state, in a memo local to the
    call, and paths that reach the same state again read it.  The states
    are at most the nodes entered, so the call makes at most
    ``max_states`` rounds and the memo holds at most ``max_states``
    entries.  ``tests/oracles.py`` keeps the per-path walk as its twin.
    """
    check_guard("max_states", max_states)
    step = _rule_step(rule, weights, "explore_cowinners")
    candidates = enumerate_candidates(election, max_edges=max_edges)
    groups = [approvers(election, c) for c in candidates]
    Tied = tuple[tuple[State, Matching], ...]
    children: dict[State, Tied | None] = {}

    def round_children(state: State, round_number: int) -> Tied | None:
        """The state after each candidate attaining the round's optimum,
        with the candidate, or None when the rule stops."""
        best = step.optimum(election, state)
        if best is None:
            return None
        at = step.weights(state, best.value)
        achieved = [sum((at[a] for a in group), ZERO) for group in groups]
        if max(achieved) != best.target:
            raise EngineError(
                f"round {round_number}: the oracle's round optimum reaches {best.target} "
                f"but the enumerated candidates reach {max(achieved)}"
            )
        _canonical_winner(election, step, state, best, "the enumerated candidates")
        return tuple(
            (step.advance(election, state, chosen, best.value), chosen)
            for chosen, value in zip(candidates, achieved)
            if value == best.target
        )

    outcomes: set[Committee] = set()
    visited = 0
    stack: list[tuple[State, tuple[Matching, ...]]] = [(step.initial(election, election.k), ())]
    while stack:
        state, picks = stack.pop()
        visited += 1
        if visited > max_states:
            raise GuardExceeded(
                f"co-winner exploration exceeded {max_states} states; "
                f"the co-winner set can be exponential"
            )
        tied = None
        if len(picks) < election.k:
            if state not in children:
                children[state] = round_children(state, len(picks) + 1)
            tied = children[state]
        if tied is None:
            # Full committee, or a purchasing rule stopped early.
            outcomes.add(Committee.from_sequence(picks).without_trace())
            continue
        stack.extend((after, picks + (chosen,)) for after, chosen in tied)
    return frozenset(outcomes)
