"""The four benchmark workloads.

Each workload is built from a seed into a fixed list of operations (one
pass).  An operation is one library call, or one ``matchvote`` command, and
carries the certificate that checks its output for any seed.  Operations on
the paper's fixtures do not depend on the seed; their output digests are
checked on every seed, the others' on the default seed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from fractions import Fraction
from math import ceil
from pathlib import Path
from typing import Callable

import matchvote as mv
import matchvote.cli
from matchvote import fixtures as fx
from matchvote.model import committee_to_dict, dump_election, matching_to_name_pairs

PAV = mv.WeightSequence.pav()
CLI_TIMEOUT_S = 120.0


def derive(seed: int, label: str) -> int:
    """Seed of one generated input, stable across Python versions."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8], "big")


def general(n: int, p: float, k: int, seed: int, label: str) -> mv.MatchingElection:
    return mv.generate(mv.GeneratorParams("general", n, p, k, derive(seed, label)))


# ---------------------------------------------------------------------------
# Operations and output digests
# ---------------------------------------------------------------------------

Outputs = dict[str, object]


@dataclasses.dataclass(frozen=True)
class Op:
    """One call of a pass.  ``kind`` says which sum its time joins: "rule"
    (time to committee), "audit" (time to verdict) or "other".  ``call``
    receives the outputs of the pass's earlier operations; ``check`` returns
    a problem with the output, or None."""

    id: str
    kind: str
    call: Callable[[Outputs], object]
    check: Callable[[object, Outputs], str | None]
    fixed: bool = False


@dataclasses.dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    rss_mib: float = 0.0


@dataclasses.dataclass
class Workload:
    name: str
    ops: list[Op]
    workdir: Path
    probe: list[str] | None = None
    """A command timed outside the pass for ``cli_p50_s`` (non-cli workloads)."""
    probe_check: Callable[[CliResult, Outputs], str | None] | None = None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def canon(x: object) -> object:
    """JSON-ready form of an output: dataclasses field by field, rationals
    as strings, sets sorted."""
    if isinstance(x, CliResult):
        return {"exit": x.code, "stdout": x.stdout}
    if isinstance(x, Fraction):
        return str(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x: object) -> str:
    text = json.dumps(canon(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def check_committee(election: mv.MatchingElection, committee: mv.Committee, size: int) -> str | None:
    if committee.size != size:
        return f"committee has size {committee.size}, expected {size}"
    for member in committee.support:
        if not mv.is_candidate(election, member):
            return f"committee member {member.pairs} is not a candidate"
    return None


RULE_TAGS = {mv.SeqThieleRun: "seq-pav", mv.PhragmenRun: "seq-phragmen", mv.RuleXRun: "rule-x"}


def check_run(election: mv.MatchingElection, run, *, replay: bool) -> str | None:
    """A sequential run has k candidates (Rule X without completion: one per
    purchase) and, when ``replay`` is set, ``verify_run`` accepts it."""
    size = run.purchased if isinstance(run, mv.RuleXRun) else election.k
    problem = check_committee(election, run.committee, size)
    if problem is None and replay:
        tag = RULE_TAGS[type(run)]
        certificate = mv.verify_run(election, tag, [r.chosen for r in run.rounds])
        problem = check_certificate(certificate, {})
    return problem


def check_certificate(certificate: mv.RunCertificate, _: Outputs) -> str | None:
    if not certificate.valid:
        return f"verify_run rejected round {certificate.first_invalid}: {certificate.message}"
    return None


def check_verdict(
    election: mv.MatchingElection, committee: mv.Committee, verdict: mv.AxiomVerdict
) -> str | None:
    """Re-validate a violation's witness with direct arithmetic (EJR, PJR)
    or with ``verify_blocking`` (core)."""
    if verdict.satisfied:
        return None
    ell, group = verdict.ell, verdict.group
    if verdict.axiom == "core":
        if not mv.verify_blocking(election, committee, group, verdict.deviation):
            return "core witness does not block the committee"
        return None
    threshold = Fraction(ell * election.n, election.k)
    if verdict.threshold != threshold or len(group) < ceil(threshold):
        return f"{verdict.axiom} witness group is below the cohesion threshold"
    supporters = mv.approvers(election, verdict.witness_candidate)
    if not set(group) <= supporters:
        return f"{verdict.axiom} witness group does not approve its candidate"
    h = mv.happiness(election, committee)
    if verdict.axiom == "ejr" and any(h[a] >= ell for a in group):
        return "ejr witness group member already has happiness ell"
    if verdict.axiom == "pjr":
        covered = sum(
            count
            for member, count in committee.entries
            if mv.approvers(election, member) & set(group)
        )
        if covered >= ell:
            return "pjr witness group is represented ell times"
    return None


def check_outcome(election: mv.MatchingElection, method: str):
    def check(outcome: mv.ThieleOutcome, _: Outputs) -> str | None:
        if outcome.method != method:
            return f"exact_thiele used {outcome.method}, expected {method}"
        if outcome.score != mv.thiele_score(election, PAV, outcome.committee):
            return "exact_thiele score differs from the recomputed Thiele score"
        return check_committee(election, outcome.committee, election.k)

    return check


def expect(value: object, what: str):
    def check(output: object, _: Outputs) -> str | None:
        return None if output == value else f"{what}: got {output!r}"

    return check


# ---------------------------------------------------------------------------
# matchvote commands, as subprocesses or in-process
# ---------------------------------------------------------------------------


def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with wait4, for its own peak resident memory."""

    def expire(signum, frame):
        raise TimeoutError(f"command did not exit within {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_command(argv: list[str], env: dict[str, str], workdir: Path) -> CliResult:
    """One ``python -m matchvote.cli`` subprocess, start to exit."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "matchvote.cli", *argv], stdout=out, stderr=err, env=env
        )
        code, usage = _wait(proc, CLI_TIMEOUT_S)
    return CliResult(
        code, out_path.read_text(), err_path.read_text(), usage.ru_maxrss / 1024
    )


def run_in_process(argv: list[str]) -> CliResult:
    """The same command through ``matchvote.cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = matchvote.cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def check_cli_committee(election: mv.MatchingElection, expected: Callable[[Outputs], mv.Committee]):
    """The command exits 0 and prints the committee the library returns."""

    def check(result: CliResult, outputs: Outputs) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}: {result.stderr.strip()}"
        printed = json.loads(result.stdout)["committee"]
        if printed != committee_to_dict(election, expected(outputs)):
            return "printed committee differs from the library's"
        return None

    return check


def fig1_probe(workdir: Path, rule: str, solve: Callable) -> dict:
    """``solve --rule RULE`` on fig1: the workload's kind of command at desk
    size, where start-up dominates and the seed plays no part."""
    fig1 = fx.fig1()
    path = _write(workdir, "fig1.json", dump_election(fig1))
    reference = cache(lambda: solve(fig1).committee)
    return {
        "probe": ["solve", "--rule", rule, path],
        "probe_check": check_cli_committee(fig1, lambda out: reference()),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Library functions are looked up on ``mv`` at call time, so that traced
# passes reach the wrappers the tracer binds there.
def seq_pav(election: mv.MatchingElection) -> mv.SeqThieleRun:
    return mv.seq_pav(election)


SEQUENTIAL = (
    ("seq_pav", "seq-pav", seq_pav),
    ("seq_phragmen", "seq-phragmen", lambda e: mv.seq_phragmen(e)),
    ("rule_x", "rule-x", lambda e: mv.rule_x(e, completion="none")),
)


def replayed_run(run_id: str, election: mv.MatchingElection, tag: str, rule: Callable) -> list[Op]:
    """A sequential rule, then ``verify_run`` replaying its sequence."""
    return [
        Op(run_id, "rule", lambda out: rule(election),
           lambda run, out: check_run(election, run, replay=False)),
        Op(f"verify_run/{run_id}", "audit",
           lambda out: mv.verify_run(election, tag, [r.chosen for r in out[run_id].rounds]),
           check_certificate),
    ]


def rules(seed: int, size: str, workdir: Path, root: Path) -> Workload:
    """seq-PAV, seq-Phragmén and Rule X on two general elections, each run
    followed by ``verify_run`` on its selection sequence."""
    shapes = ((40, 0.15, 10), (60, 0.15, 10)) if size == "full" else ((12, 0.3, 3), (16, 0.3, 3))
    ops = []
    for n, p, k in shapes:
        election = general(n, p, k, seed, f"rules/n{n}")
        for name, tag, rule in SEQUENTIAL:
            ops += replayed_run(f"{name}/n{n}", election, tag, rule)
    return Workload("rules", ops, workdir, **fig1_probe(workdir, "seq-phragmen", mv.seq_phragmen))


def factor_critical_symmetric(n: int, p: float, k: int, seed: int) -> mv.MatchingElection:
    """First seeded symmetric election whose Gallai-Edmonds reduction is
    non-trivial and spans one factor-critical component (the common shape
    for odd n; other shapes vary the cost of exact Thiele tenfold)."""
    for attempt in range(1000):
        params = mv.GeneratorParams("symmetric", n, p, k, derive(seed, f"exact/symmetric/{attempt}"))
        election = mv.generate(params)
        reduction = mv.symmetric_to_bipartite(election)
        if (
            reduction.psi is not None
            and len(reduction.components) == 1
            and len(reduction.inessential) == n
        ):
            return election
    raise RuntimeError("no factor-critical symmetric election in 1000 draws")


def check_optimum(election: mv.MatchingElection, method: str, greedy_id: str):
    """The exact optimum is a committee of candidates scoring its own Thiele
    score, and no less than the seq-PAV committee of the same pass."""
    certify = check_outcome(election, method)

    def check(outcome: mv.ThieleOutcome, out: Outputs) -> str | None:
        problem = certify(outcome, out)
        if problem is None and outcome.score < mv.thiele_score(election, PAV, out[greedy_id].committee):
            problem = "exact_thiele scored below seq-PAV"
        return problem

    return check


# Extra seeded bipartite elections that get only the verified seq-PAV
# baseline: a replay on one election takes 25 to 90 ms depending on how many
# Pareto repairs it meets, so three elections alone leave the time to verdict
# at the mercy of the seed.
GREEDY_BASELINES = 8


def exact(seed: int, size: str, workdir: Path, root: Path) -> Workload:
    """Exact PAV on two bipartite elections and one symmetric election; each
    optimum is audited for EJR and compared with a verified seq-PAV run,
    which also runs on eight more bipartite elections of the n = 24 shape."""
    if size == "full":
        bipartite_shapes, symmetric_shape = ((20, 0.4, 6), (24, 0.4, 8)), (15, 0.3, 5)
    else:
        bipartite_shapes, symmetric_shape = ((8, 0.4, 2), (10, 0.4, 3)), (7, 0.5, 2)
    cases = []
    for n, p, k in bipartite_shapes:
        params = mv.GeneratorParams("bipartite", n, p, k, derive(seed, f"exact/bipartite/n{n}"))
        cases.append((f"bipartite/n{n}", "bipartite", mv.generate(params)))
    n, p, k = symmetric_shape
    cases.append((f"symmetric/n{n}", "symmetric", factor_critical_symmetric(n, p, k, seed)))
    ops = []
    for label, method, election in cases:
        ops += replayed_run(f"seq_pav/{label}", election, "seq-pav", seq_pav)
        run_id = f"exact_thiele/{label}"
        ops.append(
            Op(run_id, "rule", lambda out, e=election: mv.exact_thiele(e, PAV),
               check_optimum(election, method, f"seq_pav/{label}"))
        )
        ops.append(
            Op(
                f"check_ejr/{label}",
                "audit",
                lambda out, e=election, run_id=run_id: mv.check_ejr(e, out[run_id].committee),
                lambda verdict, out, e=election, run_id=run_id: check_verdict(
                    e, out[run_id].committee, verdict
                ),
            )
        )
    n, p, k = bipartite_shapes[-1]
    for i in range(GREEDY_BASELINES):
        params = mv.GeneratorParams("bipartite", n, p, k, derive(seed, f"exact/baseline{i}"))
        election = mv.generate(params)
        ops += replayed_run(f"seq_pav/baseline{i}/n{n}", election, "seq-pav", seq_pav)
    return Workload(
        "exact", ops, workdir, **fig1_probe(workdir, "exact-thiele", lambda e: mv.exact_thiele(e, PAV))
    )


def desk_election(seed: int, index: int, size: str) -> mv.MatchingElection:
    """Seeded general election small enough for candidate enumeration
    (n = 10, 12 to 16 approval edges, k = 2: at k = 3 the co-winner search
    alone varies from 0.4 to 1.8 s between seeds)."""
    n, p, k = (10, 0.15, 2) if size == "full" else (8, 0.2, 2)
    low = 12 if size == "full" else 6
    for attempt in range(1000):
        election = general(n, p, k, seed, f"audit/desk{index}/{attempt}")
        if low <= len(election.approval_graph.undirected_edges) <= 16:
            return election
    raise RuntimeError("no desk-scale election in 1000 draws")


def audit(seed: int, size: str, workdir: Path, root: Path) -> Workload:
    """Replays, blocking checks and audits on the paper's fixtures, plus
    PJR, core and co-winner audits of seq-Phragmén on desk-scale elections."""
    core = fx.prop_seq_core()
    core_committee = fx.seq_core_proof_committee(core)
    core_group, core_deviation = fx.seq_core_blocking(core, core_committee)
    rx = fx.prop_rulex_core()
    rx_sequence, rx_prices, rx_group, rx_deviation = fx.rulex_proof_run(rx)
    rx_committee = mv.Committee.from_sequence(rx_sequence)
    pe = fx.prop_phragmen_ejr()
    pe_committee = mv.Committee.from_sequence(fx.phragmen_alternating_sequence(pe)).without_trace()

    def rx_replay(certificate: mv.RunCertificate, out: Outputs) -> str | None:
        problem = check_certificate(certificate, out)
        if problem is None and [r.optimum for r in certificate.rounds] != rx_prices:
            problem = "Rule X replay found other prices than the documented ones"
        return problem

    ops = []
    if size == "full":
        ops += [
            Op("seq_pav/prop-seq-core", "rule", lambda out: mv.seq_pav(core),
               lambda run, out: check_run(core, run, replay=True), fixed=True),
            Op("verify_run/prop-seq-core", "audit",
               lambda out: mv.verify_run(core, "seq-pav", list(core_committee.trace)),
               check_certificate, fixed=True),
            Op("check_ejr/prop-seq-core", "audit", lambda out: mv.check_ejr(core, core_committee),
               lambda verdict, out: check_verdict(core, core_committee, verdict), fixed=True),
        ]
    ops += [
        Op("verify_blocking/prop-seq-core", "audit",
           lambda out: mv.verify_blocking(core, core_committee, core_group, core_deviation),
           expect(True, "documented seq-PAV blocking"), fixed=True),
        Op("verify_blocking/prop-rulex-core", "audit",
           lambda out: mv.verify_blocking(rx, rx_committee, rx_group, rx_deviation),
           expect(True, "documented Rule X blocking"), fixed=True),
        Op("verify_run/prop-rulex-core", "audit",
           lambda out: mv.verify_run(rx, "rule-x", rx_sequence), rx_replay, fixed=True),
        Op("explore_cowinners/prop-phragmen-ejr", "audit",
           lambda out: mv.explore_cowinners(pe, "seq-phragmen"),
           lambda found, out: None if pe_committee in found else "alternating run missing",
           fixed=True),
    ]
    for i in range(6 if size == "full" else 2):
        e = desk_election(seed, i, size)
        run_id = f"seq_phragmen/desk{i}"
        ops += [
            Op(run_id, "rule", lambda out, e=e: mv.seq_phragmen(e),
               lambda run, out, e=e: check_run(e, run, replay=True)),
            Op(f"check_pjr/desk{i}", "audit",
               lambda out, e=e, r=run_id: mv.check_pjr(e, out[r].committee),
               lambda v, out, e=e, r=run_id: check_verdict(e, out[r].committee, v)),
            Op(f"check_core/desk{i}", "audit",
               lambda out, e=e, r=run_id: mv.check_core(e, out[r].committee),
               lambda v, out, e=e, r=run_id: check_verdict(e, out[r].committee, v)),
            Op(f"explore_cowinners/desk{i}", "audit",
               lambda out, e=e: mv.explore_cowinners(e, "seq-phragmen"),
               lambda found, out, r=run_id: None
               if out[r].committee.without_trace() in found
               else "the rule's own committee is not a co-winner"),
        ]
    sequence = {"sequence": [{"pairs": matching_to_name_pairs(rx, m)} for m in rx_sequence]}
    election_path = _write(workdir, "prop-rulex-core.json", dump_election(rx))
    sequence_path = _write(workdir, "prop-rulex-core.sequence.json", json.dumps(sequence))

    def probe_check(result: CliResult, out: Outputs) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}: {result.stderr.strip()}"
        optima = [Fraction(r["optimum"]) for r in json.loads(result.stdout)["rounds"]]
        return None if optima == rx_prices else "printed prices differ from the documented ones"

    return Workload(
        "audit",
        ops,
        workdir,
        probe=["verify-run", "--rule", "rule-x", "--sequence", sequence_path, election_path],
        probe_check=probe_check,
    )


def check_exit(code: int, marker: str = ""):
    def check(result: CliResult, _: Outputs) -> str | None:
        if result.code != code or marker not in result.stderr:
            return f"expected exit code {code}, got {result.code}: {result.stderr.strip()}"
        return None

    return check


def check_verdict_exit(result: CliResult, _: Outputs) -> str | None:
    """An audit command exits 0 when satisfied or valid, 1 otherwise."""
    if result.code not in (0, 1):
        return f"exit code {result.code}: {result.stderr.strip()}"
    data = json.loads(result.stdout)
    ok = data["satisfied"] if "satisfied" in data else data["valid"]
    return None if ok == (result.code == 0) else "exit code contradicts the printed verdict"


def check_analyze(election: mv.MatchingElection):
    def check(result: CliResult, _: Outputs) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}: {result.stderr.strip()}"
        parts = json.loads(result.stdout)["gallai_edmonds"]
        agents = sorted(parts["inessential"] + parts["boundary"] + parts["core"])
        if agents != sorted(election.names):
            return "decomposition does not partition the agents"
        return None

    return check


def cli(seed: int, size: str, workdir: Path, root: Path, *, in_process: bool = False) -> Workload:
    """One ``matchvote`` command after another: every rule on fig1, seq-PAV
    and analyze on a seeded general election, the three audits and a replay
    on fig1, one malformed election (exit 2) and one enumeration over the
    edge guard (exit 3)."""
    fig1 = fx.fig1()
    c1, c2, c3 = fx.fig1_candidates(fig1)
    n, p, k = (40, 0.15, 10) if size == "full" else (12, 0.3, 3)
    big = general(n, p, k, seed, "cli/general")
    fig1_path = _write(workdir, "fig1.json", dump_election(fig1))
    big_path = _write(workdir, "general.json", dump_election(big))
    committee_path = _write(
        workdir, "committee.json",
        json.dumps(committee_to_dict(fig1, mv.Committee.from_counts({c3: 3}))),
    )
    sequence_path = _write(
        workdir, "sequence.json",
        json.dumps({"sequence": [{"pairs": matching_to_name_pairs(fig1, m)} for m in (c1, c2, c3)]}),
    )
    malformed_path = _write(
        workdir, "malformed.json", json.dumps({"agents": ["a", "b"], "approvals": {"a": ["a"]}, "k": 1})
    )
    big_committee = cache(lambda: mv.seq_pav(big).committee)
    def solved(result: CliResult, _: Outputs) -> str | None:
        return None if result.code == 0 else f"exit code {result.code}: {result.stderr.strip()}"

    commands = [
        (f"solve/fig1/{rule}", "rule", ["solve", "--rule", rule, fig1_path], solved, True)
        for rule in matchvote.cli.RULES
    ]
    commands += [
        ("solve/general/seq-pav", "rule", ["solve", "--rule", "seq-pav", big_path],
         check_cli_committee(big, lambda out: big_committee()), False),
        ("analyze/general", "other", ["analyze", big_path], check_analyze(big), False),
    ]
    commands += [
        (f"check/fig1/{axiom}", "audit",
         ["check", "--axiom", axiom, "--committee", committee_path, fig1_path],
         check_verdict_exit, True)
        for axiom in ("ejr", "pjr", "core")
    ]
    commands += [
        ("verify-run/fig1", "audit",
         ["verify-run", "--rule", "seq-phragmen", "--sequence", sequence_path, fig1_path],
         check_verdict_exit, True),
        ("solve/malformed", "other", ["solve", "--rule", "seq-pav", malformed_path],
         check_exit(2, "input error"), True),
        ("enumerate/general", "other", ["enumerate", big_path],
         check_exit(3, "guard refusal"), False),
    ]
    env = cli_env(root)
    ops = [
        Op(
            op_id,
            kind,
            (lambda out, argv=argv: run_in_process(argv))
            if in_process
            else (lambda out, argv=argv: run_command(argv, env, workdir)),
            check,
            fixed,
        )
        for op_id, kind, argv, check, fixed in commands
    ]
    return Workload("cli", ops, workdir)


BUILDERS = {"rules": rules, "exact": exact, "audit": audit, "cli": cli}


def build(name: str, seed: int, size: str, root: Path, *, in_process_cli: bool = False) -> Workload:
    """Generate a workload's inputs from the seed; files it needs go to a
    fresh directory under ``bench/out`` that ``Workload.close`` removes."""
    out = root / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=out))
    try:
        if name == "cli":
            return cli(seed, size, workdir, root, in_process=in_process_cli)
        return BUILDERS[name](seed, size, workdir, root)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
