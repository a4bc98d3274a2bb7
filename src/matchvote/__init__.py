"""Committees of matchings for approval-based matching elections.

Agents approve each other; candidates are minimal Pareto-optimal matchings;
k of them are selected by sequential rules (seq-w-Thiele, seq-Phragmén,
method of equal shares, LS-PAV) or exact w-Thiele optimization, and audited
against proportionality axioms (PJR, EJR, core stability).  All arithmetic
is exact rational.
"""

from .errors import ElectionError, EngineError, GuardExceeded
from .model import (
    ApprovalGraph,
    Committee,
    ElectionClass,
    Matching,
    MatchingElection,
    WeightSequence,
    approvers,
    classify,
    committee_from_dict,
    committee_to_dict,
    dump_election,
    election_from_dict,
    election_to_dict,
    format_rational,
    happiness,
    load_election,
    parse_rational,
    thiele_score,
)
from .engine import (
    GallaiEdmondsDecomposition,
    WeightedGraph,
    approval_weight,
    gallai_edmonds,
    is_candidate,
    max_weight_matching,
    max_weight_value,
    pareto_repair,
    weighted_approval_winner,
)
from .sequential import (
    LsPavRun,
    PhragmenRun,
    RuleXRun,
    RunCertificate,
    SeqThieleRun,
    explore_cowinners,
    ls_pav,
    rule_x,
    seq_pav,
    seq_phragmen,
    seq_thiele,
    verify_run,
)
from .exact_thiele import (
    SymmetricReduction,
    ThieleOutcome,
    bipartite_thiele,
    exact_thiele,
    lift_committee,
    symmetric_to_bipartite,
)
from .axioms import AxiomVerdict, check_core, check_ejr, check_pjr, verify_blocking
from .harness import (
    GeneratorParams,
    enumerate_candidates,
    generate,
    oracle_optimal_committee,
)
from . import fixtures

__version__ = "0.1.0"

__all__ = [
    "ApprovalGraph",
    "AxiomVerdict",
    "Committee",
    "ElectionClass",
    "ElectionError",
    "EngineError",
    "GallaiEdmondsDecomposition",
    "GeneratorParams",
    "GuardExceeded",
    "LsPavRun",
    "Matching",
    "MatchingElection",
    "PhragmenRun",
    "RuleXRun",
    "RunCertificate",
    "SeqThieleRun",
    "SymmetricReduction",
    "ThieleOutcome",
    "WeightSequence",
    "WeightedGraph",
    "approval_weight",
    "approvers",
    "bipartite_thiele",
    "check_core",
    "check_ejr",
    "check_pjr",
    "classify",
    "committee_from_dict",
    "committee_to_dict",
    "dump_election",
    "election_from_dict",
    "election_to_dict",
    "enumerate_candidates",
    "exact_thiele",
    "explore_cowinners",
    "fixtures",
    "format_rational",
    "gallai_edmonds",
    "generate",
    "happiness",
    "is_candidate",
    "lift_committee",
    "load_election",
    "ls_pav",
    "max_weight_matching",
    "max_weight_value",
    "oracle_optimal_committee",
    "pareto_repair",
    "parse_rational",
    "rule_x",
    "seq_pav",
    "seq_phragmen",
    "seq_thiele",
    "symmetric_to_bipartite",
    "thiele_score",
    "verify_blocking",
    "verify_run",
    "weighted_approval_winner",
]
