from __future__ import annotations

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from matchvote import Committee, dump_election
from matchvote.cli import main
from matchvote.fixtures import (
    fixture,
    footnote4_candidates,
    phragmen_alternating_sequence,
    rulex_proof_run,
)
from matchvote.model import committee_to_dict, matching_to_name_pairs


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(dump_election(fixture("fig1")))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_seq_phragmen_trace(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "solve", "--rule", "seq-phragmen", "-k", "3", fig1_file)
        assert code == 0
        data = json.loads(out)
        assert data["rule"] == "seq-phragmen"
        assert data["trace"][0]["t_star"] == "1/3"
        assert data["committee"]["matchings"]
        assert data["happiness"]["a1"] == 3

    def test_exact_thiele_score(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "solve", "--rule", "exact-thiele", fig1_file)
        assert code == 0
        data = json.loads(out)
        assert data["score"] == "7"
        assert len(data["committee"]["matchings"]) == 3

    def test_exact_thiele_meta_election_guard(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(dump_election(fixture("prop-seq-core")))
        code, out, err = run_cli(capsys, "solve", "--rule", "exact-thiele", str(path))
        assert code == 3 and out == ""
        assert "guard refusal: the meta-election would have 1430996 edges" in err

    def test_rule_x_reports_short_committee(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "solve", "--rule", "rule-x", fig1_file)
        assert code == 0
        data = json.loads(out)
        assert data["purchased"] == 2
        assert sum(m["count"] for m in data["committee"]["matchings"]) == 2
        assert data["trace"][0]["q_star"] == "1/3"

    def test_bad_weights_is_input_error(self, capsys, fig1_file):
        code, _, err = run_cli(capsys, "solve", "--rule", "seq-pav", "--weights", "zzz", fig1_file)
        assert code == 2
        assert "input error" in err

    def test_rule_x_fill_reports_padding(self, capsys, fig1_file):
        code, out, _ = run_cli(
            capsys, "solve", "--rule", "rule-x", "--completion", "fill", fig1_file
        )
        assert code == 0
        data = json.loads(out)
        assert data["purchased"] == 2 and data["filled"] == 1
        assert sum(m["count"] for m in data["committee"]["matchings"]) == 3

    def test_seq_thiele_with_custom_weights(self, capsys, tmp_path, fig1_file):
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps(["1", "2/3", "1/3"]))
        code, out, _ = run_cli(
            capsys,
            "solve", "--rule", "seq-thiele", "--weights", f"custom:{wpath}", fig1_file,
        )
        assert code == 0
        data = json.loads(out)
        assert sum(m["count"] for m in data["committee"]["matchings"]) == 3

    def test_custom_weights_too_short_is_input_error(self, capsys, tmp_path, fig1_file):
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps(["1"]))
        code, _, err = run_cli(
            capsys,
            "solve", "--rule", "seq-thiele", "--weights", f"custom:{wpath}", fig1_file,
        )
        assert code == 2

    def test_custom_weights_increasing_past_k_is_input_error(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "gen", "--class", "bipartite", "-n", "6", "-p", "0.5", "-k", "2", "--seed", "1"
        )
        assert code == 0
        epath = tmp_path / "election.json"
        epath.write_text(out)
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps([1, "1/2", 2]))
        code, _, err = run_cli(
            capsys,
            "solve", "--rule", "exact-thiele", "--weights", f"custom:{wpath}", str(epath),
        )
        assert code == 2
        assert "increases at index 3" in err

    def test_ls_pav_reports_score(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "solve", "--rule", "ls-pav", fig1_file)
        assert code == 0
        data = json.loads(out)
        assert data["score"] == "7" and data["swaps"] == 0


class TestCheck:
    def test_footnote4_pjr_violation_exit_code(self, capsys, tmp_path):
        election = fixture("footnote4")
        path = tmp_path / "e.json"
        path.write_text(dump_election(election))
        c, cp = footnote4_candidates(election)
        committee = Committee.from_counts({c: 2, cp: 2})
        cpath = tmp_path / "w.json"
        cpath.write_text(json.dumps(committee_to_dict(election, committee)))
        code, out, _ = run_cli(
            capsys, "check", "--axiom", "pjr", "--committee", str(cpath), str(path)
        )
        assert code == 1
        data = json.loads(out)
        assert data["satisfied"] is False
        assert data["witness"]["ell"] == 3
        assert data["witness"]["group"] == ["a1", "a3", "a4"]

    def test_satisfied_committee_exits_zero(self, capsys, tmp_path):
        election = fixture("footnote4")
        path = tmp_path / "e.json"
        path.write_text(dump_election(election))
        c, cp = footnote4_candidates(election)
        committee = Committee.from_counts({c: 3, cp: 1})
        cpath = tmp_path / "w.json"
        cpath.write_text(json.dumps(committee_to_dict(election, committee)))
        code, out, _ = run_cli(
            capsys, "check", "--axiom", "pjr", "--committee", str(cpath), str(path)
        )
        assert code == 0
        assert json.loads(out)["satisfied"] is True

    def test_core_guard_exit_code(self, capsys, tmp_path):
        election = fixture("prop-rulex-core")
        path = tmp_path / "e.json"
        path.write_text(dump_election(election))
        sequence, _, _, _ = rulex_proof_run(election)
        committee = Committee.from_sequence(sequence).without_trace()
        cpath = tmp_path / "w.json"
        cpath.write_text(json.dumps(committee_to_dict(election, committee)))
        code, _, err = run_cli(
            capsys, "check", "--axiom", "core", "--committee", str(cpath), str(path)
        )
        assert code == 3
        assert "guard refusal" in err


class TestAnalyze:
    def test_fig1_report(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "analyze", fig1_file)
        assert code == 0
        data = json.loads(out)
        assert data["class"]["bipartite"] is True
        assert data["class"]["symmetric"] is False
        # The undirected view has a perfect matching, so no agent is missed.
        assert len(data["gallai_edmonds"]["core"]) == 6
        assert len(data["approval_graph"]["directed_edges"]) == 4


class TestEnumerate:
    def test_fig1_candidates(self, capsys, fig1_file):
        code, out, _ = run_cli(capsys, "enumerate", fig1_file)
        assert code == 0
        assert json.loads(out)["count"] == 3

    def test_guard_exit(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(dump_election(fixture("prop-seq-core")))
        code, _, err = run_cli(capsys, "enumerate", str(path))
        assert code == 3

    def test_negative_guard_is_input_error(self, capsys, fig1_file):
        code, out, err = run_cli(capsys, "enumerate", "--max-edges", "-1", fig1_file)
        assert code == 2
        assert out == ""
        assert "input error: max_edges must be non-negative" in err


class TestGen:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "gen", "--class", "symmetric", "-n", "6", "-p", "0.5", "--seed", "1"
        )
        code2, out2, _ = run_cli(
            capsys, "gen", "--class", "symmetric", "-n", "6", "-p", "0.5", "--seed", "1"
        )
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert len(data["agents"]) == 6

    def test_vanishing_probability_is_guard_refusal(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "--class", "general", "-n", "2", "-p", "1e-300", "--seed", "1"
        )
        assert code == 3
        assert out == ""
        assert "guard refusal" in err

    def test_hopeless_probability_is_refused_before_drawing(self, capsys):
        # 1000 draws of 300 * 299 coin flips each would take seconds; the
        # guard sees up front that they cannot find an approval.
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "gen", "--class", "general", "-n", "300", "-p", "1e-300", "--seed", "1"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "guard refusal" in err


class TestFixturesCommand:
    def test_emits_loadable_election(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures", "--name", "fig1")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 3 and len(data["agents"]) == 6

    @pytest.mark.parametrize(
        "name", ["footnote4", "prop-seq-core", "prop-rulex-core", "prop-phragmen-ejr"]
    )
    def test_every_fixture_loads(self, capsys, name):
        from matchvote import load_election

        code, out, _ = run_cli(capsys, "fixtures", "--name", name)
        assert code == 0
        load_election(out)


class TestVerifyRun:
    def _write_sequence(self, tmp_path, election, sequence):
        path = tmp_path / "seq.json"
        path.write_text(
            json.dumps(
                {
                    "sequence": [
                        {"pairs": matching_to_name_pairs(election, m)} for m in sequence
                    ]
                }
            )
        )
        return str(path)

    def test_valid_alternating_run(self, capsys, tmp_path):
        election = fixture("prop-phragmen-ejr")
        epath = tmp_path / "e.json"
        epath.write_text(dump_election(election))
        spath = self._write_sequence(
            tmp_path, election, phragmen_alternating_sequence(election)
        )
        code, out, _ = run_cli(
            capsys, "verify-run", "--rule", "seq-phragmen", "--sequence", spath, str(epath)
        )
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["rounds"][0]["optimum"] == "1/2"

    def test_invalid_run_exit_code(self, capsys, tmp_path):
        election = fixture("prop-phragmen-ejr")
        epath = tmp_path / "e.json"
        epath.write_text(dump_election(election))
        seq = phragmen_alternating_sequence(election)
        spath = self._write_sequence(tmp_path, election, [seq[0], seq[0]])
        code, out, _ = run_cli(
            capsys, "verify-run", "--rule", "seq-phragmen", "--sequence", spath, str(epath)
        )
        assert code == 1
        data = json.loads(out)
        assert data["valid"] is False and data["first_invalid"] == 2


class TestInputErrors:
    def test_malformed_election(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "input error" in err

    def test_self_approval_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"agents": ["a", "b"], "approvals": {"a": ["a"]}, "k": 1}))
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/e.json")
        assert code == 2

    def test_non_string_name_in_sequence(self, capsys, tmp_path, fig1_file):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"sequence": [[[["a1"], ["a2"]]]]}))
        code, _, err = run_cli(
            capsys, "verify-run", "--rule", "seq-pav", "--sequence", str(path), fig1_file
        )
        assert code == 2
        assert "input error" in err

    def test_non_string_name_in_committee(self, capsys, tmp_path, fig1_file):
        path = tmp_path / "committee.json"
        path.write_text(json.dumps({"matchings": [{"pairs": [[["a1"], "a2"]]}]}))
        code, _, err = run_cli(
            capsys, "check", "--axiom", "ejr", "--committee", str(path), fig1_file
        )
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("place", ["election", "sequence", "committee", "custom"])
    def test_non_utf8_file(self, capsys, tmp_path, fig1_file, place):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        bad = str(path)
        argv = {
            "election": ["analyze", bad],
            "sequence": ["verify-run", "--rule", "seq-pav", "--sequence", bad, fig1_file],
            "committee": ["check", "--axiom", "ejr", "--committee", bad, fig1_file],
            "custom": ["solve", "--rule", "seq-thiele", "--weights", f"custom:{bad}", fig1_file],
        }[place]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("place", ["election", "committee"])
    def test_json_nested_past_the_recursion_limit(self, capsys, tmp_path, fig1_file, place):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        argv = ["analyze", str(path)] if place == "election" else [
            "check", "--axiom", "ejr", "--committee", str(path), fig1_file
        ]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("place", ["k", "count"])
    def test_integer_past_the_digit_limit(self, capsys, tmp_path, fig1_file, place):
        huge = "1" + "0" * 5000
        path = tmp_path / "huge.json"
        if place == "k":
            path.write_text(dump_election(fixture("fig1")).replace('"k": 3', f'"k": {huge}'))
            argv = ["analyze", str(path)]
        else:
            path.write_text(f'{{"matchings": [{{"pairs": [["a1", "a2"]], "count": {huge}}}]}}')
            argv = ["check", "--axiom", "ejr", "--committee", str(path), fig1_file]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "input error" in err


# Arbitrary JSON, and JSON shaped like each wire format with arbitrary values
# in its fields, so that the fuzzing also reaches past the first type checks.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
AGENTS = st.sampled_from(["a1", "a2", "a3", "a4", "a5", "a6", "zz"])
NAMES = AGENTS | JSON_VALUES
# Mapped so that ``valid | JUNK`` picks each side half the time instead of
# flattening into three equally likely branches.
JUNK = (st.lists(NAMES, max_size=3) | JSON_VALUES).map(lambda value: value)
PAIRS = st.lists(st.lists(AGENTS, min_size=2, max_size=2, unique=True), max_size=2) | JUNK
FOUR = st.sampled_from(["a1", "a2", "a3", "a4"])
ELECTIONS = st.fixed_dictionaries(
    {
        "agents": st.just(["a1", "a2", "a3", "a4"]) | JUNK,
        "approvals": st.dictionaries(FOUR, st.lists(FOUR, min_size=1, max_size=2) | JUNK,
                                     min_size=1, max_size=4) | JUNK,
        "k": st.integers(-1, 4) | JUNK,
    }
)
COMMITTEES = st.fixed_dictionaries(
    {
        "matchings": st.lists(
            st.fixed_dictionaries({"pairs": PAIRS}, optional={"count": st.integers(-1, 3) | JUNK})
            | JUNK,
            max_size=3,
        )
        | JUNK
    }
)
SEQUENCES = st.fixed_dictionaries(
    {"sequence": st.lists(PAIRS | st.fixed_dictionaries({"pairs": PAIRS}), max_size=4) | JUNK}
)


class TestFuzzedInputs:
    """Whatever JSON arrives, ``main`` returns an exit code, and exit code 2
    always comes with an input error message."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz")
        (path / "fig1.json").write_text(dump_election(fixture("fig1")))
        return path

    @staticmethod
    def _main(workdir, payload, *argv):
        """Run ``main`` with ``payload`` written to the file named INPUT in
        ``argv``; FIG1 names the paper's Figure 1 election."""
        (workdir / "input.json").write_text(json.dumps(payload))
        files = {"INPUT": "input.json", "FIG1": "fig1.json"}
        argv = [str(workdir / files[arg]) if arg in files else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert "input error" in err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(payload=JSON_VALUES, command=st.sampled_from(["election", "committee", "sequence"]))
    def test_arbitrary_json(self, workdir, payload, command):
        argv = {
            "election": ["analyze", "INPUT"],
            "committee": ["check", "--axiom", "ejr", "--committee", "INPUT", "FIG1"],
            "sequence": ["verify-run", "--rule", "seq-pav", "--sequence", "INPUT", "FIG1"],
        }[command]
        self._main(workdir, payload, *argv)

    @settings(max_examples=150, deadline=None)
    @given(payload=ELECTIONS)
    def test_election_file(self, workdir, payload):
        self._main(workdir, payload, "analyze", "INPUT")

    @settings(max_examples=150, deadline=None)
    @given(payload=COMMITTEES)
    def test_committee_file(self, workdir, payload):
        self._main(workdir, payload, "check", "--axiom", "ejr", "--committee", "INPUT", "FIG1")

    @settings(max_examples=150, deadline=None)
    @given(payload=SEQUENCES)
    def test_sequence_file(self, workdir, payload):
        self._main(
            workdir, payload, "verify-run", "--rule", "seq-phragmen", "--sequence", "INPUT", "FIG1"
        )


def test_cli_import_leaves_networkx_unloaded():
    """The library solves its own matchings: networkx is a test-only
    dependency, so the CLI import must not load it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = "import sys, matchvote.cli; sys.exit('networkx' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60)
    assert result.returncode == 0
