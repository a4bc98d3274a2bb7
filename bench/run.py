"""matchvote benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload rules --seed 1 --seconds 20 --trace 0

A closed loop with one caller: the workload's call list (one pass) runs
again and again, each call starting when the previous one returned, until
``--seconds`` would be exceeded; every output is checked.  With
``--trace 0`` the last line of stdout reports the end-to-end metrics
(medians over passes); with ``--trace 1`` untraced and traced passes
alternate and the last line reports the per-layer metrics of
``BENCHMARK.json``.  Results and spans are written under ``bench/out``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
SETUP_PROBES = 5
CLI_PROBES = 15
STARTUP_PROBES = 5


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace) -> dict:
    import networkx

    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": bool(args.trace),
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Pass:
    """Outputs, errors and per-call seconds of one run of the call list."""

    def __init__(self) -> None:
        self.outputs: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.seconds: dict[str, float] = {}
        self.total = 0.0
        self.spans: list = []

def kind_seconds(workload, passes: list[Pass], kind: str) -> float:
    """Summed median seconds of the calls of one kind, so that a stall
    during one pass does not move the figure."""
    return sum(
        median(p.seconds[op.id] for p in passes) for op in workload.ops if op.kind == kind
    )


def run_pass(workload, tracer=None) -> Pass:
    gc.collect()  # every pass starts from the same heap, not the last pass's garbage
    result = Pass()
    start = time.perf_counter()
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result.outputs[op.id] = op.call(result.outputs)
            else:
                with tracer.span("bench.op", op.id):
                    result.outputs[op.id] = op.call(result.outputs)
        except Exception as exc:  # a call that raises is a failed operation
            result.errors[op.id] = f"{type(exc).__name__}: {exc}"
        result.seconds[op.id] = time.perf_counter() - t0
    result.total = time.perf_counter() - start
    return result


def run_untraced(workload, seconds: float) -> list[Pass]:
    """Passes until another one would overrun the budget (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + median(p.total for p in passes) <= seconds
    ):
        passes.append(run_pass(workload))
    return passes


def run_alternating(workload, seconds: float) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes in turn, for the tracing overhead."""
    from tracing import Tracer

    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start + plain[-1].total + traced[-1].total <= seconds
    ):
        plain.append(run_pass(workload))
        tracer = Tracer()
        with tracer.installed():
            result = run_pass(workload, tracer)
        result.spans = tracer.spans
        traced.append(result)
    return plain, traced


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def load_expected() -> dict:
    path = BENCH / "expected.json"
    return json.loads(path.read_text()) if path.is_file() else {"seed": DEFAULT_SEED, "digests": {}}


def check_passes(workload, passes: list[Pass], frozen: dict | None, default_seed: bool) -> list[str]:
    """Problems with the outputs, one per failed operation.

    The first pass is certified call by call and compared with the frozen
    digests (those of seed-independent calls always, the others on the
    default seed); every later pass must reproduce the first pass exactly.
    """
    from workloads import digest

    problems = []
    first = passes[0]
    reference: dict[str, str] = {}
    bad: set[str] = set()
    for op in workload.ops:
        problem = first.errors.get(op.id)
        if problem is None:
            output = first.outputs[op.id]
            try:
                problem = op.check(output, first.outputs)
            except Exception as exc:  # a certificate that raises rejects the output
                problem = f"check raised {type(exc).__name__}: {exc}"
            reference[op.id] = digest(output)
            if problem is None and frozen is not None and (op.fixed or default_seed):
                if op.id not in frozen:
                    problem = "no frozen digest"
                elif frozen[op.id] != reference[op.id]:
                    problem = "output differs from the frozen digest"
        if problem is not None:
            bad.add(op.id)
            problems.append(f"{op.id}: {problem}")
    for index, later in enumerate(passes[1:], start=2):
        for op in workload.ops:
            if op.id in later.errors:
                problems.append(f"{op.id} (pass {index}): {later.errors[op.id]}")
            elif op.id in bad:
                problems.append(f"{op.id} (pass {index}): same output as pass 1")
            elif digest(later.outputs[op.id]) != reference[op.id]:
                problems.append(f"{op.id} (pass {index}): output differs from pass 1")
    return problems


# ---------------------------------------------------------------------------
# Measurements outside the passes
# ---------------------------------------------------------------------------


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Fresh processes from start until the workload is ready to run."""
    times = []
    for _ in range(SETUP_PROBES):
        command = [
            sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        ]
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(ready - start)
    return times


def startup_seconds(code: str) -> float:
    """Median wall time of a bare interpreter running ``code``."""
    from workloads import cli_env

    env = cli_env(ROOT)
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return median(times)


def probe_cli(workload, outputs) -> tuple[list[float], list[str]]:
    """Time the workload's probe command; check each result."""
    from workloads import cli_env, run_command

    env = cli_env(ROOT)
    times, problems = [], []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        result = run_command(workload.probe, env, workload.workdir)
        times.append(time.perf_counter() - start)
        problem = workload.probe_check(result, outputs)
        if problem is not None:
            problems.append(f"cli probe {' '.join(workload.probe[:3])}: {problem}")
    return times, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(workload, passes: list[Pass], setup: list[float], probe_times: list[float]) -> dict:
    if workload.name == "cli":
        command_times = [p.seconds[op.id] for p in passes for op in workload.ops]
        cli_p50 = median(command_times)
        rss_mib = max(
            (p.outputs[op.id].rss_mib for p in passes for op in workload.ops if op.id in p.outputs),
            default=0.0,
        )
    else:
        cli_p50 = median(probe_times)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": (median(setup), "s"),
        "run_s": (median(p.total for p in passes), "s"),
        "rule_s": (kind_seconds(workload, passes, "rule"), "s"),
        "audit_s": (kind_seconds(workload, passes, "audit"), "s"),
        "cli_p50_s": (cli_p50, "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(workload, plain: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics as medians over traced passes; ``failed_frac`` is
    filled in once every check has run."""
    from tracing import counts_repeat, layer_metrics, median_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    per_pass = [layer_metrics(p.spans) for p in traced]
    values = median_metrics(per_pass)
    problems = [] if counts_repeat(per_pass) else ["traced counts differ between passes"]
    untraced_s = median(p.total for p in plain)
    values["trace.overhead_frac"] = (median(p.total for p in traced) - untraced_s) / untraced_s
    if workload.name == "cli":
        interp = startup_seconds("pass")
        values["cli.interp_s"] = interp
        values["cli.import_s"] = startup_seconds("import matchvote.cli") - interp
    else:
        values["cli.interp_s"] = 0.0
        values["cli.import_s"] = 0.0
    values["failed_frac"] = 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, problems


def write_result(name: str, payload: dict) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(payload, indent=1, default=str))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=("rules", "exact", "audit", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--freeze", action="store_true",
                        help="record the output digests of the default seed in bench/expected.json")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "matchvote" / "__init__.py").is_file():
        return fail(f"no matchvote sources under {ROOT / 'src'}; run from a checkout of the repository")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    expected = load_expected()
    workload = workloads.build(args.workload, args.seed, args.size, ROOT, in_process_cli=bool(args.trace))
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.freeze:
            return freeze(args, workload, expected)
        return measure(args, workload, expected)
    finally:
        workload.close()


def measure(args: argparse.Namespace, workload, expected: dict) -> int:
    env = environment(args)
    print(json.dumps({"environment": env}))
    setup = [] if args.trace else setup_seconds(args)
    if args.trace:
        plain, traced = run_alternating(workload, args.seconds)
        passes = plain + traced
    else:
        passes = run_untraced(workload, args.seconds)
    default_seed = args.seed == expected["seed"] and args.size == "full"
    problems = check_passes(workload, passes, expected["digests"].get(workload.name, {}), default_seed)
    attempted = len(passes) * len(workload.ops)
    probe_times: list[float] = []
    if not args.trace and workload.probe is not None:
        probe_times, probe_problems = probe_cli(workload, passes[0].outputs)
        problems += probe_problems
        attempted += len(probe_times)
    if args.trace:
        metrics, trace_problems = per_layer(workload, plain, traced)
        problems += trace_problems
        metrics["failed_frac"]["value"] = len(problems) / attempted
    else:
        metrics = end_to_end(workload, passes, setup, probe_times)
    failed = len(problems)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'failed_frac':36s} {failed / attempted:>14.6g} ratio")
    print(f"{failed} of {attempted} operations failed")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "environment": env,
        "result": result,
        "problems": problems,
        "passes": [{"total": p.total, "traced": bool(p.spans), "seconds": p.seconds} for p in passes],
        "setup_s": setup,
        "cli_probe_s": probe_times,
    }
    if args.trace:
        from tracing import solve_records, solve_table

        spans = traced[0].spans
        solves = solve_records(spans)
        record["solve_table"] = solve_table(solves)
        record["solves"] = solves
        record["spans"] = [s.to_dict() for s in spans]
    write_result(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps(result))
    return 0


def freeze(args: argparse.Namespace, workload, expected: dict) -> int:
    """Record the digests of one certified pass on the default seed."""
    from workloads import digest

    if args.seed != DEFAULT_SEED or args.size != "full" or args.trace:
        return fail("--freeze needs the default seed, size full and --trace 0")
    passes = [run_pass(workload)]
    problems = check_passes(workload, passes, None, True)
    if problems:
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
        return fail("refusing to freeze outputs that fail their checks")
    expected = {"seed": DEFAULT_SEED, "digests": dict(expected["digests"])}
    expected["digests"][workload.name] = {op.id: digest(passes[0].outputs[op.id]) for op in workload.ops}
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(workload.ops)} digests for {workload.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
