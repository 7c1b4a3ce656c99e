"""Benchmark of the skewloop library: exact structure computations, timed end
to end and per layer, with every exact output checked.

Run from the repository root, e.g.

    python3 bench/run.py --workload groups --seed 0 --seconds 36 --trace 0

Workloads (see workloads.py and BENCHMARK.json): groups, structure, census.
A run repeats "passes" while the time budget allows.  Each pass runs in a
fresh interpreter, as a CLI call would: it imports skewloop and builds the
workload's towers and semifields (the set-up), then runs the workload's
fixed query list.  Every query's result is checked against the paper's
invariants; on the default seed it is also compared with the stored outputs
in bench/expected/.

All times are in reference seconds (speed.py): each pass samples the speed
of its core while it runs and scales wall time by it, so that the host's
load drifting between runs does not read as a change of the program.  Raw
wall times are printed beside them and kept in .bench_out/.

--trace 0 reports the end-to-end metrics: wall_s (median pass), query_max_s
(slowest query, median over passes), setup_s (median set-up, at least three
samples) and peak_rss_mb (median over passes).  --trace 1 alternates
untraced and traced passes and reports per-layer metrics from the call spans.
Every run writes its stamp, metrics and (traced) spans to .bench_out/.  The
last line of standard output is the JSON result.

Seed 0 is the default seed, whose outputs are stored; seed 1 is held out for
confirming performance claims and is not to be tuned against.  After an
intended change of outputs, `--record-expected` (default seed only) stores
the new outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from checks import expected
from spans import QUERY, Recorder, Span, nesting_problems, self_times
from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 0
DEFAULT_SECONDS = 36
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("groups", "structure", "census")

LAYERS = ("gf", "skewpoly", "semifield", "loops", "permgroup", "autgroup", "census")
TIMED_CALLS = (
    "gf.make_tower",
    "skewpoly.enumerate_admissible", "skewpoly.is_admissible",
    "semifield.analysis_json", "semifield.inverses", "semifield.nuclei_bruteforce",
    "loops.build_loop", "loops.mlt_group", "loops.inn_group", "loops.cyclicity",
    "loops.subloops_and_lagrange",
    "permgroup.contains",
    "autgroup.solve_aut_conditions", "autgroup.inner_automorphisms",
    "census.count_irreducible_enum", "census.gammaL_orbit_count",
    "census.similarity_classes",
)
EXACT_COUNTS = ("permgroup.base_len", "permgroup.strong_gens", "autgroup.candidates",
                "autgroup.found", "census.pairs_tested")


class ProbeFailed(RuntimeError):
    pass


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
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


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "skewloop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    import numpy
    import sympy

    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_sha": git_sha(), "src_sha256": src_digest()}


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One pass, run in a fresh interpreter as a CLI user would: its set-up
    time and wall time in reference seconds (see speed.py), its raw wall
    time, the median time of the speed probe's loop, peak memory and what its
    recorders collected."""

    def __init__(self, record: dict):
        self.trace: bool = record["trace"]
        self.setup_s: float = record["setup_s"]
        self.wall: float = record["wall"]
        self.raw_wall: float = record["raw_wall"]
        self.loop_s: float = record["loop_s"]
        self.peak_rss_mb: float = record["peak_rss_mb"]
        self.query_s: dict[str, float] = record["query_s"]
        self.outputs: dict = record["outputs"]
        self.counts = Counter(record["counts"])
        self.failures: dict[str, list[str]] = record["failures"]
        self.notes: dict = record["notes"]
        self.spans = [Span(**s) for s in record["spans"]]


def pass_record(srec, rec, setup: tuple[float, float], run: tuple[float, float],
                probe: SpeedProbe | None = None) -> dict:
    """The JSON form of a pass: set-up recorder `srec`, pass recorder `rec`,
    the perf_counter readings around set-up and run, and the speed samples
    taken meanwhile.  Times and span timestamps are in reference seconds;
    without a probe they are left as read."""
    clock = probe.clock() if probe else (lambda t: t)

    def span(s: Span) -> dict:
        return {**asdict(s), "start": clock(s.start), "end": clock(s.end)}

    return {"trace": rec.trace,
            "setup_s": clock(setup[1]) - clock(setup[0]),
            "wall": clock(run[1]) - clock(run[0]),
            "raw_wall": run[1] - run[0],
            "loop_s": statistics.median(probe.loop_seconds()) if probe else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "query_s": {q: clock(b) - clock(a) for q, (a, b) in rec.query_at.items()},
            "outputs": rec.outputs,
            "counts": dict(srec.counts + rec.counts),
            "failures": {qid: msgs for qid, msgs in rec.failures.items() if msgs},
            "notes": rec.notes, "spans": [span(s) for s in srec.spans + rec.spans]}


def build_inputs(workload: str, seed: int, trace: bool):
    """(set-up recorder, inputs): the workload's towers and semifields."""
    from workloads import WORKLOADS

    srec = Recorder(workload, trace)
    with srec.query("setup"):
        inputs = WORKLOADS[workload][0](srec, seed)
    if srec.failed_queries():
        raise ProbeFailed("\n".join(srec.failures["setup"]))
    return srec, inputs


def pass_probe(workload: str, seed: int, trace: bool) -> dict:
    """Set up (import skewloop included) and run one pass in this process."""
    with SpeedProbe() as probe:
        t0 = perf_counter()
        srec, inputs = build_inputs(workload, seed, trace)
        t1 = perf_counter()
        from workloads import WORKLOADS

        gc.collect()
        rec = Recorder(workload, trace)
        t2 = perf_counter()
        WORKLOADS[workload][1](rec, inputs)
        t3 = perf_counter()
    return pass_record(srec, rec, (t0, t1), (t2, t3), probe)


def child(workload: str, seed: int, *flags: str) -> str:
    """Last line of standard output of this script run with `flags` in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *flags,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ProbeFailed(f"{' '.join(flags)} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def run_passes(workload: str, seed: int, trace: bool, seconds: float) -> list[Pass]:
    """Rounds of passes (untraced, then traced when tracing) until the next
    round would overrun the budget; at least one round."""
    modes = (False, True) if trace else (False,)
    passes: list[Pass] = []
    start = perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            passes.append(Pass(json.loads(child(workload, seed, "--pass-probe",
                                                "--trace", str(int(mode))))))
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return passes


def setup_samples(workload: str, seed: int, passes: list[Pass]) -> list[float]:
    """Set-up times of the untraced passes, topped up to SETUP_SAMPLES by
    set-up-only runs in fresh interpreters."""
    out = [p.setup_s for p in passes if not p.trace]
    while len(out) < SETUP_SAMPLES:
        out.append(float(child(workload, seed, "--setup-probe")))
    return out


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time in reference seconds."""
    with SpeedProbe() as probe:
        start = perf_counter()
        build_inputs(workload, seed, trace=False)
        end = perf_counter()
    clock = probe.clock()
    return clock(end) - clock(start)


# ---------------------------------------------------------------------------
# checks across passes


def verify(passes: list[Pass], workload: str, seed: int) -> tuple[int, int, list[str]]:
    """(queries attempted, queries failed, problems) over all passes."""
    problems: list[str] = []
    stored = None
    if seed == DEFAULT_SEED:
        path = EXPECTED / f"{workload}.json"
        if path.is_file():
            stored = json.loads(path.read_text())["outputs"]
        else:
            problems.append(f"no stored outputs at {path}; run with --record-expected")
    first = passes[0]
    attempted = failed = 0
    for p in passes:
        bad = {qid: msgs[0] for qid, msgs in p.failures.items()}
        for qid, out in p.outputs.items():
            if out != first.outputs.get(qid):
                bad.setdefault(qid, "output differs between passes")
        if stored is not None:
            for qid, msg in expected(p.outputs, stored).items():
                bad.setdefault(qid, msg)
        if p.counts != first.counts:
            problems.append(f"counts differ between passes: {dict(p.counts)}")
        problems += nesting_problems(p.spans)
        attempted += len(p.query_s)
        failed += len(bad)
        for qid, msg in sorted(bad.items())[:10]:
            print(f"FAILED {workload} {qid}: {msg}", file=sys.stderr)
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    per_query = {q: statistics.median(p.query_s.get(q, 0.0) for p in passes)
                 for q in passes[0].query_s}
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "query_max_s": max(per_query.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, its set-up included.

    `<module>.<function>.s` is the self time of that call's spans and
    `layer.<module>.s` sums a module's calls.  Rates divide a count derived
    from input sizes (|K|^m candidates, 3|S|^3 associators, N^2 table entries,
    2N sifts) by the time of the call that did the work.
    `census.sandler_direct.s` is the whole time of the gcd-criterion queries,
    the direct admissibility scan included.  `trace.coverage_frac` is the
    share of traced query time spent inside library calls.  Layers the
    workload bypasses read 0."""
    spans = p.spans
    own = self_times(spans)
    counts = p.counts
    t = {name: own.get(name, 0.0) for name in TIMED_CALLS}
    m = {f"{name}.s": t[name] for name in TIMED_CALLS}
    m["gf.make_tower.calls"] = sum(1 for s in spans if s.name == "gf.make_tower")
    m["skewpoly.candidates_per_s"] = ratio(counts["skewpoly.candidates"],
                                           t["skewpoly.enumerate_admissible"])
    m["skewpoly.admissible_yield"] = ratio(counts["skewpoly.admissible"],
                                           counts["skewpoly.candidates"])
    m["semifield.assoc_per_s"] = ratio(counts["semifield.associators"],
                                       t["semifield.nuclei_bruteforce"])
    m["loops.table_entries_per_s"] = ratio(counts["loops.table_entries"], t["loops.build_loop"])
    m["permgroup.sifts_per_s"] = ratio(counts["permgroup.sifts"], t["permgroup.contains"])
    for name in EXACT_COUNTS:
        m[name] = counts[name]
    m["autgroup.yield"] = ratio(counts["autgroup.found"], counts["autgroup.candidates"])
    m["census.sandler_direct.s"] = sum(s.seconds for s in spans
                                       if s.name == QUERY and s.qid.startswith("sandler("))
    for layer in LAYERS:
        m[f"layer.{layer}.s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    traced = sum(s.seconds for s in spans if s.name == QUERY)
    m["trace.coverage_frac"] = ratio(traced - own.get(QUERY, 0.0), traced)
    return m


def per_layer(passes: list[Pass]) -> dict[str, float]:
    traced = [layer_metrics(p) for p in passes if p.trace]
    out = {k: statistics.median(d[k] for d in traced) for k in traced[0]}
    untraced = statistics.median(p.wall for p in passes if not p.trace)
    out["trace.overhead_frac"] = statistics.median(
        p.wall for p in passes if p.trace) / untraced - 1
    return out


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="store this run's outputs as the default seed's expected outputs")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pass-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skewloop" / "__init__.py").is_file():
        print(f"error: no skewloop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.pass_probe:
        print(json.dumps(pass_probe(args.workload, args.seed, bool(args.trace))))
        return 0
    if args.record_expected and args.seed != DEFAULT_SEED:
        print("error: --record-expected stores the default seed only", file=sys.stderr)
        return 2

    info = stamp(args)
    print("stamp " + json.dumps(info, sort_keys=True))
    passes = run_passes(args.workload, args.seed, bool(args.trace), args.seconds)
    setup = [] if args.trace else setup_samples(args.workload, args.seed, passes)
    if args.record_expected:
        EXPECTED.mkdir(exist_ok=True)
        (EXPECTED / f"{args.workload}.json").write_text(json.dumps(
            {"seed": args.seed, "outputs": passes[0].outputs}, indent=1, sort_keys=True) + "\n")
    attempted, failed, problems = verify(passes, args.workload, args.seed)
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setup)
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} not as BENCHMARK.json declares")
    notes = passes[0].notes
    for label, ref in notes.get("sl_reference", {}).items():
        print(f"sl_reference {label}: |Mlt| {ref['mlt']} vs {ref['mlt_sl_reference']} "
              f"(x{ref['mlt_ratio']:g}), |Inn| {ref['inn']} vs {ref['inn_sl_reference']} "
              f"(x{ref['inn_ratio']:g})")
    print(f"passes {len(passes)}, reference s / raw s / loop ms: " + " ".join(
        f"{p.wall:.3f}/{p.raw_wall:.3f}/{p.loop_s * 1e3:.3f}{'t' if p.trace else ''}"
        for p in passes))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units.get(name)}")
    for problem in problems[:20]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = {"stamp": info, "result": result, "notes": notes,
              "setup_samples_s": setup, "pass_walls_s": [p.wall for p in passes],
              "raw_pass_walls_s": [p.raw_wall for p in passes],
              "loop_s": [p.loop_s for p in passes],
              "query_s": [p.query_s for p in passes],
              "spans": [asdict(s) for p in passes for s in p.spans]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
