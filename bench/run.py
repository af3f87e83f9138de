"""Benchmark of bergecolor: a closed loop, one client, one process.

    python3 bench/run.py --workload corpus --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Each pass colors every instance of the workload in an
order drawn from `--seed`, with `color()` at its defaults (jobs=1) or, for
`corpus`, through `bergecolor.cli.main`.  Passes repeat while the next, at
the pace of the last, would end within `--seconds`.  Every answer is checked
by `check.py`, which shares no code with the program.  `--workload-seed`
moves the random draws of `bipartite` and `large` to unseen instances; 0
gives the default set.

With `--trace 0` the last line of output is a JSON object holding the
end-to-end metrics, in seconds at the reference speed of `speed.py`.  With
`--trace 1` each case runs untraced and then traced, and it holds the
per-layer metrics, as measured (README.md says which end-to-end metric each
should move).  The lines before it list every metric with its unit, the failure
rate and a digest of the outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import bergecolor
    from bergecolor import cli, solver

    import check
    import quantile
    import speed
    import tracer
    import workloads
except ImportError as e:
    sys.exit(f"bench: cannot import the program from {SRC}: {e}")
if os.path.dirname(os.path.dirname(os.path.abspath(bergecolor.__file__))) != SRC:
    sys.exit(f"bench: bergecolor was imported from {bergecolor.__file__}, not {SRC}")

# A case over budget is recorded as a timeout.  The budget sits well above
# the slowest instance that finishes (about 5 s), so noise cannot flip it.
BUDGET_S = 15.0
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds; setup_s is the median.
SETUP_REPEATS = 15
SETUP_MIN_S = 3.0
# In an untraced pass a case shorter than this is repeated, up to MAX_REPS
# times, and its time is the median of the repeats: one sample of a short
# case varies by 25% on a shared machine, and the few short cases near the
# median of a small workload would otherwise set its percentiles.
REPEAT_BELOW_S = 0.2
MAX_REPS = 5


class CaseTimeout(BaseException):
    """Raised from the interval timer; a BaseException so that no handler in
    the program can swallow it."""


@dataclass
class Outcome:
    seconds: float
    status: str  # "ok", "timeout", "raise" or "wrong"
    detail: str = ""
    stats: dict = field(default_factory=dict)
    digest: bytes = b""
    reps: int = 1


def _on_alarm(signum, frame):
    raise CaseTimeout()


def _timed(call):
    """(result, seconds); raises CaseTimeout past BUDGET_S."""
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, time.perf_counter() - t0


# counters of SolveStats, also in the `stats` block of the CLI's report
STAT_KEYS = (
    "frames_tried", "frames_pruned", "swaps_applied", "leaf_count", "node_count", "max_depth"
)


def run_library(case, want_digest: bool) -> Outcome:
    events: list = []
    try:
        result, dt = _timed(lambda: solver.color(case.graph, trace=events))
    except CaseTimeout:
        return Outcome(BUDGET_S, "timeout", digest=b"timeout")
    except Exception as e:  # any raise on a valid input is a failure
        return Outcome(BUDGET_S, "raise", f"{type(e).__name__}: {e}")
    colors = result.coloring.colors
    err = check.coloring_error(case.adj, case.omega, colors)
    if err is None and result.colors_used != case.omega:
        err = f"colors_used {result.colors_used}, clique number {case.omega}"
    digest = b""
    if want_digest:
        digest = json.dumps(
            [sorted(colors.items()), solver.tree_to_json(result.tree), events],
            sort_keys=True,
        ).encode()
    if err is not None:
        return Outcome(BUDGET_S, "wrong", err)
    stats = {k: getattr(result.stats, k) for k in STAT_KEYS}
    return Outcome(dt, "ok", stats=stats, digest=digest)


def run_cli(case, workdir: str, want_digest: bool) -> Outcome:
    out = {k: os.path.join(workdir, f"out.{k}") for k in ("sol", "report", "tree", "trace")}
    out["tree"] += ".json"
    argv = [
        "color", case.col_path, "-o", out["sol"], "--report", out["report"],
        "--tree", out["tree"], "--trace", out["trace"],
    ]
    try:
        rc, dt = _timed(lambda: cli.main(argv))
    except CaseTimeout:
        return Outcome(BUDGET_S, "timeout", digest=b"timeout")
    except Exception as e:
        return Outcome(BUDGET_S, "raise", f"{type(e).__name__}: {e}")
    if rc != 0:
        return Outcome(BUDGET_S, "raise", f"exit code {rc}")
    texts = {}
    for k, path in out.items():
        with open(path, encoding="ascii") as fh:
            texts[k] = fh.read()
    try:
        colors = check.parse_solution(texts["sol"])
    except ValueError as e:
        return Outcome(BUDGET_S, "wrong", str(e))
    err = check.coloring_error(case.adj, case.omega, colors)
    report = json.loads(texts["report"])
    if err is None and (report["status"], report["colors_used"]) != ("success", case.omega):
        err = f"report says {report['status']} with {report['colors_used']} colors"
    if err is not None:
        return Outcome(BUDGET_S, "wrong", err)
    stats = {k: report["stats"][k] for k in STAT_KEYS}
    digest = b""
    if want_digest:
        digest = (texts["sol"] + texts["tree"] + texts["trace"]).encode()
    return Outcome(dt, "ok", stats=stats, digest=digest)


@dataclass
class Pass:
    outcomes: dict[int, Outcome]

    def seconds(self, i: int, slowdown: float = 1.0) -> float:
        """Case time divided by the machine's slowdown.  A failed case counts
        at its budget, unscaled."""
        o = self.outcomes[i]
        return o.seconds / slowdown if o.status == "ok" else o.seconds

    def wall(self, slowdown: float = 1.0) -> float:
        return sum(self.seconds(i, slowdown) for i in self.outcomes)

    def stat_sum(self, key: str) -> int:
        return sum(o.stats.get(key, 0) for o in self.outcomes.values())


def run_repeated(case, run_one, want_digest: bool, ref) -> Outcome:
    """Run a case, repeated while short (see REPEAT_BELOW_S); with `ref`,
    the reference kernel runs after each repeat."""
    times: list[float] = []
    first = None
    while True:
        gc.collect()  # each run starts from the same heap state
        o = run_one(case, want_digest and first is None)
        if ref is not None:
            ref.sample(o.seconds)
        if o.status != "ok":
            o.reps = len(times) + 1
            return o
        first = first or o
        times.append(o.seconds)
        if ref is None or sum(times) >= REPEAT_BELOW_S or len(times) == MAX_REPS:
            break
    first.seconds, first.reps = statistics.median(times), len(times)
    return first


@contextmanager
def quiet_stderr():
    """Drop the CLI's progress line."""
    with open(os.devnull, "w") as devnull:
        stderr, sys.stderr = sys.stderr, devnull
        try:
            yield
        finally:
            sys.stderr = stderr


def run_pass(cases, run_one, order: list[int], want_digest: bool, ref=None) -> Pass:
    """One untraced pass; with `ref`, short cases are repeated."""
    with quiet_stderr():
        return Pass({i: run_repeated(cases[i], run_one, want_digest, ref) for i in order})


def run_paired_pass(
    cases, run_one, order: list[int], want_digest: bool, spans
) -> tuple[Pass, Pass]:
    """Each case once untraced, then once traced into `spans`, back to back,
    so that both sides of trace_overhead_s see the same machine speed."""
    plain, traced = {}, {}
    with quiet_stderr():
        for i in order:
            plain[i] = run_repeated(cases[i], run_one, want_digest, None)
            spans.current_instance = i
            with tracer.installed(spans):
                traced[i] = run_repeated(cases[i], run_one, False, None)
    return Pass(plain), Pass(traced)


def digest_of(cases, p: Pass) -> str:
    """SHA-256 over every instance's coloring, tree and swap trace, in
    instance order; reported, not gated."""
    h = hashlib.sha256()
    for i in sorted(p.outcomes):
        h.update(cases[i].name.encode() + b"\0" + p.outcomes[i].digest + b"\0")
    return h.hexdigest()


def instance_latencies_ms(passes: list[Pass], slowdown: float) -> list[float]:
    """Per instance, the median over the passes of its time to a checked
    coloring: one value each, so that the number of passes does not change
    the weight of any instance.  Failed cases count in fail_rate only."""
    out = []
    for i in passes[0].outcomes:
        times = [
            p.seconds(i, slowdown) * 1e3 for p in passes if p.outcomes[i].status == "ok"
        ]
        if times:
            out.append(statistics.median(times))
    return out


def layer_metrics(spans, p: Pass) -> dict[str, tuple[float, str]]:
    layers, sims = tracer.summarize(spans)
    get = lambda name: layers.get(name, tracer.Layer())  # noqa: E731
    nodes, leaves = p.stat_sum("node_count"), p.stat_sum("leaf_count")
    refine, swaps = get("partition.refine_frame"), p.stat_sum("swaps_applied")
    color, cli_main = get("solver.color"), get("cli.main")
    return {
        "graphs.square_s": (get("graphs.require_square_free").total, "s"),
        "graphs.berge_s": (get("graphs.require_berge").total, "s"),
        "graphs.cliques_s": (get("graphs.maximal_cliques_in").total, "s"),
        "graphs.cliques_calls": (get("graphs.maximal_cliques_in").calls, "count"),
        "graphs.omega_s": (get("graphs.omega").total, "s"),
        "graphs.omega_calls": (get("graphs.omega").calls, "count"),
        "partition.search_s": (get("partition.find_good_partition").total, "s"),
        "partition.search_self_s": (get("partition.find_good_partition").self_time, "s"),
        "partition.search_calls": (get("partition.find_good_partition").calls, "count"),
        "partition.sep_s": (get("graphs.component_mask").total, "s"),
        "partition.sep_calls": (get("graphs.component_mask").calls, "count"),
        "partition.refine_s": (refine.total, "s"),
        "partition.refine_calls": (refine.calls, "count"),
        "partition.refine_yield": (
            (nodes - leaves) / refine.calls if refine.calls else 0.0,
            "ratio",
        ),
        "partition.frames_tried": (p.stat_sum("frames_tried"), "count"),
        "partition.frames_pruned": (p.stat_sum("frames_pruned"), "count"),
        "recolor.merge_s": (get("recolor.merge_colorings").total, "s"),
        "recolor.merge_calls": (get("recolor.merge_colorings").calls, "count"),
        "recolor.swap_search_s": (get("recolor.find_reducing_swap").total, "s"),
        "recolor.swaps": (swaps, "count"),
        "recolor.swap_sims": (sims, "count"),
        "recolor.swap_yield": (swaps / sims if sims else 0.0, "ratio"),
        "solver.leaf_s": (get("solver.leaf_color").total, "s"),
        "solver.leaf_calls": (get("solver.leaf_color").calls, "count"),
        "solver.verify_s": (get("solver.verify_coloring").total, "s"),
        "solver.self_s": (color.self_time, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.max_depth": (
            max((o.stats.get("max_depth", 0) for o in p.outcomes.values()), default=0),
            "count",
        ),
        "dimacs.parse_s": (get("dimacs.read_col").total, "s"),
        "cli.self_s": (cli_main.self_time, "s"),
    }


def tracer_mismatch(p: Pass, m: dict) -> str | None:
    """The spans must agree with the program's own counters."""
    nodes, leaves = p.stat_sum("node_count"), p.stat_sum("leaf_count")
    expect = {
        "partition.search_calls": nodes,
        "solver.leaf_calls": leaves,
        "recolor.merge_calls": nodes - leaves,
    }
    for name, want in expect.items():
        if m[name][0] != want:
            return f"{name} is {m[name][0]}, the program's counters give {want}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument(
        "--seed", type=int, default=0, help="seeds the order of instances in each pass"
    )
    ap.add_argument(
        "--seconds", type=float, default=35.0, help="time to keep starting passes"
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=0, help="moves the random draws")
    args = ap.parse_args(argv)

    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    setup_ref = speed.Reference()  # apart from the run's: set-up comes first
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        gc.collect()
        t0 = time.perf_counter()
        cases = workloads.build(args.workload, args.workload_seed)
        setup_times.append(time.perf_counter() - t0)
        setup_ref.sample(setup_times[-1])
    workloads.write_files(cases, workdir)

    if args.workload == "corpus":
        run_one = lambda case, want: run_cli(case, workdir, want)  # noqa: E731
    else:
        run_one = run_library
    rng = random.Random(args.seed)

    def order() -> list[int]:
        idx = list(range(len(cases)))
        rng.shuffle(idx)
        return idx

    ref = None if args.trace else speed.Reference()
    passes: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if args.trace:
            spans = tracer.Spans()
            plain, p = run_paired_pass(cases, run_one, order(), not passes, spans)
            passes.append(plain)
            if not traced:
                spans.dump(os.path.join(workdir, "spans.bin"))
            traced.append((p, layer_metrics(spans, p)))
        else:
            passes.append(run_pass(cases, run_one, order(), not passes, ref))
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > args.seconds:
            break

    all_passes = passes + [p for p, _ in traced]
    runs = [(cases[i], o) for p in all_passes for i, o in p.outcomes.items()]
    attempted = sum(o.reps for _, o in runs)
    failures = [f"{c.name}: {o.status} {o.detail}" for c, o in runs if o.status != "ok"]
    wrong = any(o.status not in ("ok", "timeout") for _, o in runs)
    problems: list[str] = []  # the spans or counters do not add up

    metrics: dict[str, tuple[float, str]] = {}
    info: list[str] = []
    if args.trace:
        for name, (_, unit) in traced[0][1].items():
            values = [m[name][0] for _, m in traced]
            if unit == "s":
                metrics[name] = (statistics.median(values), unit)
            else:  # counts and ratios must repeat exactly from pass to pass
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between passes: {values}")
                metrics[name] = (values[0], unit)
        mismatch = tracer_mismatch(*traced[0])
        if mismatch:
            problems.append(mismatch)
        metrics["trace_overhead_s"] = (
            statistics.median(p.wall() for p, _ in traced)
            - statistics.median(p.wall() for p in passes),
            "s",
        )
        info.append(f"{len(traced)} passes, each case untraced then traced")
    else:
        slow = ref.slowdown()
        lat = instance_latencies_ms(passes, slow)
        lat = lat or [BUDGET_S * 1e3]  # every case failed
        metrics = {
            "setup_s": (statistics.median(setup_times) / setup_ref.slowdown(), "s"),
            "wall_s": (statistics.median(p.wall(slow) for p in passes), "s"),
            "latency_p50_ms": (quantile.harrell_davis(lat, 0.5), "ms"),
            "latency_p90_ms": (quantile.harrell_davis(lat, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw_wall = statistics.median(p.wall() for p in passes)
        info += [
            f"{len(passes)} passes over {len(cases)} instances;"
            f" latency percentiles over {len(lat)} per-instance medians",
            f"reference slowdown {slow:.4f}, in set-up {setup_ref.slowdown():.4f};"
            f" as measured, setup_s"
            f" {statistics.median(setup_times):.6f} and wall_s {raw_wall:.6f}",
        ]
    info.append(
        f"fail_rate {len(failures) / attempted} ({len(failures)} of {attempted} colorings)"
    )
    info.append(f"output_sha256 {digest_of(cases, passes[0])}")

    print(f"workload {args.workload}, seed {args.seed}, workload seed {args.workload_seed}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else value
        print(f"  {name:28s} {shown:>16} {unit}")
    for line in info:
        print(f"  {line}")
    for line in failures[:20] + problems:
        print(f"  FAIL {line}", file=sys.stderr)
    correct = not wrong and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
