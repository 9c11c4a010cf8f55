"""End-to-end CRPQ benchmark: one seeded, single-process, closed-loop
workload per run against the public API, with every answer checked.

Run from the repository root::

    python3 e2ebench/run.py --workload st-bulk --seed 0 --seconds 20 --trace 0

Workloads: ``st-bulk``, ``inj-search``, ``serve-dynamic``, ``contain``
(``e2ebench/README.md`` says why each exists).  ``--trace 0`` times the
public entry points with tracing off and reports the end-to-end
metrics; ``--trace 1`` replays each op through the layers' public
functions with one span per call, reports the per-layer metrics and
writes the spans to ``.e2ebench_out/``.  A table goes to standard
output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 whenever the run completed, including runs with failed ops.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".e2ebench_out"
PINS = BENCH_DIR / "pins.json"

#: Set-ups measured per untraced run (this process plus fresh ones).
SETUP_RUNS = 3
#: An untraced run samples at least this many read ops, so p90 has ten
#: beyond it.
MIN_OPS = 100
#: A run stops issuing ops after this long even below its op floor,
#: so a run ends within three minutes even on a much slower program.
HARD_CAP_S = 120.0

#: Span name -> its busy-time metric and, where it has one, its row
#: count metric.  A busy metric is the median, over the ops that pass
#: through the layer, of the layer's self time in the op.
LAYERS = (
    ("regular.compile", "regular.compile_ms", None),
    ("engine.analyze", "engine.analyze.busy_ms", None),
    ("engine.adjacency", "engine.adjacency.busy_ms", None),
    ("engine.product", "engine.product.busy_ms", "engine.product.pairs_out"),
    ("graphdb.paths", "graphdb.paths.busy_ms", "graphdb.paths.pairs_out"),
    ("engine.relations", "engine.relations.busy_ms", "engine.relations.rows"),
    ("engine.planner.plan", "engine.planner.plan_busy_ms", None),
    ("engine.planner.execute", "engine.planner.execute_busy_ms",
     "engine.planner.rows_out"),
    ("engine.qinj.plan", "engine.qinj.plan_busy_ms", None),
    ("engine.qinj.search", "engine.qinj.search_busy_ms", None),
    ("engine.incremental.refresh", "engine.incremental.refresh_busy_ms",
     None),
    ("engine.batch.plan", "engine.batch.plan_busy_ms", None),
    ("engine.batch.warm", "engine.batch.warm_busy_ms", None),
    ("engine.batch.results", "engine.batch.results_busy_ms", None),
    ("containment.finite_left", "containment.finite_left.busy_ms", None),
    ("containment.abstraction", "containment.abstraction.busy_ms", None),
)


def use_checkout():
    """Import the program from this checkout's ``src``.  Bytecode is
    always cached, in the output directory rather than next to the
    sources, so set-up time does not depend on the environment."""
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(OUT_DIR / "pycache")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("st-bulk", "inj-search", "serve-dynamic",
                                 "contain"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit "
                             "(one sample of setup_s)")
    return parser.parse_args(argv)


def environment():
    """What the numbers were measured on; read, never set."""
    from repro.engine.backend import active_backend

    return {
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "backend": active_backend().name,
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def load_pins(workload, seed):
    """The pinned outputs of ``workload`` when ``seed`` is the pinned
    seed, else ``None`` (only the seed-independent checks apply)."""
    pins = json.loads(PINS.read_text())
    return pins[workload] if seed == pins["seed"] else None


def quantile(values, fraction):
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def run_ops(seconds, min_ops, one_op):
    """Closed loop: issue ops until ``seconds`` have passed and at least
    ``min_ops`` were attempted.  Returns the number attempted,
    ``{index: result}`` and ``{index: error message}`` of the failed
    ops."""
    results, errors = {}, {}
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index >= min_ops) or elapsed >= HARD_CAP_S:
            break
        try:
            results[index] = one_op(index)
        except Exception as error:  # a failed op is counted, not fatal
            errors[index] = f"op {index}: {type(error).__name__}: {error}"
        index += 1
    return index, results, errors


def setup_samples(args, first):
    """``SETUP_RUNS`` set-up times: this process's, then fresh ones."""
    samples = [first]
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    for _ in range(SETUP_RUNS - 1):
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=120, check=True)
        samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return samples


def untraced(args, workload, setup_first):
    attempted, results, errors = run_ops(args.seconds, MIN_OPS,
                                         workload.step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_samples(args, setup_first)
    reads = [read for read, _write in results.values()]
    writes = [write for _read, write in results.values() if write is not None]
    cycles = {}
    for index, (read, write) in results.items():
        cycles.setdefault(index // workload.cycle, []).append(
            read + (write or 0.0))
    # The median over whole cycles, so a rare pathological op (one
    # containment pair can take a second) does not swing the rate.
    whole = [sum(times) for times in cycles.values()
             if len(times) == workload.cycle]
    ops_per_s = (statistics.median(workload.cycle / t for t in whole)
                 if whole else len(reads) / max(sum(reads), 1e-9))
    samples = len(reads)
    p90 = quantile(reads, 0.9) if reads else 0.0
    rows = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups: "
         + ", ".join(f"{s:.3f}" for s in setups)),
        ("op_p50_ms", statistics.median(reads) * 1e3 if reads else 0.0,
         "ms", f"n={samples}"),
        ("op_p90_ms", p90 * 1e3, "ms",
         f"n={samples}, {sum(r > p90 for r in reads)} beyond"),
        ("ops_per_s", ops_per_s, "1/s",
         f"median over {len(whole)} whole cycles of {workload.cycle} ops"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process"),
    ]
    extra = []
    if writes:
        extra += [
            ("write_p50_ms", statistics.median(writes) * 1e3, "ms",
             f"n={len(writes)}"),
            ("write_p90_ms", quantile(writes, 0.9) * 1e3, "ms",
             f"n={len(writes)}"),
        ]
    extra.append(("failed_frac", len(errors) / max(attempted, 1), "ratio",
                  f"{len(errors)}/{attempted}"))
    print_table("end-to-end (tracing off)", rows + extra)
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _note in rows}
    return attempted, errors, metrics


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------


def registry_counters():
    from repro import metrics_registry

    return {name: snap["value"]
            for name, snap in metrics_registry().snapshot().items()
            if snap["type"] == "counter"}


def traced(args, workload):
    from spans import Tracer

    tracer = Tracer(registry_counters)
    timings = {}

    def one_op(index):
        tracer.op = index
        timings[index] = workload.staged(index, tracer.span)

    attempted, _results, errors = run_ops(args.seconds, workload.cycle,
                                          one_op)
    own = tracer.self_times()
    ops = {}
    for span in tracer.spans:
        op = ops.setdefault(span["op"], {"busy": {}, "rows": {}})
        op["busy"][span["name"]] = (op["busy"].get(span["name"], 0.0)
                                    + own[span["id"]])
        op["rows"][span["name"]] = (op["rows"].get(span["name"], 0)
                                    + span.get("rows", 0))
        if span["parent"] is None:
            op[span["name"] + ".total"] = span["end"] - span["start"]
    op_totals = [op["op.total"] for op in ops.values() if "op.total" in op]
    total_op = sum(op_totals) or 1.0
    rows = []

    def busy_row(span_name, metric, count_metric):
        values = [op["busy"][span_name] for op in ops.values()
                  if span_name in op["busy"]]
        share = sum(values) / total_op * 100
        rows.append((metric, statistics.median(values) * 1e3 if values else 0.0,
                     "ms", f"{len(values)} ops"))
        rows.append((metric[:-len("_ms")] + "_share", share, "%",
                     "of staged op time"))
        if count_metric:
            counts = [op["rows"][span_name] for op in ops.values()
                      if span_name in op["rows"]]
            rows.append((count_metric,
                         statistics.median(counts) if counts else 0, "count",
                         "median per op"))

    for span_name, metric, count_metric in LAYERS:
        busy_row(span_name, metric, count_metric)
    writes = [op["graphdb.write.total"] for op in ops.values()
              if "graphdb.write.total" in op]
    rows.append(("graphdb.write_busy_ms",
                 statistics.median(writes) * 1e3 if writes else 0.0, "ms",
                 f"{len(writes)} writes"))
    residual = [op["busy"]["op"] for op in ops.values() if "op" in op["busy"]]
    rows.append(("residual.busy_ms",
                 statistics.median(residual) * 1e3 if residual else 0.0,
                 "ms", "staged op time not inside a layer span"))
    rows.append(("residual.busy_share", sum(residual) / total_op * 100, "%",
                 "of staged op time"))

    delta = tracer.counter_deltas.get
    num_ops = max(len(op_totals), 1)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    planner_base = sum(op["rows"].get("engine.relations", 0)
                       for op in ops.values()
                       if "engine.planner.execute" in op["busy"])
    rows += [
        ("engine.planner.semijoin_removed_ratio",
         ratio(delta("planner.semijoin.rows_removed", 0), planner_base),
         "ratio", "semijoin rows removed / base rows"),
        ("engine.planner.cyclic_components",
         delta("planner.components.cyclic", 0) / num_ops, "count/op", ""),
        ("engine.planner.matcher_fallbacks",
         delta("planner.fallback.matcher", 0) / num_ops, "count/op", ""),
        ("engine.qinj.pruned_empty",
         delta("qinj.pruned_empty", 0) / num_ops, "count/op", ""),
        ("engine.cache.result_hit_ratio",
         ratio(delta("cache.result.hits", 0),
               delta("cache.result.hits", 0) + delta("cache.result.misses", 0)),
         "ratio", "hits / lookups"),
        ("engine.cache.relation_hit_ratio",
         ratio(delta("cache.relation.hits", 0),
               delta("cache.relation.hits", 0)
               + delta("cache.relation.misses", 0)),
         "ratio", "hits / lookups"),
        ("engine.incremental.maintained_ratio",
         ratio(delta("incremental.maintained", 0),
               delta("incremental.built", 0) + delta("incremental.maintained", 0)
               + delta("incremental.rebuilt", 0)),
         "ratio", "maintained / (built + maintained + rebuilt)"),
        ("engine.incremental.results_reused",
         delta("incremental.results_reused", 0) / num_ops, "count/op", ""),
        ("engine.batch.shared_atom_ratio",
         ratio(delta("batch.atoms.shared", 0), delta("batch.atoms.total", 0)),
         "ratio", "shared atoms / atoms"),
    ]
    evaluate_s = [t["evaluate_s"] for t in timings.values()
                  if "evaluate_s" in t]
    overhead = [t["traced_s"] / t["evaluate_s"] for t in timings.values()
                if "traced_s" in t]
    rows += [
        ("engine.telemetry.trace_overhead_x",
         statistics.median(overhead) if overhead else 0.0, "x",
         "evaluate(trace=True) / evaluate, per op"),
        ("op.staged_ms", statistics.median(op_totals) * 1e3 if op_totals
         else 0.0, "ms", f"n={len(op_totals)}"),
        ("op.untraced_ms", statistics.median(evaluate_s) * 1e3 if evaluate_s
         else 0.0, "ms", "the public entry point, same ops, tracing off"),
    ]
    print_table("per layer (staged, traced)", rows)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "environment": environment(), "spans": tracer.spans,
        "counter_deltas": tracer.counter_deltas,
        "entry_point_timings": timings,
    }))
    print(f"spans: {len(tracer.spans)} written to "
          f"{trace_file.relative_to(ROOT)}")
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _note in rows}
    return attempted, errors, metrics


def print_table(title, rows):
    print(f"-- {title}")
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>14.4f} {unit:<9} {note}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no program source at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    use_checkout()
    from workloads import WORKLOADS

    pins = None if args.setup_only else load_pins(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed, pins)
    workload.setup()
    gc.collect()
    setup_first = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment()))
    if args.trace:
        attempted, errors, metrics = traced(args, workload)
    else:
        attempted, errors, metrics = untraced(args, workload, setup_first)
    print("inputs: " + json.dumps(workload.totals))
    for message in list(errors.values())[:5]:
        print(f"FAILED {message}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
