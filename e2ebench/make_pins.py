"""Regenerate ``e2ebench/pins.json``: the outputs of the pinned seed.

Run from the repository root (takes a few minutes)::

    python3 e2ebench/make_pins.py [WORKLOAD ...]

Named workloads are re-pinned (default: all); the others keep their
pins.

Every pinned output is computed three ways before it is written: the
default configuration, the pure-Python backend (``use_backend("python")``)
and the unanalyzed path (``analysis_disabled()``).  ``serve-dynamic``
compares the store-attached answers with store-less replicas of the
graph.  Any disagreement aborts without writing.  The workloads' own
seed-independent checks run on every pinned op as well.
"""

import json
import sys

sys.dont_write_bytecode = True  # keep e2ebench/ free of build output

import run  # noqa: E402

PIN_SEED = 0
SERVE_STEPS = 400


def crosscheck(label, compute):
    """``compute()`` under the default, python-backend and unanalyzed
    configurations; all three must agree."""
    from repro import analysis_disabled
    from repro.engine.backend import use_backend

    default = compute()
    with use_backend("python"):
        python = compute()
    with analysis_disabled():
        unanalyzed = compute()
    if not default == python == unanalyzed:
        raise SystemExit(f"make_pins: {label}: configurations disagree")
    return default


def evaluation_pins(workload):
    from repro import evaluate
    from repro.engine.cache import invalidate_engine_caches
    from workloads import digest

    pins = {}
    for index in range(workload.cycle):
        key, graph, query, semantics = workload._op(index)

        def compute():
            invalidate_engine_caches(graph)
            return evaluate(query, graph, semantics)

        answers = crosscheck(key, compute)
        workload.check(index, answers)
        pins[key] = [len(answers), digest(answers)]
    return pins


def serve_pins(workload):
    import inputs
    from repro import evaluate, evaluate_batch
    from workloads import step_digest

    replica = workload.graph.copy()
    pins = []
    for index in range(SERVE_STEPS):
        semantics, names = workload.schedule[index % workload.cycle]
        batch = next(workload.stream)
        inputs.apply_batch(workload.graph, batch)
        inputs.apply_batch(replica, batch)
        queries = workload._queries(names)
        results = evaluate_batch(queries, workload.graph, semantics)
        expected = crosscheck(
            f"step {index}",
            lambda: [evaluate(query, replica.copy(), semantics)
                     for query in queries])
        if results != expected:
            raise SystemExit(f"make_pins: step {index}: store-attached "
                             f"answers differ from the replica")
        workload.check(index, semantics, names, results)
        pins.append(step_digest(results))
    return pins


def contain_pins(workload):
    from repro import contains

    verdicts = []
    for index, (q1, q2, semantics) in enumerate(workload.pairs):
        result = contains(q1, q2, semantics)
        crosscheck(f"pair {index}",
                   lambda: contains(q1, q2, semantics).verdict)
        workload.check(index, result)
        verdicts.append(result.verdict.value[0])
    return "".join(verdicts)


def main():
    run.use_checkout()
    from workloads import WORKLOADS

    makers = {"st-bulk": evaluation_pins, "inj-search": evaluation_pins,
              "serve-dynamic": serve_pins, "contain": contain_pins}
    names = sys.argv[1:] or list(makers)
    pins = (json.loads(run.PINS.read_text()) if run.PINS.exists()
            else {"seed": PIN_SEED})
    for name in names:
        make = makers[name]
        workload = WORKLOADS[name](PIN_SEED)
        workload.setup()
        pins[name] = make(workload)
        print(f"{name}: pinned {len(pins[name])} outputs", file=sys.stderr)
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
