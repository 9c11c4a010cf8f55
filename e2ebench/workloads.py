"""The four workloads: set-up, the timed read op, the staged (traced)
replay of that op, and the output checks.

A workload is a closed loop with one client: ``step(index)`` issues one
read op (after one write on ``serve-dynamic``) and returns only when it
has completed.  ``staged(index, span)`` replays the same op by calling
the layers' public functions in the order ``evaluate`` /
``evaluate_batch`` / ``contains`` call them, bottom-up, so each call
finds the layers below it already cached and its span holds only its
own work.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import time

from repro import contains, containment_cell, evaluate, evaluate_batch
from repro.containment.abstraction import contains_abstraction
from repro.containment.finite_left import contains_finite_left
from repro.containment.result import Verdict
from repro.engine.adjacency import adjacency_index
from repro.engine.analyze import analyzed_disjuncts
from repro.engine.batch import BatchError, BatchExecutor, QueryBatch
from repro.engine.cache import (
    clear_analysis_cache,
    clear_compilation_caches,
    compiled_nfa,
    invalidate_engine_caches,
)
from repro.engine.incremental import IncrementalRelationStore
from repro.engine.planner import plan_eps_free
from repro.engine.qinj import plan_qinj
from repro.engine.relations import relation_for
from repro.queries.crpq import QueryClass
from repro.semantics.evaluation import in_evaluation
from repro.semantics.rpq import atom_relation_kind, relation_by_kind

import inputs
from inputs import AINJ, QINJ, ST

def digest(answers):
    """Order-independent fingerprint of an answer set."""
    text = repr(sorted(answers, key=repr))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def step_digest(results):
    """Fingerprint of one ``serve-dynamic`` step's ordered results."""
    text = "|".join(digest(answers) for answers in results)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


class CheckFailed(Exception):
    """An op's output disagreed with a pin, a reference or an
    invariant."""


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - start


def _rng(seed, stream):
    return random.Random(f"{seed}:{stream}")


# ----------------------------------------------------------------------
# The staged evaluate
# ----------------------------------------------------------------------


def staged_evaluate(query, graph, semantics, span):
    """``evaluate(query, graph, semantics)`` decomposed into its layers
    (``query`` is a CRPQ or a tuple of CRPQs, a union).

    Mirrors :func:`repro.semantics.evaluation.evaluate`: analyze, then
    per analyzed disjunct the atom relations (NFA, adjacency, walk
    kernel or simple-path search, indexed table) and the glue (join
    planner for st / a-inj, relation-guided search for q-inj).  The
    per-disjunct result cache is not consulted: every table is built
    once here and the glue runs on it.
    """
    with span("engine.analyze"):
        disjuncts = analyzed_disjuncts(query, semantics)
    with span("regular.compile"):
        nfas = [[compiled_nfa(atom.language) for atom in disjunct.atoms]
                for disjunct in disjuncts]
    with span("engine.adjacency"):
        adjacency_index(graph)
    answers = set()
    for disjunct, disjunct_nfas in zip(disjuncts, nfas):
        for atom, nfa in zip(disjunct.atoms, disjunct_nfas):
            # q-inj prunes with the standard relation; a-inj simple-path
            # search prunes its candidate pairs with it too.
            kind = atom_relation_kind(atom, semantics) or "standard"
            if kind in ("standard", "simple-path"):
                with span("engine.product") as record:
                    record["rows"] = len(
                        relation_by_kind(graph, nfa, "standard"))
            if kind != "standard":
                with span("graphdb.paths") as record:
                    record["rows"] = len(relation_by_kind(graph, nfa, kind))
        for atom in disjunct.atoms:
            with span("engine.relations") as record:
                record["rows"] = len(relation_for(graph, atom, semantics))
        if semantics is QINJ:
            with span("engine.qinj.plan"):
                plan = plan_qinj(disjunct, graph)
            with span("engine.qinj.search"):
                rows = plan.answers()
        else:
            with span("engine.planner.plan"):
                plan = plan_eps_free(disjunct, graph, semantics)
            with span("engine.planner.execute") as record:
                rows = plan.answers()
                record["rows"] = len(rows)
        answers |= rows
    return frozenset(answers)


def staged_batch(queries, graph, semantics, store, span):
    """``evaluate_batch(queries, graph, semantics)`` decomposed:
    adjacency, batch plan, the store's maintenance refresh of every
    standard relation the batch reads, warm-up of the remaining atom
    relations, then the per-query glue."""
    with span("engine.adjacency"):
        adjacency_index(graph)
    executor = BatchExecutor(graph, semantics)
    batch = QueryBatch(queries)
    with span("engine.batch.plan"):
        plan = executor.plan(batch)
    with span("engine.incremental.refresh"):
        for job in plan.jobs:
            if job.kind in ("standard", "simple-path"):
                store.standard_relation(job.nfa)
    with span("engine.batch.warm"):
        executor.warm(batch)
    with span("engine.batch.results"):
        return [answers for _index, _query, answers
                in executor.results(batch, warmed=True)]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """One seeded workload.  Subclasses fill in the op schedule."""

    name = ""
    #: Ops per schedule cycle; throughput is taken per whole cycle.
    cycle = 1
    #: Collect garbage (untimed) before every ``gc_every``-th op.
    gc_every = 1

    def __init__(self, seed, pins=None):
        self.seed = seed
        self.pins = pins
        self.totals = {}

    def setup(self):
        """Build the inputs and warm up; everything before the first
        timed op."""
        raise NotImplementedError

    def step(self, index):
        """Run op ``index`` untraced.  Returns ``(read_s, write_s)``
        (``write_s`` is ``None`` without a write); raises on a failed
        op or check."""
        raise NotImplementedError

    def staged(self, index, span):
        """Replay op ``index`` through its layers under ``span``
        records.  Returns ``{"evaluate_s", "traced_s"}`` timings of the
        untraced / ``trace=True`` entry point on the same op, where one
        exists."""
        raise NotImplementedError

    def _maybe_collect(self, index):
        if index % self.gc_every == 0:
            gc.collect()


class _EvaluationWorkload(Workload):
    """Static graphs and a fixed list of ``(name, query, semantics)``
    ops, each run cold: graph-scoped caches are dropped before the op,
    the cost of the first query after a load or a mutation.  The ops
    run on one graph, then on the next of ``GRAPHS`` graphs drawn from
    the seed, so a run's medians average over several inputs instead of
    resting on one draw; a cycle covers every op on every graph."""

    ops = ()
    GRAPHS = 3

    def __init__(self, seed, pins=None):
        super().__init__(seed, pins)
        self.graphs = []
        self.seen = {}
        self.cycle = len(self.ops) * self.GRAPHS

    def _op(self, index):
        """``(key, graph, query, semantics)`` of op ``index``."""
        number = (index // len(self.ops)) % self.GRAPHS
        name, query, semantics = self.ops[index % len(self.ops)]
        return (f"g{number}:{name}/{semantics}", self.graphs[number], query,
                semantics)

    def setup(self):
        rng = _rng(self.seed, "graphs")
        self.graphs = [self.build_graph(rng) for _ in range(self.GRAPHS)]
        for index in range(len(self.ops)):
            _key, graph, query, semantics = self._op(index)
            invalidate_engine_caches(graph)
            evaluate(query, graph, semantics)
        self.totals = {"nodes": [g.node_count() for g in self.graphs],
                       "edges": [g.edge_count() for g in self.graphs]}

    def step(self, index):
        _key, graph, query, semantics = self._op(index)
        invalidate_engine_caches(graph)
        self._maybe_collect(index)
        answers, seconds = _timed(evaluate, query, graph, semantics)
        invalidate_engine_caches(graph)
        self.check(index, answers)
        return seconds, None

    def staged(self, index, span):
        key, graph, query, semantics = self._op(index)
        invalidate_engine_caches(graph)
        gc.collect()
        answers, evaluate_s = _timed(evaluate, query, graph, semantics)
        self.check(index, answers)
        invalidate_engine_caches(graph)
        gc.collect()
        _traced, traced_s = _timed(
            lambda: evaluate(query, graph, semantics, trace=True))
        invalidate_engine_caches(graph)
        gc.collect()
        with span("op"):
            staged = staged_evaluate(query, graph, semantics, span)
        invalidate_engine_caches(graph)
        _expect(staged == answers, f"{key}: staged answers differ from "
                                   f"evaluate")
        return {"evaluate_s": evaluate_s, "traced_s": traced_s}

    def check(self, index, answers):
        key, graph, _query, _semantics = self._op(index)
        fingerprint = (len(answers), digest(answers))
        first = self.seen.setdefault(key, (fingerprint, answers))
        _expect(first[0] == fingerprint, f"{key}: answers changed on repeat")
        if first[1] is answers:
            self.totals[f"answers.{key}"] = len(answers)
            if self.pins is not None:
                _expect(list(fingerprint) == self.pins[key],
                        f"{key}: {fingerprint} != pinned {self.pins[key]}")
            self.check_first(key, graph, answers)

    def check_first(self, key, graph, answers):
        """Seed-independent check of the first answer set of ``key``."""


def _successors(graph):
    """label -> node -> set of successors, read from the edge set."""
    table = {}
    for edge in graph.edges:
        table.setdefault(edge.label, {}).setdefault(
            edge.source, set()).add(edge.target)
    return table


def _closure(succ, start):
    """Nodes reachable from ``start`` by zero or more steps of ``succ``."""
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in succ.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class StBulk(_EvaluationWorkload):
    """Standard semantics on a uniform random graph over ``abc``."""

    name = "st-bulk"
    ops = tuple((name, query, ST)
                for name, query in inputs.ST_BULK_QUERIES.items())

    def build_graph(self, rng):
        return inputs.uniform_graph(rng, 1500, 3000, "abc")

    def check_first(self, key, graph, answers):
        name = key.split(":")[1].split("/")[0]
        _expect(answers == self.reference(graph, name),
                f"{key}: answers differ from the brute-force reference")

    @staticmethod
    def reference(graph, name):
        """The answers of query ``name`` on ``graph`` computed straight
        from the edge set, sharing no code with the program."""
        succ = _successors(graph)
        a, b, c = (succ.get(label, {}) for label in "abc")
        if name in ("single", "chain"):
            return {(x, w) for x, ys in a.items() for y in ys
                    for z in _closure(b, y) for w in c.get(z, ())}
        if name == "triangle":
            return {(x, y, z) for x, ys in a.items() for y in ys
                    for z in b.get(y, ()) if x in c.get(z, ())}
        if name == "star":
            result = set()
            for x in graph.nodes:
                arms_b = set().union(*(_closure(b, u) for u in b.get(x, ())))
                result.update(itertools.product(
                    (x,), a.get(x, ()), arms_b, c.get(x, ())))
            return result
        if name == "union":
            return ({(x, z) for x, ys in a.items() for y in ys
                     for z in b.get(y, ())}
                    | {(x, z) for x, ys in c.items() for y in ys
                       for z in _closure(a, y)})
        raise ValueError(name)


class InjSearch(_EvaluationWorkload):
    """a-inj and q-inj on the rare-backbone graph."""

    name = "inj-search"
    ops = tuple((name, query, semantics)
                for name, query in inputs.INJ_QUERIES.items()
                for semantics in (AINJ, QINJ))

    def build_graph(self, rng):
        return inputs.rare_backbone_graph(rng, 1000)

    def check_first(self, key, graph, answers):
        """q-inj ⊆ a-inj ⊆ st, once both injective answer sets of the
        query on this graph are in."""
        prefix, name = key.split("/")[0].split(":")
        ainj = self.seen.get(f"{prefix}:{name}/{AINJ}")
        qinj = self.seen.get(f"{prefix}:{name}/{QINJ}")
        if ainj is not None and qinj is not None:
            standard = evaluate(inputs.INJ_QUERIES[name], graph, ST)
            _expect(qinj[1] <= ainj[1] <= standard,
                    f"{prefix}:{name}: q-inj ⊆ a-inj ⊆ st violated")


class ServeDynamic(Workload):
    """Interleaved writes and batched reads with an incremental store
    attached."""

    name = "serve-dynamic"
    cycle = 10
    #: Every this many steps, compare with a store-less copy (7 is
    #: prime to the 10-step semantics cycle, so every slot is covered).
    CHECK_EVERY = 7
    NODES = 600
    NOISE_PER_NODE = 1.5

    def __init__(self, seed, pins=None):
        super().__init__(seed, pins)
        self.graph = None
        self.store = None
        self.stream = None
        self.schedule = None

    def setup(self):
        self.graph = inputs.rare_backbone_graph(
            _rng(self.seed, "graph"), self.NODES, self.NOISE_PER_NODE)
        self.stream = inputs.update_stream(_rng(self.seed, "updates"),
                                           self.graph)
        self.schedule = inputs.SERVE_SCHEDULE
        self.store = IncrementalRelationStore(self.graph)
        for semantics, names in self.schedule:
            results = evaluate_batch(self._queries(names), self.graph,
                                     semantics)
            for answers in results:
                _expect(not isinstance(answers, BatchError), str(answers))
        self.totals = {"nodes": self.graph.node_count(),
                       "edges": self.graph.edge_count()}

    @staticmethod
    def _queries(names):
        return [inputs.SERVE_POOL[name] for name in names]

    def step(self, index):
        semantics, names = self.schedule[index % self.cycle]
        batch = next(self.stream)
        self._maybe_collect(index)
        _none, write_s = _timed(inputs.apply_batch, self.graph, batch)
        results, read_s = _timed(evaluate_batch, self._queries(names),
                                 self.graph, semantics)
        self.check(index, semantics, names, results)
        return read_s, write_s

    def staged(self, index, span):
        semantics, names = self.schedule[index % self.cycle]
        batch = next(self.stream)
        gc.collect()
        with span("graphdb.write"):
            inputs.apply_batch(self.graph, batch)
        with span("op"):
            results = staged_batch(self._queries(names), self.graph,
                                   semantics, self.store, span)
        self.check(index, semantics, names, results)
        return {}

    def check(self, index, semantics, names, results):
        for name, answers in zip(names, results):
            _expect(not isinstance(answers, BatchError),
                    f"step {index} {name}: {answers}")
        self.totals["answers"] = self.totals.get("answers", 0) + sum(
            len(answers) for answers in results)
        if self.pins is not None and index < len(self.pins):
            fingerprint = step_digest(results)
            _expect(fingerprint == self.pins[index],
                    f"step {index}: {fingerprint} != pinned "
                    f"{self.pins[index]}")
        if index % self.CHECK_EVERY == 0:
            fresh = self.graph.copy()
            for name, answers in zip(names, results):
                expected = evaluate(inputs.SERVE_POOL[name], fresh, semantics)
                _expect(answers == expected,
                        f"step {index} {name}/{semantics}: store-attached "
                        f"answers differ from a store-less copy")
        self.totals["edges_final"] = self.graph.edge_count()


class Contain(Workload):
    """Containment of seeded random query pairs over the decidable
    Figure 1 cells, compilation and analysis caches cleared per op."""

    name = "contain"
    cycle = len(inputs.CONTAIN_CELLS)
    # A full collection costs tens of ops here; one per four cycles.
    gc_every = 4 * len(inputs.CONTAIN_CELLS)

    def __init__(self, seed, pins=None):
        super().__init__(seed, pins)
        self.pairs = []
        self.verdicts = {}

    def setup(self):
        rng = _rng(self.seed, "pairs")
        self.pairs = inputs.containment_pairs(rng, 4000)
        for q1, q2, semantics in self.pairs[:self.cycle]:
            contains(q1, q2, semantics)
        self.totals = {"pairs": len(self.pairs)}

    def _pair(self, index):
        return self.pairs[index % len(self.pairs)]

    def step(self, index):
        q1, q2, semantics = self._pair(index)
        clear_compilation_caches()
        clear_analysis_cache()
        self._maybe_collect(index)
        result, seconds = _timed(contains, q1, q2, semantics)
        self.check(index, result)
        return seconds, None

    def staged(self, index, span):
        q1, q2, semantics = self._pair(index)
        clear_compilation_caches()
        clear_analysis_cache()
        result, evaluate_s = _timed(contains, q1, q2, semantics)
        self.check(index, result)
        clear_compilation_caches()
        clear_analysis_cache()
        with span("op"):
            left, _right = containment_cell(q1, q2)
            if left in (QueryClass.CQ, QueryClass.CRPQ_FIN):
                with span("containment.finite_left"):
                    staged = contains_finite_left(q1, q2, semantics)
            else:
                with span("containment.abstraction"):
                    staged = contains_abstraction(q1, q2, semantics)
        _expect(staged.verdict is result.verdict,
                f"pair {index}: staged verdict differs from contains")
        return {"evaluate_s": evaluate_s}

    def check(self, index, result):
        q1, q2, semantics = self._pair(index)
        _expect(result.verdict in (Verdict.CONTAINED, Verdict.NOT_CONTAINED),
                f"pair {index}: inconclusive verdict in a decidable cell")
        slot = index % len(self.pairs)
        if self.pins is not None and slot < len(self.pins):
            _expect(result.verdict.value[0] == self.pins[slot],
                    f"pair {slot}: {result.verdict} != pinned "
                    f"{self.pins[slot]}")
        if slot in self.verdicts:
            _expect(self.verdicts[slot] is result.verdict,
                    f"pair {slot}: verdict changed on repeat")
            return
        self.verdicts[slot] = result.verdict
        outcome = result.verdict.value.replace("-", "_")
        self.totals[outcome] = self.totals.get(outcome, 0) + 1
        if result.verdict is Verdict.NOT_CONTAINED:
            witness = result.counterexample
            graph = witness.as_graph()
            _expect(in_evaluation(q1, graph, witness.head, semantics)
                    and not in_evaluation(q2, graph, witness.head, semantics),
                    f"pair {slot}: counterexample does not separate")


WORKLOADS = {cls.name: cls for cls in (StBulk, InjSearch, ServeDynamic,
                                       Contain)}
