"""Seeded inputs of the end-to-end benchmark.

Every graph, update stream, query mix and containment pair is built
here from the run's seed, so an edit under ``src/`` cannot change what
a workload feeds the program.  Only the program's data model (graphs,
queries, regex constructors) is imported; no generator of the program
is used.
"""

from __future__ import annotations

from repro import CRPQ, Atom, GraphDatabase, Semantics, parse_query
from repro.queries.crpq import QueryClass
from repro.regular.syntax import Symbol, concat, plus, star, union

ST = Semantics.STANDARD
AINJ = Semantics.ATOM_INJECTIVE
QINJ = Semantics.QUERY_INJECTIVE

#: The rare backbone label of the injective workloads.
RARE = "r"


def uniform_graph(rng, num_nodes, num_edges, alphabet):
    """A uniform random edge-labeled graph with exactly ``num_edges``
    distinct edges over nodes ``0 .. num_nodes - 1``."""
    graph = GraphDatabase(nodes=range(num_nodes))
    labels = sorted(alphabet)
    while graph.edge_count() < num_edges:
        graph.add_edge(rng.randrange(num_nodes), rng.choice(labels),
                       rng.randrange(num_nodes))
    return graph


def rare_backbone_graph(rng, num_nodes, noise_per_node=3, chain_nodes=6):
    """Uniform ``a``/``b`` noise plus ``num_nodes // 15`` node-disjoint
    chains of ``chain_nodes`` random nodes joined by rare ``r`` edges.
    The injective queries follow ``r``, so their atom relations stay
    tiny while the simple-path searches still see the noise.  Disjoint
    chains fix the ``r`` relation sizes: chains that share nodes merge
    into trees whose size, and the search cost with it, swings several
    fold from seed to seed."""
    graph = uniform_graph(rng, num_nodes, int(noise_per_node * num_nodes),
                          "ab")
    num_chains = max(2, num_nodes // 15)
    members = rng.sample(range(num_nodes), num_chains * chain_nodes)
    for start in range(0, len(members), chain_nodes):
        chain = members[start:start + chain_nodes]
        for source, target in zip(chain, chain[1:]):
            graph.add_edge(source, RARE, target)
    return graph


def update_stream(rng, graph, delta=2, remove_fraction=0.3, rare_fraction=0.1):
    """An endless stream of update batches of ``delta`` operations
    ``("add" | "remove", source, label, target)``: mostly noise inserts,
    ``remove_fraction`` deletions, ``rare_fraction`` of the inserts on
    the ``r`` backbone.  It is generated against a simulation of the
    evolving edge set, so every removal hits a present edge and every
    insertion adds a new one."""
    nodes = sorted(graph.nodes)
    present = {(e.source, e.label, e.target) for e in graph.edges}
    ordered = sorted(present)
    while True:
        batch = []
        for _ in range(delta):
            if rng.random() < remove_fraction:
                edge = ordered[rng.randrange(len(ordered))]
                while edge not in present:
                    edge = ordered[rng.randrange(len(ordered))]
                present.discard(edge)
                batch.append(("remove",) + edge)
                continue
            label = RARE if rng.random() < rare_fraction else rng.choice("ab")
            edge = (rng.choice(nodes), label, rng.choice(nodes))
            while edge in present:
                edge = (rng.choice(nodes), label, rng.choice(nodes))
            present.add(edge)
            ordered.append(edge)
            batch.append(("add",) + edge)
        yield batch


def apply_batch(graph, batch):
    """One write: apply an update batch through the graph's public API."""
    for op, source, label, target in batch:
        if op == "add":
            graph.add_edge(source, label, target)
        else:
            graph.remove_edge(source, label, target)


#: ``st-bulk``: name -> query (a tuple is a union of its disjuncts).
ST_BULK_QUERIES = {
    "single": parse_query("Q(x, w) :- x -[a b* c]-> w"),
    "chain": parse_query("Q(x, w) :- x -[a]-> y, y -[b*]-> z, z -[c]-> w"),
    "triangle": parse_query("Q(x, y, z) :- x -[a]-> y, y -[b]-> z, z -[c]-> x"),
    "star": parse_query("Q(x, y, z, w) :- x -[a]-> y, x -[b b*]-> z, x -[c]-> w"),
    "union": (parse_query("Q(x, y) :- x -[a b]-> y"),
              parse_query("Q(x, y) :- x -[c a*]-> y")),
}

#: ``inj-search``: name -> query, each run under a-inj and q-inj.
INJ_QUERIES = {
    "chain2": parse_query("Q(x, z) :- x -[r]-> y, y -[r]-> z"),
    "chain3": parse_query("Q(x, w) :- x -[r]-> y, y -[r]-> z, z -[r]-> w"),
    "plus": parse_query("Q(x, y) :- x -[r r*]-> y"),
    "noise-step": parse_query("Q(x, z) :- x -[r (a+b)]-> y, y -[r]-> z"),
    "loop": parse_query("Q(x) :- x -[r r* a]-> x"),
}

#: ``serve-dynamic``: the six-query pool.  ``a b* r`` is standard-only:
#: under an injective semantics it enumerates simple paths over the
#: noise, the exponential case of Prop 3.2.
SERVE_POOL = {
    "chain2": INJ_QUERIES["chain2"],
    "chain3": INJ_QUERIES["chain3"],
    "plus": INJ_QUERIES["plus"],
    "noise-step": INJ_QUERIES["noise-step"],
    "loop": INJ_QUERIES["loop"],
    "walk-r": parse_query("Q(x, y) :- x -[a b* r]-> y"),
}


#: One cycle of ``serve-dynamic``: per step, the semantics and the three
#: pool queries of its ``evaluate_batch``.  Eight st steps, one a-inj and
#: one q-inj in every ten; ``walk-r`` in two st steps, so the slowest
#: fifth of the steps (the tail) is its maintenance refresh and the
#: median falls among the light st steps rather than between groups.
#: The schedule is fixed: a seed changes the graph and the updates, not
#: the mix.
SERVE_SCHEDULE = (
    (ST, ("chain2", "chain3", "loop")),
    (ST, ("noise-step", "loop", "chain2")),
    (ST, ("walk-r", "chain3", "noise-step")),
    (ST, ("plus", "loop", "chain3")),
    (AINJ, ("chain2", "plus", "noise-step")),
    (ST, ("chain2", "noise-step", "loop")),
    (ST, ("chain3", "plus", "noise-step")),
    (ST, ("walk-r", "loop", "plus")),
    (ST, ("noise-step", "chain3", "loop")),
    (QINJ, ("chain3", "loop", "plus")),
)


# ----------------------------------------------------------------------
# Containment pairs
# ----------------------------------------------------------------------

#: The decidable Figure 1 cells measured by ``contain``: a star-free
#: left side under every semantics, a starred left side under st and
#: q-inj.  The a-inj CRPQ/CRPQ cell is undecidable (Thm 5.2) and left
#: out.
CONTAIN_CELLS = tuple(
    (left, right, semantics)
    for left in (QueryClass.CQ, QueryClass.CRPQ_FIN)
    for right in (QueryClass.CQ, QueryClass.CRPQ_FIN, QueryClass.CRPQ)
    for semantics in (ST, AINJ, QINJ)
) + tuple(
    (QueryClass.CRPQ, right, semantics)
    for right in (QueryClass.CQ, QueryClass.CRPQ_FIN, QueryClass.CRPQ)
    for semantics in (ST, QINJ)
)

_CLASS_ORDER = {QueryClass.CQ: 0, QueryClass.CRPQ_FIN: 1, QueryClass.CRPQ: 2}


def random_language(rng, alphabet, query_class, max_depth=2):
    """A small random regex of ``query_class`` over ``alphabet``."""

    def leaf():
        return Symbol(rng.choice(alphabet))

    def build(depth, allow_star):
        if depth == 0:
            return leaf()
        choice = rng.random()
        if choice < 0.35:
            return concat(build(depth - 1, allow_star),
                          build(depth - 1, allow_star))
        if choice < 0.65:
            return union(build(depth - 1, allow_star),
                         build(depth - 1, allow_star))
        if allow_star and choice < 0.8:
            return star(build(depth - 1, allow_star))
        if allow_star:
            return plus(build(depth - 1, allow_star))
        return leaf()

    if query_class is QueryClass.CQ:
        return leaf()
    if query_class is QueryClass.CRPQ_FIN:
        return build(max_depth, allow_star=False)
    node = build(max_depth, allow_star=True)
    if node.is_star_free():
        node = concat(node, star(leaf()))
    return node


def random_query(rng, query_class, num_atoms, variables, alphabet, arity):
    """A random CRPQ whose atoms all lie in ``query_class``."""
    atoms = tuple(
        Atom(rng.choice(variables),
             random_language(rng, alphabet, query_class),
             rng.choice(variables))
        for _ in range(num_atoms)
    )
    head = tuple(rng.choice(variables) for _ in range(arity))
    return CRPQ(head, atoms, extra_variables=variables)


def _language_class(language):
    if isinstance(language, Symbol):
        return QueryClass.CQ
    return QueryClass.CRPQ_FIN if language.is_star_free() else QueryClass.CRPQ


def containment_pairs(rng, count, alphabet=("a", "b")):
    """``count`` pairs ``(q1, q2, semantics)`` cycling through
    :data:`CONTAIN_CELLS` in order.  Every other pair relaxes ``q1`` by
    dropping one atom (redrawing languages above the right class), so
    contained and non-contained pairs both occur."""
    variables = ("v0", "v1", "v2")
    pairs = []
    for index in range(count):
        left, right, semantics = CONTAIN_CELLS[index % len(CONTAIN_CELLS)]
        arity = rng.randint(0, 1)
        max_atoms = 2 if left is QueryClass.CRPQ else 3
        q1 = random_query(rng, left, rng.randint(1, max_atoms), variables,
                          alphabet, arity)
        if index % 2 == 0 or len(q1.atoms) <= 1:
            q2 = random_query(rng, right, rng.randint(1, 2), variables,
                              alphabet, arity)
        else:
            kept = list(q1.atoms)
            kept.pop(rng.randrange(len(kept)))
            kept = [
                atom if _CLASS_ORDER[_language_class(atom.language)]
                <= _CLASS_ORDER[right]
                else Atom(atom.source,
                          random_language(rng, alphabet, right), atom.target)
                for atom in kept
            ]
            q2 = CRPQ(q1.head, tuple(kept), extra_variables=q1.variables)
        pairs.append((q1, q2, semantics))
    return pairs
