"""Independent witness checker, standard library only.

It rebuilds the generalized line graph of an instance from the documented
labeling ("e:a-b" for the edge {a, b} with a < b, "q:v:l:x" / "q:v:l:y" for
level l of the cocktail-party block at v), recomputes the competition graph
of a witness digraph from its arcs, and checks acyclicity and that the
extra vertices are isolated.  It imports nothing from glgcomp, so a bug
shared by the package's builders and its verifier cannot hide here.
"""

import itertools


class WitnessError(Exception):
    """A witness that does not prove what it claims."""


def combined_graph(vertices, edges, weights):
    """(vertex set, edge set) of the generalized line graph of an instance.

    Edges are sorted label pairs.
    """
    def pair(a, b):
        return (a, b) if a < b else (b, a)

    def edge_label(a, b):
        return "e:%s-%s" % pair(a, b)

    incident = {v: [] for v in vertices}
    for a, b in edges:
        incident[a].append(edge_label(a, b))
        incident[b].append(edge_label(a, b))
    labels = set()
    out = set()
    for v in vertices:
        labels.update(incident[v])
        for p, q in itertools.combinations(incident[v], 2):
            out.add(pair(p, q))
        m = weights.get(v, 0)
        block = ["q:%s:%d:%s" % (v, level, side)
                 for level in range(1, m + 1) for side in "xy"]
        labels.update(block)
        for i, j in itertools.combinations(range(len(block)), 2):
            if i // 2 != j // 2:  # partners (same level) stay non-adjacent
                out.add(pair(block[i], block[j]))
        for p in incident[v]:
            for q in block:
                out.add(pair(p, q))
    return labels, out


def check_witness(target, vertices, arcs, k):
    """Raise WitnessError unless the digraph (vertices, arcs) is acyclic and
    its competition graph is target plus exactly k isolated extras.

    target is a (vertex set, edge set) pair as combined_graph returns it.
    """
    want_vertices, want_edges = target
    have = set(vertices)
    if len(have) != len(vertices):
        raise WitnessError("duplicate vertex labels")
    missing = want_vertices - have
    if missing:
        raise WitnessError("witness lacks target vertices %r"
                           % sorted(missing)[:5])
    extras = have - want_vertices
    if len(extras) != k:
        raise WitnessError("expected %d extra vertices, found %d"
                           % (k, len(extras)))
    prey = {v: [] for v in have}
    indegree = dict.fromkeys(have, 0)
    for tail, head in set(map(tuple, arcs)):
        if tail not in have or head not in have or tail == head:
            raise WitnessError("bad arc %r -> %r" % (tail, head))
        prey[head].append(tail)
        indegree[head] += 1
    # Kahn's algorithm: every vertex is removed iff there is no cycle.
    out = {v: [] for v in have}
    for head, tails in prey.items():
        for tail in tails:
            out[tail].append(head)
    ready = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in out[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    if seen != len(have):
        raise WitnessError("the witness digraph has a directed cycle")
    got = set()
    for tails in prey.values():
        for a, b in itertools.combinations(sorted(tails), 2):
            got.add((a, b))
    touched = {v for e in got for v in e} & extras
    if touched:
        raise WitnessError("extra vertices %r are not isolated"
                           % sorted(touched))
    if got != want_edges:
        raise WitnessError(
            "competition graph differs from the target: %d missing, "
            "%d extra edges" % (len(want_edges - got), len(got - want_edges)))


def needs_two_extras(target):
    """True iff, after repeatedly deleting degree-one vertices (keeping at
    least two), no vertex is simplicial or isolated: the structural fact
    behind the classifier's 'no-simplicial-or-isolated' and
    'pendant-reduction' lower bounds."""
    vertices, edges = target
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    while len(adj) > 2:
        pendants = sorted(v for v, nb in adj.items() if len(nb) == 1)
        if not pendants:
            break
        victim = pendants[0]
        for w in adj.pop(victim):
            adj[w].discard(victim)
    for v, nb in adj.items():
        if all(b in adj[a] for a, b in itertools.combinations(nb, 2)):
            return False
    return True


def has_isolated_vertex(target):
    """True iff some target vertex lies on no edge.  An acyclic digraph has
    a vertex without out-arcs, isolated in its competition graph, so a
    target without one needs at least one extra."""
    vertices, edges = target
    return bool(vertices - {v for e in edges for v in e})
