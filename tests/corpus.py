"""Shared test corpora built from the networkx small-graph atlas."""

import functools
import itertools

import networkx as nx

from glgcomp import Graph


def _convert(nxg):
    verts = ["v%d" % i for i in sorted(nxg.nodes())]
    edges = [("v%d" % a, "v%d" % b) for a, b in nxg.edges()]
    return Graph(verts, edges)


@functools.lru_cache(maxsize=None)
def atlas_graphs(max_vertices=7):
    """Every graph (up to isomorphism) with at most max_vertices vertices."""
    out = []
    for nxg in nx.graph_atlas_g()[1:]:
        if nxg.number_of_nodes() <= max_vertices:
            out.append(_convert(nxg))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def connected_graphs(max_vertices=7, min_edges=0, max_edges=None):
    out = []
    for g in atlas_graphs(max_vertices):
        if len(g.vertices) < 1:
            continue
        m = len(g.edges)
        if m < min_edges:
            continue
        if max_edges is not None and m > max_edges:
            continue
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from(g.edges)
        if nx.is_connected(nxg):
            out.append(g)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def connected_chordal_graphs(max_vertices=6):
    out = []
    for g in connected_graphs(max_vertices):
        if len(g.vertices) < 2:
            continue
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from(g.edges)
        if nx.is_chordal(nxg):
            out.append(g)
    return tuple(out)


def cycle_graph(n):
    verts = ["c%d" % i for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Graph(verts, edges)


def grid(n):
    """The n x n grid graph; vertex gII_JJ sits in row II, column JJ."""
    def name(i, j):
        return "g%02d_%02d" % (i, j)

    verts = [name(i, j) for i in range(n) for j in range(n)]
    edges = [(name(i, j), name(i + 1, j))
             for i in range(n - 1) for j in range(n)]
    edges += [(name(i, j), name(i, j + 1))
              for i in range(n) for j in range(n - 1)]
    return Graph(verts, edges)


def complete_bipartite(a, b):
    left = ["a%d" % i for i in range(a)]
    right = ["b%d" % i for i in range(b)]
    return Graph(left + right, list(itertools.product(left, right)))


def weight_maps(vertices, max_weight=2, max_total=4):
    """All weight maps on the given vertices within the stated caps."""
    for combo in itertools.product(range(max_weight + 1), repeat=len(vertices)):
        if sum(combo) <= max_total:
            yield {v: w for v, w in zip(vertices, combo) if w}


def random_triangle_free(rng, n, extra):
    """A connected triangle-free graph on t0..t(n-1): a random tree plus up
    to `extra` further edges whose ends share no neighbour."""
    verts = ["t%d" % i for i in range(n)]
    adj = {v: set() for v in verts}
    for i in range(1, n):
        a, b = verts[rng.randrange(i)], verts[i]
        adj[a].add(b)
        adj[b].add(a)
    pairs = list(itertools.combinations(verts, 2))
    rng.shuffle(pairs)
    for a, b in pairs:
        if extra and b not in adj[a] and not adj[a] & adj[b]:
            adj[a].add(b)
            adj[b].add(a)
            extra -= 1
    return Graph(verts, [(a, b) for a in verts for b in adj[a] if a < b])


def random_chordal(rng, n):
    """A connected chordal graph on c0..c(n-1): each new vertex joins a
    nonempty part of a clique built so far (a perfect elimination order,
    read backwards)."""
    verts = ["c%d" % i for i in range(n)]
    cliques = [{verts[0]}]
    edges = []
    for v in verts[1:]:
        pool = sorted(rng.choice(cliques))
        joined = rng.sample(pool, rng.randint(1, len(pool)))
        edges += [(u, v) for u in joined]
        cliques.append(set(joined) | {v})
    return Graph(verts, edges)


def random_connected(rng, n, m):
    """A connected graph on r0..r(n-1) with m edges: a random tree plus
    m - n + 1 further edges drawn uniformly."""
    verts = ["r%d" % i for i in range(n)]
    edges = {(verts[rng.randrange(i)], verts[i]) for i in range(1, n)}
    free = [p for p in itertools.combinations(verts, 2) if p not in edges]
    edges.update(rng.sample(free, m - n + 1))
    return Graph(verts, edges)
