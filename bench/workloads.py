"""Seeded instance generators for the benchmark workloads.

An instance is a plain dict {"vertices", "edges", "weights"} with string
labels, built with the standard library only, so one seed yields the same
corpus on every commit of the package under test.
"""

import itertools
import random


def _rng(workload, seed):
    # Seeding with a string is stable across processes and hash seeds.
    return random.Random("%s:%d" % (workload, seed))


def combined_vertices(inst):
    """Vertex count of the generalized line graph: |E| + 2 * sum(weights)."""
    return len(inst["edges"]) + 2 * sum(inst["weights"].values())


# ---------------------------------------------------------------------------
# classify_mix: every small instance once, in a seeded order
# ---------------------------------------------------------------------------

CLASSIFY_MAX_VERTICES = 5
CLASSIFY_MAX_EDGES = 6
CLASSIFY_MAX_WEIGHT = 2
CLASSIFY_MAX_COMBINED = 11


def _connected(n, edges):
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, frontier = {0}, [0]
    while frontier:
        for w in adj[frontier.pop()] - seen:
            seen.add(w)
            frontier.append(w)
    return len(seen) == n


def _apply(perm, edges):
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))


def small_connected_bases(max_n=CLASSIFY_MAX_VERTICES,
                          max_m=CLASSIFY_MAX_EDGES):
    """One representative (n, edges, automorphisms) per isomorphism class
    of connected graphs on 2..max_n vertices with at most max_m edges."""
    out = []
    for n in range(2, max_n + 1):
        perms = list(itertools.permutations(range(n)))
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for m in range(n - 1, min(max_m, len(pairs)) + 1):
            for edges in itertools.combinations(pairs, m):
                if edges in seen or not _connected(n, edges):
                    continue
                images = [_apply(p, edges) for p in perms]
                seen.update(images)
                autos = [p for p, img in zip(perms, images) if img == edges]
                out.append((n, edges, autos))
    return out


def classify_universe():
    """Every classify_mix instance up to isomorphism, as (n, edges, weights)
    with weights a tuple indexed by vertex."""
    out = []
    for n, edges, autos in small_connected_bases():
        for w in itertools.product(range(CLASSIFY_MAX_WEIGHT + 1), repeat=n):
            if len(edges) + 2 * sum(w) > CLASSIFY_MAX_COMBINED:
                continue
            # Keep one weight vector per orbit of the automorphism group.
            if any(tuple(w[p.index(i)] for i in range(n)) < w for p in autos):
                continue
            out.append((n, edges, w))
    return out


def classify_mix(seed):
    """All connected bases on 2-5 vertices with at most 6 edges, weights in
    {0,1,2} and at most 11 combined vertices, one per isomorphism class, in
    an order drawn from the seed.

    Vertex names stay those of the class representative: the exact search
    orders vertices by name, and renaming one instance moves its cost up to
    tenfold, which would make throughput depend on the seed more than on
    the code.
    """
    out = []
    for n, edges, w in classify_universe():
        names = ["v%d" % i for i in range(1, n + 1)]
        out.append({
            "vertices": names,
            "edges": [(names[a], names[b]) for a, b in edges],
            "weights": {names[i]: w[i] for i in range(n) if w[i]},
        })
    _rng("classify_mix", seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# construct_sparse and construct_blocks: random connected bases
# ---------------------------------------------------------------------------

def random_connected_base(rng, n, m):
    """A connected simple graph on v1..vn with exactly m edges.

    A random spanning tree (each vertex in a shuffled order joins an
    earlier one) plus m - n + 1 further edges drawn uniformly.
    """
    names = ["v%d" % i for i in range(1, n + 1)]
    order = names[:]
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    free = [(a, b) for a, b in itertools.combinations(sorted(names), 2)
            if (a, b) not in edges]
    edges.update(rng.sample(free, m - len(edges)))
    return names, sorted(edges)


# The ladder stops at nine vertices.  From ten up, single bases keep the
# fallback search busy for 0.5-15 s (seen on 300 bases per rung), so a run's
# throughput would hang on which rare bases the seed draws; from about 18
# vertices the search exhausts its node budget after 16-119 s.
SPARSE_RUNGS = (8, 9)
SPARSE_PER_RUNG = 2700


def construct_sparse(seed, per_rung=SPARSE_PER_RUNG, rungs=SPARSE_RUNGS):
    """Sparse connected bases: on each rung of n vertices, n - 1 to n + 2
    edges and one to three vertices of weight one or two.

    Every (edge count, weighted count) pair appears equally often on each
    rung, so seeds differ in graph structure, not in size mix.
    """
    rng = _rng("construct_sparse", seed)
    out = []
    for n in rungs:
        shapes = [(m, k) for m in range(n - 1, n + 3) for k in (1, 2, 3)]
        for i in range(per_rung):
            m, k = shapes[i % len(shapes)]
            vertices, edges = random_connected_base(rng, n, m)
            out.append({"vertices": vertices, "edges": edges,
                        "weights": {v: rng.randint(1, 2)
                                    for v in sorted(rng.sample(vertices, k))}})
    rng.shuffle(out)
    return out


# The bases are complete: on them the two-extra recursion keeps its graph
# connected down to the last edge and never falls back to exact search.  On
# random 12-vertex bases with 54 of the 66 edges, 1 base in 1500 sent it
# into a 16-vertex search that ran out of its node budget after about 30 s;
# at 16 vertices and 48-72 edges, 1 base in a few hundred did.
BLOCKS_VERTICES = 10
BLOCKS_MAX_WEIGHT = 6
# Instance i carries total weight BLOCKS_TOTALS[i % 21], so every seed has
# the same mix of combined sizes (85-125 vertices).  With each weight drawn
# uniformly from 0-6 instead, the corpus mean of the cubed combined size
# moved by 15% between seeds, and ops_per_s with it (9.0-10.1 over five).
BLOCKS_TOTALS = tuple(range(20, 41))
BLOCKS_COUNT = 147


def construct_blocks(seed, count=BLOCKS_COUNT, n=BLOCKS_VERTICES):
    """Complete bases on n vertices whose weights, at most 6 each, add up
    to the instance's entry of BLOCKS_TOTALS; each unit of weight goes to
    a vertex drawn at random among those still below 6.
    """
    rng = _rng("construct_blocks", seed)
    names = ["v%d" % i for i in range(1, n + 1)]
    edges = sorted(tuple(sorted(p)) for p in itertools.combinations(names, 2))
    out = []
    for i in range(count):
        weights = dict.fromkeys(names, 0)
        for _ in range(BLOCKS_TOTALS[i % len(BLOCKS_TOTALS)]):
            v = rng.choice([u for u in names if weights[u] < BLOCKS_MAX_WEIGHT])
            weights[v] += 1
        out.append({"vertices": names, "edges": edges,
                    "weights": {v: w for v, w in weights.items() if w}})
    return out
