"""A deliberately naive second opinion on whether a graph plus k isolated
vertices is the competition graph of some acyclic digraph.

Independent of the main search: tries every ordering of the real vertices
(the k padding vertices always come last), and at each position tries every
subset of the earlier vertices as the in-neighborhood, checking pairwise
adjacency directly.  Failure states are memoized per ordering on
(position, set-of-covered-edges).  Only meant for tiny graphs.
"""

import itertools

from reference import neighbors


def has_realization(graph, k):
    verts = list(graph.vertices)
    n = len(verts)
    edges = sorted(graph.edges)
    edge_bit = {e: 1 << i for i, e in enumerate(edges)}
    target = (1 << len(edges)) - 1
    if target == 0:
        return True
    adj = {v: neighbors(graph, v) for v in verts}

    def clique_mask(subset):
        # edge mask covered by this subset, or None if it is not a clique
        mask = 0
        for a, b in itertools.combinations(sorted(subset), 2):
            if b not in adj[a]:
                return None
            mask |= edge_bit[(a, b)]
        return mask

    for perm in itertools.permutations(verts):
        dead = set()

        def walk(pos, covered):
            if covered == target:
                return True
            if pos == n + k or (pos, covered) in dead:
                return False
            pool = perm[:pos] if pos < n else perm
            for r in range(len(pool), -1, -1):
                for sub in itertools.combinations(pool, r):
                    mask = clique_mask(sub)
                    if mask is not None and walk(pos + 1, covered | mask):
                        return True
            dead.add((pos, covered))
            return False

        if walk(0, 0):
            return True
    return False
