"""Constructions that realize graphs as competition graphs of acyclic digraphs.

Every witness, built here or found by search, is a "body": a list of
(vertex, clique) entries in placement order, where the clique is the
in-neighborhood assigned to that vertex and must lie among earlier entries,
followed by a tail of cliques for the extra vertices.  Reading the cliques
as in-neighborhoods yields an acyclic digraph whose competition graph is the
union of those cliques' pairwise edges.  _certify names the extras, builds
that digraph and verifies it once, with the body order as its acyclic
ordering; every construction returns its certificate, so a flaw in a scheme
surfaces as ConstructionFailed rather than a bad witness.  verify_realization
compares edge sets: the pairs of each in-neighborhood against the target's
edges, with no graph built for either side.

The two-extra construction for a combined graph is one body: the line-graph
entries, then the entries of each weighted vertex's cocktail-party block,
then the two extras.  Each stage hands two cliques (P1, P2) on to the next;
the line graph hands on the edge bundles at the ends of the pinned edge.  A
block x1 y1 .. xm ym joined to the anchor clique A (the weighted vertex's
edge bundle) places its vertices as follows:

* m = 1: x <- P1, y <- P2; it hands on A+{x} and A+{y}.
* m >= 2: x1 <- P1, x2 <- P2, x3..xm <- A; y1 <- A+X where X = {x1..xm},
  and y_l <- A + (X - {x_(l-1)}) + {y_(l-1)} for l >= 2; it hands on A+Y
  where Y = {y1..ym}, and A+{x1..x_(m-1)}+{y_m}.

Every placed clique is a clique of the combined graph, and together they
cover its edges.

The line-graph entries chain one star schedule per component of the base.
The star S_w, the edge bundle of a base vertex w of degree two or more,
needs a position after all of its edges.  A schedule rooted at an edge
f = xy lists its component's edges by decreasing BFS distance of the
nearer endpoint from x and y, ties by edge, f last, and releases each star
but S_x and S_y at the position of its last edge.  A vertex off f has its
last edge toward f, and that edge is no other such vertex's last, so a
position releases at most one star, and the first and f's release none.

The pinned edge e = uv roots its component; S_u and S_v are handed on to
the next stage.  Another component is rooted at its smallest edge f = xy
whose line-graph vertex is simplicial (x or y pendant, or both of degree
two with a common neighbour) and hands on the clique S_x+S_y unless that
is {f}; with no such edge it is rooted at its largest and hands on S_x and
S_y.  Components go by the number of cliques they hand on, most first,
e's last, and each position takes the oldest clique waiting.  So at most
two wait when a component begins, and one with two or more edges takes
them at its first two positions and ends with only its own handed cliques
waiting.  Cliques are left over only when e is a lone edge and two wait
for its one position; then the construction refuses the pin with
PreconditionViolated: the refusal is a property of the base and the pin,
not a flaw in the scheme.
"""

import collections

from .errors import (CompetitionMismatch, ConstructionFailed, GlgError,
                     HypothesisNotMet, InvalidInput, NotAnEdge,
                     PreconditionViolated)
from .graph_core import (Digraph, acyclic_ordering, competition_edges,
                         digraph_to_json, graph_to_json, is_acyclic_ordering,
                         is_connected, normalize_edge)
from .glg_builder import (check_weights, cocktail_label, cocktail_party,
                          edge_label, generalized_line_graph,
                          incident_edge_clique)
from .search import find_realization, fresh_labels


class RealizationCertificate:
    """A checked witness that C(D) equals a base graph plus isolated extras."""

    __slots__ = ("digraph", "base", "k", "added", "ordering")

    def __init__(self, digraph, base, k, added, ordering):
        self.digraph = digraph
        self.base = base
        self.k = k
        self.added = tuple(added)
        self.ordering = tuple(ordering)

    def to_json(self):
        return {
            "kind": "realization_certificate",
            "digraph": digraph_to_json(self.digraph),
            "base_graph": graph_to_json(self.base),
            "k": self.k,
            "added": list(self.added),
            "ordering": list(self.ordering),
        }


def verify_realization(digraph, base, k, ordering=None):
    """Check that digraph is acyclic and C(digraph) = base plus k isolated.

    Returns a RealizationCertificate; raises CyclicDigraph with a cycle
    witness, or CompetitionMismatch listing missing/extra edges.  A supplied
    ordering is validated instead of computed.
    """
    dset = set(digraph.vertices)
    bset = set(base.vertices)
    if not bset <= dset:
        raise InvalidInput("digraph is missing base vertices: %r"
                           % sorted(bset - dset))
    added = sorted(dset - bset)
    if len(added) != k:
        raise InvalidInput("expected %d extra vertices, found %d" % (k, len(added)))
    if ordering is None:
        ordering = acyclic_ordering(digraph)
    else:
        ordering = tuple(ordering)
        if not is_acyclic_ordering(digraph, ordering):
            raise InvalidInput("supplied ordering is not an acyclic ordering")
    # The extras are isolated in the target, so its edges are base.edges.
    actual = competition_edges(digraph)
    missing = base.edges - actual
    extra = actual - base.edges
    if missing or extra:
        raise CompetitionMismatch(
            "competition graph differs from target: %d missing, %d extra edges"
            % (len(missing), len(extra)), missing, extra)
    return RealizationCertificate(digraph, base, k, added, ordering)


def _certify(entries, tail, base, what):
    """The certificate of a body: its (vertex, clique) entries in order,
    then one extra per clique of `tail`, named by fresh_labels.

    The digraph is built and verified once, with the body order as its
    ordering; any failure is a flaw in the construction (`what`), raised
    as ConstructionFailed.
    """
    extras = fresh_labels(base.vertices, len(tail))
    entries = list(entries) + list(zip(extras, tail))
    order = [label for label, _ in entries]
    arcs = [(x, label) for label, clique in entries for x in sorted(clique)]
    try:
        return verify_realization(Digraph(order, arcs), base, len(tail),
                                  order)
    except GlgError as exc:
        raise ConstructionFailed("%s produced an invalid witness: %s"
                                 % (what, exc)) from exc


# ---------------------------------------------------------------------------
# Line-graph realization (two extras with pinned in-neighborhoods)
# ---------------------------------------------------------------------------

def _schedule(h, root):
    """The star schedule rooted at an edge: (edges, released), its
    component's edges in order and the stars each position releases."""
    dist = dict.fromkeys(root, 0)
    frontier = list(root)
    for x in frontier:  # grows while it is read: a BFS queue
        for y in h.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                frontier.append(y)
    edges = {(x, y) for x in dist for y in h.neighbors(x) if x < y} - {root}
    edges = sorted(edges, key=lambda f: (-min(dist[f[0]], dist[f[1]]), f))
    edges.append(root)
    last = {x: i for i, f in enumerate(edges) for x in f}
    released = [[incident_edge_clique(h, w) for w in f
                 if last[w] == i and w not in root and h.degree(w) >= 2]
                for i, f in enumerate(edges)]
    return edges, released


def _simplicial_edge(h, edges):
    """The smallest of edges whose line-graph vertex is simplicial: an end
    is pendant, or both ends have degree two and a common neighbour."""
    for x, y in sorted(edges):
        dx, dy = h.degree(x), h.degree(y)
        if min(dx, dy) == 1 or (dx == dy == 2 and
                                h.neighbors(x) & h.neighbors(y)):
            return x, y
    return None


def _line_body(h, e):
    """Realize line_graph(h) as a body after which two extras can take the
    edge bundles at the endpoints of e.

    The chain of star schedules of the module docstring, in one pass.
    """
    own, own_released = _schedule(h, e)
    seen = {x for f in own for x in f}
    chain = []
    for f in sorted(h.edges, reverse=True):
        if f[0] in seen:
            continue
        edges, released = _schedule(h, f)
        seen.update(x for g in edges for x in g)
        root = _simplicial_edge(h, edges)
        if root is None:
            handed = [incident_edge_clique(h, x) for x in f]
        else:
            edges, released = _schedule(h, root)
            clique = incident_edge_clique(h, root[0]) | \
                incident_edge_clique(h, root[1])
            handed = [clique] if len(clique) > 1 else []
        chain.append((edges, released, handed))
    chain.sort(key=lambda part: -len(part[2]))
    chain.append((own, own_released, []))
    waiting = collections.deque()
    body = []
    for edges, released, handed in chain:
        for f, stars in zip(edges, released):
            body.append((edge_label(*f),
                         waiting.popleft() if waiting else frozenset()))
            waiting.extend(stars)
        waiting.extend(handed)
    if waiting:
        raise PreconditionViolated(
            "edge %r is a component of its own, and the other components "
            "hand on more cliques than its one position can take" % (e,))
    return body


def _pinned_edge(h, e):
    """The base edge whose endpoint bundles get pinned: e, or else the
    smallest edge that is not a component of its own, if there is one."""
    if not h.edges:
        raise PreconditionViolated("the base graph needs at least one edge")
    if e is None:
        return min(h.edges, key=lambda f: (
            h.degree(f[0]) == h.degree(f[1]) == 1, f))
    e = normalize_edge(*e)
    if e not in h.edges:
        raise NotAnEdge("%r is not an edge of the base graph" % (e,))
    return e


# ---------------------------------------------------------------------------
# Cocktail-party blocks and the combined-graph realization with two extras
# ---------------------------------------------------------------------------

def _block_entries(xs, ys, anchors, lead):
    """Body entries for one cocktail-party block joined to `anchors`.

    xs and ys are the block's partner pairs by level, and lead = (P1, P2)
    the two cliques handed on by the previous stage (see the module
    docstring).  Returns (entries, handed) where handed is the pair of
    cliques this block hands on.
    """
    a = frozenset(anchors)
    p1, p2 = lead
    if len(xs) == 1:
        x, y = xs[0], ys[0]
        return [(x, p1), (y, p2)], (a | {x}, a | {y})
    xset = frozenset(xs)
    entries = [(xs[0], p1), (xs[1], p2)] + [(x, a) for x in xs[2:]]
    entries.append((ys[0], a | xset))
    for l in range(1, len(xs)):
        entries.append((ys[l], a | (xset - {xs[l - 1]}) | {ys[l - 1]}))
    return entries, (a | frozenset(ys), a | frozenset(xs[:-1]) | {ys[-1]})


def cp_realization(m, namer=None):
    """Realize the cocktail-party graph on 2m vertices with two extras.

    The block's entries with an empty anchor and an empty lead pair, then
    the two extras; returns the RealizationCertificate.
    """
    g, pairs = cocktail_party(m, namer)
    empty = frozenset()
    entries, handed = _block_entries([p[0] for p in pairs],
                                     [p[1] for p in pairs],
                                     empty, (empty, empty))
    return _certify(entries, handed, g, "cocktail-party realization")


class GlgRealization:
    """Result of the two-extra construction for a combined graph.

    pinned maps each endpoint of the chosen base edge to the digraph vertex
    whose in-neighborhood is exactly that endpoint's incident edge bundle.
    When some weight is positive those two vertices are real (the first
    block's leading pair); otherwise they are the extra pair `added`.
    digraph and added are those of the certificate.
    """

    __slots__ = ("digraph", "combined", "edge", "pinned", "added",
                 "certificate")

    def __init__(self, certificate, combined, edge, pinned):
        self.digraph = certificate.digraph
        self.combined = combined
        self.edge = edge
        self.pinned = dict(pinned)
        self.added = certificate.added
        self.certificate = certificate


def glg_realization(h, weights=None, e=None):
    """Realize the combined graph of (h, weights) with two extra vertices.

    One body: the line-graph entries, each weighted vertex's block entries
    in vertex order, then the two extras; certified once.  The two vertices
    pinned to the chosen edge's endpoint bundles are the extras when all
    weights are zero, otherwise the first block's leading pair.  With all
    weights zero this realizes the line graph of h.
    """
    weights = check_weights(h, weights or {})
    combined = generalized_line_graph(h, weights)
    e = _pinned_edge(h, e)
    u, v = e
    entries = _line_body(h, e)
    # The two entries right after the line body take the edge bundles.
    pin_at = len(entries)
    lead = (combined.incident_labels(u), combined.incident_labels(v))
    for bv in (x for x in h.vertices if weights[x] > 0):
        pairs = combined.cocktail_pairs[bv]
        block, lead = _block_entries([p[0] for p in pairs],
                                     [p[1] for p in pairs],
                                     combined.incident_labels(bv), lead)
        entries += block
    cert = _certify(entries, lead, combined.graph,
                    "combined-graph realization")
    pinned = {u: cert.ordering[pin_at], v: cert.ordering[pin_at + 1]}
    return GlgRealization(cert, combined, e, pinned)


# ---------------------------------------------------------------------------
# Single-extra (k = 1) constructions
# ---------------------------------------------------------------------------

def single_extra_unit_realization(h, weights=None):
    """Realize the combined graph with ONE extra vertex when every weight
    is at most one (and at least one is positive); h must be connected.

    The weighted vertices' blocks are threaded into one descending chain
    behind the line-graph realization, each block vertex covering the
    previous one's join edges, with the single extra closing the chain.
    Returns the RealizationCertificate.
    """
    weights = check_weights(h, weights or {})
    support = [x for x in h.vertices if weights[x]]
    if not support:
        raise HypothesisNotMet("at least one weight must be positive")
    if any(weights[x] > 1 for x in h.vertices):
        raise HypothesisNotMet("every weight must be at most one")
    if not h.edges:
        raise HypothesisNotMet("the base graph needs at least one edge")
    if not is_connected(h):
        raise HypothesisNotMet("the base graph must be connected")
    combined = generalized_line_graph(h, weights)
    t = len(support)
    u1 = support[0]
    e = min(normalize_edge(u1, w) for w in h.neighbors(u1))
    other = e[0] if e[1] == u1 else e[1]
    entries = _line_body(h, e)
    qx = [cocktail_label(s, 1, "x") for s in support]
    qy = [cocktail_label(s, 1, "y") for s in support]
    bundles = [combined.incident_labels(s) for s in support]
    entries.append((qy[t - 1], combined.incident_labels(other)))
    entries.append((qx[t - 1], bundles[t - 1] | {qy[t - 1]}))
    for i in range(t - 1, 0, -1):
        entries.append((qy[i - 1], bundles[i] | {qx[i]}))
        entries.append((qx[i - 1], bundles[i - 1] | {qy[i - 1]}))
    return _certify(entries, [bundles[0] | {qx[0]}], combined.graph,
                    "single-extra realization (unit weights)")


def single_extra_edge_realization(h, weights=None):
    """Realize the combined graph with ONE extra vertex when some edge has
    weight one on both of its endpoints; h must be connected.

    When no weight exceeds one, single_extra_unit_realization builds the
    witness.  Otherwise an exact bounded search supplies it (failure to find
    one is reported honestly).  Returns the RealizationCertificate.
    """
    weights = check_weights(h, weights or {})
    if not h.edges:
        raise HypothesisNotMet("the base graph needs at least one edge")
    if not is_connected(h):
        raise HypothesisNotMet("the base graph must be connected")
    if not any(weights[f[0]] == weights[f[1]] == 1 for f in h.edges):
        raise HypothesisNotMet(
            "no edge has weight one on both of its endpoints")
    if max(weights.values()) <= 1:
        return single_extra_unit_realization(h, weights)
    combined = generalized_line_graph(h, weights)
    # Some weight exceeds one; certify with one extra by exact search.
    got = find_realization(combined.graph, 1)
    if got is None:
        raise ConstructionFailed(
            "exhaustive search found no single-extra realization for this "
            "instance; the weighted-edge condition did not suffice here")
    return _certify(*got, combined.graph, "single-extra realization (search)")
