"""Constructions that realize graphs as competition graphs of acyclic digraphs.

Every witness, built here or found by search, is a "body": a list of
(vertex, clique) entries in placement order, where the clique is the
in-neighborhood assigned to that vertex and must lie among earlier entries,
followed by a tail of cliques for the extra vertices.  Reading the cliques
as in-neighborhoods yields an acyclic digraph whose competition graph is the
union of those cliques' pairwise edges.  A body names each vertex by its
position: the target's vertices are 0..N-1, their positions in its sorted
label tuple, and the extras N.. after them, so a body comes with the tuple
of its labels (the target's, then the extras').  The constructions build
their bodies in positions from the start, with the combined graph's
positions (glg_builder.CombinedGraph) and frozensets of them as cliques,
and the search builds its witness in the same form.  Only a digraph
given to verify_realization names its vertices by label; it goes through
the one label-to-position step, _positions: each vertex takes its
position in the target, the others the next ones in body order, and an
in-neighbor that no entry names a position past them, so the check, not
the step, refuses it.

Each check has one owner: _check_body checks a position body in one walk
and a few set tests.  Each clique lies among earlier entries (so the body
order is an acyclic ordering, and no clique holds a loop or a vertex that
no entry places), the vertices are distinct, every target vertex is placed,
the others are strings numbering k, and the cliques' pairs are exactly the
target's edges, with no graph built for either side: each clique is added
to its members' covers, each of which must be the member's row in the
target plus its own position (an extra's, its own position alone), and
pairs are listed, by label, only when they differ.  Its messages name
vertices by label.  The certificate's constructor runs that check, so a
certificate exists only checked, and keeps the checked body with its
labels: the body is its own representation, and the Digraph is built only
when the certificate's digraph is read.  _certify gives the tail's extras
the positions N.. and fresh labels and builds the certificate.  The
certificate's one JSON writer, json_text, writes the document as text
straight from the body (each tail's heads, read in label order) and the
base graph's rows (graph_core._graph_text), encoding each label once, by
position, byte for byte what json.dumps(..., sort_keys=True) writes.
Every construction, and the search, returns its certificate, so a flaw in
a scheme surfaces as ConstructionFailed rather than a bad witness.
verify_realization, for digraphs from outside (whose constructor has
checked their labels and arcs), computes the lexicographically smallest
acyclic ordering and builds the certificate from each vertex with its
in-neighborhood, in that order.

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
The schedule reads the base by its rows: base vertices are positions, an
edge is a pair (x, y) of them with x < y, so the BFS runs over the rows
and one sort of (-distance, x, y) int triples orders the edges, as the
labels order them; no label view of the base is built.

The pinned edge e = uv roots its component; S_u and S_v are handed on to
the next stage.  Another component is rooted at its smallest edge f = xy
whose line-graph vertex is simplicial (glg_builder's rule, read on the
base's rows) and hands on the clique S_x+S_y, which is N[f], unless that
is {f}; with no such edge it is rooted at its largest and hands on S_x
and S_y.  Components go by the number of cliques they hand on, most
first, ties by their largest edges, the largest first, and e's last,
and each position takes the oldest clique waiting.  So at most
two wait when a component begins, and one with two or more edges takes
them at its first two positions and ends with only its own handed cliques
waiting.  Cliques are left over only when e is a lone edge and two wait
for its one position; then the construction refuses the pin with
HypothesisNotMet: the refusal is a property of the base and the pin, not a
flaw in the scheme.  With no pin every component is rooted as an
other one, and the cliques left waiting are the extras': for a connected
base, none for K2, one if L(H) has a simplicial vertex (Opsut), else two.

The one-extra construction only builds, in the case that the report of
analysis.check_conditions decides (the refusals are the report's), and
ends in one chain of weight-one blocks.  A weight-one block at s is a partner
pair x, y joined to S_s: y takes the waiting clique, x takes S_s+{y}, and
S_s+{x} is handed on to the next block; the single extra takes the last.
x's clique covers the star S_s, so the line body may leave the stars at
both ends of its pin to the chain.  The cases go in this order.

* Some edge has weight one at both ends, whatever the other weights: pin
  the smallest such edge e = uv and build the body in this order:

  * the line body pinned at e, with e's own entry, the last, taken off;
    the clique P it would have taken is left waiting;
  * every block of weight two or more, in vertex order, with the lead
    pair (P, {});
  * e's vertex, which takes the first clique the last block hands on; the
    second starts the chain.

  No bundle of a heavy vertex contains e, so the heavy blocks can come
  before e's vertex; the blocks at u and v cover S_u and S_v, and those
  are the only cliques with e that the chain places, after e's vertex.
* Else no weight is above one.  If some weight is one, the body is the
  line body pinned at the smallest edge at the first weight-one vertex,
  and the chain starts with the bundle at the other end of that edge.
* Else all weights are zero and L(H) has a simplicial vertex: the body is
  the unpinned line body, with no extra for K2 and one otherwise.
"""

import bisect
import collections
import itertools
import json

from .errors import (CompetitionMismatch, ConstructionFailed, GlgError,
                     HypothesisNotMet, InvalidInput, SchemaError,
                     UnknownVertex)
from .graph_core import (Digraph, _graph_text, _json_string, _pairs_text,
                         acyclic_ordering, normalize_edge)
from .glg_builder import (_simplicial_edge, cocktail_party,
                          generalized_line_graph)


class RealizationCertificate:
    """A checked witness that C(D) equals a base graph plus isolated extras.

    The constructor checks the body (_check_body) and raises its errors,
    so every certificate is checked.  It stores the checked body: body
    lists every vertex of D, the extras included, by position with its
    in-neighborhood, in placement order, and labels names each position
    (base.vertices, then the extras), the vertices of D; added holds the
    extras' labels, sorted.  digraph builds D from the body on first read
    and keeps it, unless it is given; json_text writes the document,
    placement order included, straight from the body and the base.
    """

    __slots__ = ("body", "labels", "base", "k", "added", "_digraph")

    def __init__(self, body, labels, base, k, digraph=None):
        self.added = tuple(_check_body(body, labels, base, k))
        self.body = body
        self.labels = labels
        self.base = base
        self.k = k
        self._digraph = digraph

    @property
    def digraph(self):
        if self._digraph is None:
            name = self.labels.__getitem__
            self._digraph = Digraph(self.labels,
                                    ((name(x), name(v))
                                     for v, clique in self.body
                                     for x in clique))
        return self._digraph

    def json_text(self):
        """The certificate document as JSON text, exactly as
        json.dumps(..., sort_keys=True) writes it: each label is encoded
        once, by position, the arcs are read into per-tail buckets of
        heads, and the base edges from the base graph.  The heads are read
        in label order, so each bucket fills sorted."""
        labels, body = self.labels, self.body
        n = len(self.base.vertices)
        codes = list(map(_json_string, labels))
        order = sorted(range(len(labels)), key=labels.__getitem__)
        cliques = [None] * len(labels)
        for v, clique in body:
            cliques[v] = clique
        heads = [[] for _ in labels]
        for v in order:
            head = codes[v]
            for x in cliques[v]:
                heads[x].append(head)
        arcs = _pairs_text([(codes[x], heads[x]) for x in order])
        return ('{"added": [%s], "base_graph": %s, "digraph": {"arcs": %s, '
                '"kind": "digraph", "vertices": [%s]}, "k": %s, '
                '"kind": "realization_certificate", "ordering": [%s]}'
                % (", ".join(map(_json_string, self.added)),
                   _graph_text(self.base, codes[:n]), arcs,
                   ", ".join([codes[x] for x in order]), json.dumps(self.k),
                   ", ".join([codes[v] for v, _ in body])))


def _positions(entries, base):
    """The label-to-position step for a label body, such as
    verify_realization's digraph: returns (body, labels), the body with
    each vertex named by its position in labels.  Each label of base takes
    its position in base.vertices, each other vertex the next position in
    body order, and an in-neighbor that is no vertex the next one after
    those.  Nothing is checked here: a
    repeated label takes one position twice, and _check_body refuses that
    as it refuses an unknown in-neighbor or a non-string label, with the
    same errors and messages and in the same order as by label."""
    index = dict(base._index)
    for v, _ in entries:
        index.setdefault(v, len(index))
    body = [(index[v], frozenset([index.setdefault(x, len(index))
                                  for x in clique]))
            for v, clique in entries]
    return body, tuple(index)


def _check_body(entries, labels, base, k):
    """Check that a body realizes base plus k isolated extras; return the
    extras' labels, sorted.

    entries is the list of (vertex, in-neighborhood) entries in placement
    order, each vertex named by its position in labels, whose first
    len(base.vertices) are base's: a construction's or the search's body
    as built, or verify_realization's digraph put in positions by
    _positions, which leaves every refusal to this check.  One walk checks
    that each clique lies among earlier entries and adds each clique of
    two or more members, once however often it recurs, to the cover of
    each member; a clique that does not lie among earlier entries is
    refused as a loop, as naming a vertex that no entry places, or as out
    of order.  Then the
    vertices must be distinct, every base vertex must be placed, the other
    vertices' labels must be strings (the base's labels are) numbering k,
    and each base vertex's cover, less its own position, must be its row
    in base, and each extra's its own position alone: so the cliques' pairs
    are exactly base.edges.  Raises SchemaError for a loop or a repeated or
    non-string label, UnknownVertex for an unknown in-neighbor,
    InvalidInput for the other malformed bodies, and CompetitionMismatch,
    listing missing and extra edges, for a wrong one; only then are the
    cliques' pairs listed.  Every message names vertices by label.
    """
    name = labels.__getitem__
    cover = [{i} for i in range(len(labels))]  # own position | its cliques'
    placed = set()
    seen = set()  # the cliques already added: a repeat adds no pair
    for v, clique in entries:
        if not placed.issuperset(clique):
            late = set(clique) - placed
            if v in late:
                raise SchemaError("loop arc at %r is not allowed" % (name(v),))
            unknown = late.difference(u for u, _ in entries)
            if unknown:
                raise UnknownVertex("arc tail %r is not a vertex"
                                    % (min(map(name, unknown)),))
            raise InvalidInput("not an acyclic ordering: %r comes before its "
                               "in-neighbor %r"
                               % (name(v), min(map(name, late))))
        placed.add(v)
        if len(clique) > 1 and clique not in seen:
            seen.add(clique)
            for i in clique:
                cover[i] |= clique
    if len(placed) != len(entries):
        raise SchemaError("duplicate vertex labels")
    n = len(base.vertices)
    if not placed.issuperset(range(n)):
        raise InvalidInput("digraph is missing base vertices: %r"
                           % [name(i) for i in range(n) if i not in placed])
    added = list(map(name, placed.difference(range(n))))
    for z in added:
        if not isinstance(z, str):
            raise SchemaError("vertex labels must be strings, got %r" % (z,))
    added.sort()
    if len(added) != k:
        raise InvalidInput("expected %d extra vertices, found %d" % (k, len(added)))
    # The extras are isolated in the target, so its edges are base.edges.
    # Each cover holds its own position, so the covers are the rows (none
    # for an extra) plus those exactly when each holds its row and they are
    # one longer each.
    rows = base._rows
    if not all(map(set.issuperset, cover, rows)) \
            or sum(map(len, cover)) != sum(map(len, rows)) + len(cover):
        pairs = set()
        for _, clique in entries:
            pairs.update(itertools.combinations(sorted(map(name, clique)), 2))
        missing = base.edges - pairs
        extra = pairs - base.edges
        raise CompetitionMismatch(
            "competition graph differs from target: %d missing, %d extra edges"
            % (len(missing), len(extra)), missing, extra)
    return added


def verify_realization(digraph, base, k):
    """Check that digraph is acyclic and C(digraph) = base plus k isolated.

    Returns a RealizationCertificate whose body follows acyclic_ordering,
    the lexicographically smallest ordering; raises CyclicDigraph with a
    cycle witness, InvalidInput for missing base vertices or a wrong number
    of extras, or CompetitionMismatch listing missing/extra edges.  The
    digraph is checked as the body of its vertices and in-neighborhoods in
    that order, put in positions (_positions) and certified.
    """
    body, labels = _positions([(v, digraph.in_neighbors(v))
                               for v in acyclic_ordering(digraph)], base)
    return RealizationCertificate(body, labels, base, k, digraph)


def _fresh_labels(taken, count):
    """`count` labels of the form z1, z2, ... not in the container taken."""
    out = []
    i = 1
    while len(out) < count:
        cand = "z%d" % i
        if cand not in taken:
            out.append(cand)
        i += 1
    return out


def _certify(entries, tail, base, what):
    """The certificate of a body: its (vertex, clique) entries in order,
    in positions of base, then one extra per clique of `tail`, at positions
    len(base.vertices).. and named by _fresh_labels above against the base's
    label index.

    The certificate checks the body, with the body order as the ordering,
    and keeps it; no Digraph is built.  Any failure is a flaw in the
    construction or the search (`what`), raised as ConstructionFailed.
    """
    k = len(tail)
    n = len(base.vertices)
    body = [*entries, *zip(range(n, n + k), tail)]
    labels = base.vertices + tuple(_fresh_labels(base._index, k))
    try:
        return RealizationCertificate(body, labels, base, k)
    except GlgError as exc:
        raise ConstructionFailed("%s produced an invalid witness: %s"
                                 % (what, exc)) from exc


def _padded(cert, k):
    """The certificate of cert's body with k extras: its real entries, then
    its tail padded with empty cliques.  An extra with no in-neighbour adds
    no edge to the competition graph, so a witness with fewer extras, such
    as a one-extra or zero verdict's single-extra witness, plus isolated
    extras is a witness with k.  The new body goes through _certify and its
    check like every other."""
    n = len(cert.base.vertices)
    tail = [clique for _, clique in cert.body[n:]]
    tail += [frozenset()] * (k - cert.k)
    return _certify(cert.body[:n], tail, cert.base,
                    "%d-extra padding" % k)


# ---------------------------------------------------------------------------
# Line-graph realization (two extras with pinned in-neighborhoods)
# ---------------------------------------------------------------------------

def _schedule(bundles, rows, root):
    """The star schedule rooted at a base edge: (edges, released), its
    component's edges in order and the stars (at most one) each position
    releases.  Base vertices are positions: rows are the base's, bundles
    the combined graph's, and root and each edge are pairs (x, y), x < y."""
    dist = dict.fromkeys(root, 0)
    frontier = list(root)
    for x in frontier:  # grows while it is read: a BFS queue
        d = dist[x] + 1
        for y in rows[x]:
            if y not in dist:
                dist[y] = d
                frontier.append(y)
    x0, y0 = root
    keyed = sorted([(-min(dx, dist[y]), x, y)
                    for x, dx in dist.items() for y in rows[x]
                    if x < y and (x != x0 or y != y0)])
    edges = [(x, y) for _, x, y in keyed]
    edges.append(root)
    last = {}
    for i, (x, y) in enumerate(edges):
        last[x] = last[y] = i
    released = [()] * len(edges)
    for w, i in last.items():
        if w != x0 and w != y0 and len(rows[w]) >= 2:
            released[i] = (bundles[w],)
    return edges, released


def _line_body(combined, e=None):
    """Realize the line graph of the base as a body: (body, waiting), where
    waiting lists the cliques left for the extras.

    The chain of star schedules of the module docstring, in one pass; the
    stars, the handed-on cliques and the entries' positions are those the
    combined graph holds.  With a pinned base edge e, a pair of base
    positions, nothing is left waiting, and two extras can take the edge
    bundles at its endpoints.  The base is read by its rows.
    """
    h = combined.base
    rows, bundles = h._rows, combined.bundles
    pinned = [] if e is None else [_schedule(bundles, rows, e) + ([],)]
    seen = {x for edges, _, _ in pinned for f in edges for x in f}
    chain = []
    # Each other component starts at its largest edge: (i, i's last
    # neighbour) for its largest i with a later neighbour.
    for i in range(len(rows) - 1, -1, -1):
        if i in seen or not rows[i] or rows[i][-1] < i:
            continue
        f = (i, rows[i][-1])
        edges, released = _schedule(bundles, rows, f)
        seen.update(x for g in edges for x in g)
        root = min((g for g in edges if _simplicial_edge(rows, *g)),
                   default=None)
        if root is None:
            handed = [bundles[x] for x in f]
        else:
            edges, released = _schedule(bundles, rows, root)
            clique = bundles[root[0]] | bundles[root[1]]
            handed = [clique] if len(clique) > 1 else []
        chain.append((edges, released, handed))
    chain.sort(key=lambda part: -len(part[2]))
    waiting = collections.deque()
    body = []
    positions, empty = combined.edge_positions, frozenset()
    for edges, released, handed in chain + pinned:
        for f, stars in zip(edges, released):
            body.append((positions[f],
                         waiting.popleft() if waiting else empty))
            waiting.extend(stars)
        waiting.extend(handed)
    if pinned and waiting:
        raise HypothesisNotMet(
            "edge %r is a component of its own, and the other components "
            "hand on more cliques than its one position can take"
            % (tuple(map(h.vertices.__getitem__, e)),))
    return body, list(waiting)


def _pinned_edge(h, e):
    """The base edge whose endpoint bundles get pinned, as a pair of
    positions: e, given by label, or else the smallest edge that is not a
    component of its own, if there is one."""
    rows = h._rows
    if not any(rows):
        raise HypothesisNotMet("the base graph needs at least one edge")
    if e is None:
        # The smallest edge at each vertex with a later neighbour, in
        # order; one that is a component of its own is both ends' only edge.
        lone = None
        for i, row in enumerate(rows):
            if row and row[-1] > i:
                j = row[bisect.bisect(row, i)]
                if len(row) > 1 or len(rows[j]) > 1:
                    return i, j
                lone = lone or (i, j)
        return lone
    e = normalize_edge(*e)
    i, j = map(h._index.get, e)
    if i is None or j is None or j not in rows[i]:
        raise SchemaError("%r is not an edge of the base graph" % (e,))
    return i, j


# ---------------------------------------------------------------------------
# Cocktail-party blocks and the combined-graph realization with two extras
# ---------------------------------------------------------------------------

def _block_entries(pairs, a, lead):
    """Body entries for one cocktail-party block joined to the anchor
    clique `a`, a frozenset.

    pairs are the block's partner pairs (x, y) by level, and lead =
    (P1, P2) the two cliques handed on by the previous stage (see the
    module docstring).  Returns (entries, handed) where handed is the pair
    of cliques this block hands on.
    """
    p1, p2 = lead
    xs, ys = zip(*pairs)
    if len(xs) == 1:
        x, y = xs[0], ys[0]
        return [(x, p1), (y, p2)], (a | {x}, a | {y})
    xset = frozenset(xs)
    entries = [(xs[0], p1), (xs[1], p2)] + [(x, a) for x in xs[2:]]
    entries.append((ys[0], a | xset))
    for l in range(1, len(xs)):
        entries.append((ys[l], a | (xset - {xs[l - 1]}) | {ys[l - 1]}))
    return entries, (a | frozenset(ys), a | frozenset(xs[:-1]) | {ys[-1]})


def cp_realization(m):
    """Realize the cocktail-party graph on 2m vertices with two extras.

    The block's entries with an empty anchor and an empty lead pair, then
    the two extras; returns the RealizationCertificate.
    """
    g, pairs = cocktail_party(m)
    pairs = [(g._index[x], g._index[y]) for x, y in pairs]
    empty = frozenset()
    entries, handed = _block_entries(pairs, empty, (empty, empty))
    return _certify(entries, handed, g, "cocktail-party realization")


class GlgRealization:
    """Result of the two-extra construction for a combined graph.

    pinned maps each endpoint of the chosen base edge, in order, to the
    digraph vertex whose in-neighborhood is exactly that endpoint's
    incident edge bundle.
    When some weight is positive those two vertices are real (the first
    block's leading pair); otherwise they are the extra pair `added`.
    added and digraph read through to the certificate's; the digraph is
    built on first read.
    """

    __slots__ = ("combined", "pinned", "certificate")

    def __init__(self, certificate, combined, pinned):
        self.combined = combined
        self.pinned = dict(pinned)
        self.certificate = certificate

    @property
    def added(self):
        return self.certificate.added

    @property
    def digraph(self):
        return self.certificate.digraph


def glg_realization(h, weights=None, e=None):
    """Realize the combined graph of (h, weights) with two extra vertices.

    One body: the line-graph entries, each weighted vertex's block entries
    in vertex order, then the two extras; certified once.  The two vertices
    pinned to the chosen edge's endpoint bundles are the extras when all
    weights are zero, otherwise the first block's leading pair.  With all
    weights zero this realizes the line graph of h.
    """
    combined = generalized_line_graph(h, weights or {})
    e = _pinned_edge(h, e)
    entries, _ = _line_body(combined, e)
    # The two entries right after the line body take the edge bundles.
    pin_at = len(entries)
    bundles = combined.bundles
    lead = (bundles[e[0]], bundles[e[1]])
    for i, block in enumerate(combined.pairs):
        if block:
            block, lead = _block_entries(block, bundles[i], lead)
            entries += block
    cert = _certify(entries, lead, combined.graph,
                    "combined-graph realization")
    name, body = cert.labels, cert.body
    u, v = map(h.vertices.__getitem__, e)
    pinned = {u: name[body[pin_at][0]], v: name[body[pin_at + 1][0]]}
    return GlgRealization(cert, combined, pinned)


# ---------------------------------------------------------------------------
# Single-extra (k = 1) construction
# ---------------------------------------------------------------------------

def _unit_chain(combined, e):
    """The one-extra body of the module docstring, certified, with e the
    report's unit edge, by label, or None; one extra must apply
    (ConstructionFailed)."""
    rows = combined.base._rows
    pairs, bundles = combined.pairs, combined.bundles
    units = [i for i, block in enumerate(pairs) if len(block) == 1]
    if e is not None:
        e = tuple(map(combined.base._index.__getitem__, e))
        entries, _ = _line_body(combined, e)
        _, clique = entries.pop()
        lead = (clique, frozenset())
        for i, block in enumerate(pairs):
            if len(block) > 1:
                block, lead = _block_entries(block, bundles[i], lead)
                entries += block
        entries.append((combined.edge_positions[e], lead[0]))
        waiting = lead[1]
        what = "single-extra realization (unit edge)"
    elif units:
        # The smallest edge at the first unit vertex s joins it to its
        # smallest neighbour w.
        s = units[0]
        w = rows[s][0]
        entries, _ = _line_body(combined, (min(s, w), max(s, w)))
        waiting = bundles[w]
        what = "single-extra realization (unit weights)"
    else:
        entries, tail = _line_body(combined)
        if len(tail) > 1:
            raise ConstructionFailed("the line body left %d cliques for "
                                     "one extra" % len(tail))
        return _certify(entries, tail, combined.graph,
                        "single-extra realization (line graph)")
    for s in reversed(units):
        (x, y), = pairs[s]
        bundle = bundles[s]
        entries += [(y, waiting), (x, bundle | {y})]
        waiting = bundle | {x}
    return _certify(entries, [waiting], combined.graph, what)
