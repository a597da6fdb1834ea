"""Condition checkers and a competition-number classifier for combined graphs.

check_conditions alone decides the one-extra case: its report's one_extra
holds when some edge has weight one at both ends, or no weight exceeds one
and either some weight is one or, with all weights zero, L(H) has a
simplicial vertex (Opsut 1982; L(K2) = K1 needs no extra).  The classifier
takes one path for every weight map.  In order: the single-extra
construction (realization._unit_chain, which only builds) when one_extra
holds, and no other construction: the verdict's two-extra witness is that
witness plus isolated extras (realization._padded).  Every other verdict
carries the paper's two-extra construction (glg_realization), built
first: a pendant-vertex reduction that certifies k = 2, and removes
nothing from a line graph without a simplicial vertex; then the exact
one-extra search (search.find_realization, whose witness comes as a
checked certificate) settles the rest, its evidence under the source
"oracle": the two-extra witness bounds k by two, and a connected graph
with an edge needs an extra.  Only that search can end in an honest
"undetermined", when its node budget runs out or the graph is above its
vertex cap; it runs only with no unit-weight edge and some weight above
one, so no unweighted base is searched.
"""

import heapq
import json

from .errors import BudgetExceeded, HypothesisNotMet
from .glg_builder import (_check_weights, _simplicial_edge,
                          generalized_line_graph)
from .graph_core import _tails, is_connected, simplicial_vertices
from .realization import _padded, _unit_chain, glg_realization
from .search import DEFAULT_BUDGET, find_realization

EXACTLY_ZERO = "exactly-zero"
EXACTLY_ONE = "exactly-one"
EXACTLY_TWO = "exactly-two"
UNDETERMINED = "at-most-two-undetermined"

class ConditionReport:
    """Necessary/sufficient condition flags for a weighted base instance."""

    __slots__ = ("has_unit_weight", "zero_weight_anchor_simplicial",
                 "unit_weight_edge", "all_weights_unit", "hypotheses")

    def __init__(self, has_unit_weight, zero_weight_anchor_simplicial,
                 unit_weight_edge, all_weights_unit, hypotheses):
        self.has_unit_weight = has_unit_weight
        self.zero_weight_anchor_simplicial = zero_weight_anchor_simplicial
        self.unit_weight_edge = unit_weight_edge
        self.all_weights_unit = all_weights_unit
        self.hypotheses = dict(hypotheses)

    @property
    def one_extra(self):
        """The flags meet a sufficient condition for one extra (or none)."""
        return bool(self.unit_weight_edge) or self.all_weights_unit and (
            self.has_unit_weight or self.zero_weight_anchor_simplicial)

    def json_text(self):
        """The report document as JSON text, as json.dumps(...,
        sort_keys=True) writes it."""
        return json.dumps({
            "kind": "condition_report",
            "has_unit_weight": self.has_unit_weight,
            "zero_weight_anchor_simplicial": self.zero_weight_anchor_simplicial,
            "unit_weight_edge": list(self.unit_weight_edge)
                                if self.unit_weight_edge else None,
            "all_weights_unit": self.all_weights_unit,
            "hypotheses": self.hypotheses,
        }, sort_keys=True)


def check_conditions(h, weights=None):
    """Evaluate the classifier's condition flags on (h, weights).

    * has_unit_weight: some vertex has weight exactly one.
    * zero_weight_anchor_simplicial: some zero-weight vertex has an incident
      edge bundle containing a simplicial vertex of the combined graph.
      That is an edge whose ends both have weight zero and whose line-graph
      vertex is simplicial: a block's partners are non-adjacent, so an edge
      vertex joined to a block is never simplicial.
    * unit_weight_edge: the smallest edge whose two endpoints both have
      weight one, if any.
    * all_weights_unit: no weight exceeds one.

    Hypothesis failures are recorded, never raised; no graph is built,
    and the base is read by its rows.
    """
    weights = _check_weights(h, weights or {})  # by position
    rows = h._rows
    edges = [(i, j) for i, tail in enumerate(_tails(h)) for j in tail]
    zero_anchor = any(weights[i] == weights[j] == 0 and
                      _simplicial_edge(rows, i, j) for i, j in edges)
    edge = next(((h.vertices[i], h.vertices[j]) for i, j in edges
                 if weights[i] == weights[j] == 1), None)
    hypotheses = {
        "connected": is_connected(h),
        "has_edge": any(rows),
    }
    return ConditionReport(
        1 in weights, zero_anchor, edge, all(m <= 1 for m in weights),
        hypotheses)


def _connected_report(h, weights):
    """The condition report of an instance whose base is connected and has
    an edge; raises HypothesisNotMet otherwise."""
    report = check_conditions(h, weights)
    if not report.hypotheses["has_edge"]:
        raise HypothesisNotMet("the base graph needs at least one edge")
    if not report.hypotheses["connected"]:
        raise HypothesisNotMet("the base graph must be connected")
    return report


def single_extra_realization(h, weights=None):
    """Realize the combined graph with ONE extra vertex, or none for K2,
    without search; raises HypothesisNotMet unless the condition report of
    a connected base says that one extra applies.  Returns the certificate.
    """
    report = _connected_report(h, weights)
    if not report.one_extra:
        raise HypothesisNotMet(
            "no vertex of the line graph is simplicial, so one extra cannot "
            "suffice" if report.all_weights_unit else
            "one extra needs an edge with weight one at both ends, or no "
            "weight above one")
    return _unit_chain(generalized_line_graph(h, weights or {}),
                       report.unit_weight_edge)


def pendant_reduce(graph):
    """Repeatedly delete degree-one vertices, keeping at least two vertices.

    Pendant deletion preserves the competition number (for connected graphs
    landing on at least two vertices).  Returns (reduced, removed) with the
    deletions in order, the smallest current pendant first; deletion order
    does not affect the result.  One pass over the rows: a heap holds the
    current pendants' positions, which pop in label order, and a deletion
    lowers only its live neighbour's degree.  In a
    connected graph that neighbour keeps an edge while more than two
    vertices are left, so a popped vertex is still a pendant.  When none
    is deleted, reduced is graph itself: a Graph is immutable, so no copy
    is made.
    """
    if not is_connected(graph):
        raise HypothesisNotMet("pendant reduction requires a connected graph")
    rows = graph._rows
    degree = dict(enumerate(map(len, rows)))  # position -> live degree
    pendants = [i for i, d in degree.items() if d == 1]  # sorted: a heap
    removed = []
    while len(degree) > 2 and pendants:
        victim = heapq.heappop(pendants)
        removed.append(victim)
        del degree[victim]
        for u in rows[victim]:
            if u in degree:
                degree[u] -= 1
                if degree[u] == 1:
                    heapq.heappush(pendants, u)
    if not removed:
        return graph, ()
    name = graph.vertices.__getitem__
    return graph.induced(map(name, degree)), tuple(map(name, removed))


class Verdict:
    """Classifier outcome with its evidence chain and checkable witnesses."""

    __slots__ = ("k_value", "evidence", "certificates")

    def __init__(self, k_value, evidence, certificates):
        self.k_value = k_value
        self.evidence = list(evidence)
        self.certificates = dict(certificates)

    def json_text(self):
        """The verdict document as JSON text, exactly as
        json.dumps(..., sort_keys=True) writes it, with each certificate's
        own text spliced in."""
        certificates = ", ".join(
            "%s: %s" % (json.dumps(name), self.certificates[name].json_text())
            for name in sorted(self.certificates))
        evidence = json.dumps([{"claim": claim, "source": source}
                               for claim, source in self.evidence],
                              sort_keys=True)
        return ('{"certificates": {%s}, "evidence": %s, "k_value": %s, '
                '"kind": "verdict"}'
                % (certificates, evidence, json.dumps(self.k_value)))


def classify(h, weights=None, budget=None):
    """Decide the competition number of the combined graph of (h, weights).

    Requires h connected with at least one edge.  Returns a Verdict; the
    value is exact whenever a verified witness plus a matching lower bound
    exist, and honestly undetermined otherwise.  Every verdict holds a
    two-extra witness: for a one-extra or zero verdict it is the
    single-extra witness plus isolated extras, and for every other the
    paper's two-extra construction.
    """
    report = _connected_report(h, weights)
    budget = budget or DEFAULT_BUDGET

    if report.one_extra:
        # With no positive weight the report says that L(H) has a
        # simplicial vertex: the chain then needs one extra, or none for
        # L(K2) = K1.
        cert = _unit_chain(generalized_line_graph(h, weights or {}),
                           report.unit_weight_edge)
        certificates = {"two_extra": _padded(cert, 2), "single_extra": cert}
        evidence = [("two-extra witness: the single-extra witness with an "
                     "isolated extra added, so competition number is at "
                     "most two", "single-extra-construction")]
        if not cert.k:
            evidence.append(("witness with no extra: the line graph of one "
                             "edge", "single-extra-construction"))
            return Verdict(EXACTLY_ZERO, evidence, certificates)
        evidence += [
            ("single-extra witness: competition number is at most one",
             "single-extra-construction"),
            ("the graph has edges and no isolated vertex, so at least one "
             "extra is needed", "lower-bound")]
        return Verdict(EXACTLY_ONE, evidence, certificates)

    two = glg_realization(h, weights)
    target = two.combined.graph
    certificates = {"two_extra": two.certificate}
    evidence = [("two-extra witness: competition number is at most two",
                 "two-extra-construction")]

    reduced, removed = pendant_reduce(target)
    # An isolated vertex is simplicial too: its empty neighbourhood is a
    # clique.  A line graph without a simplicial vertex has no pendant, so
    # nothing is removed and this is Opsut's condition for two extras.
    if not simplicial_vertices(reduced):
        evidence.append(
            ("after deleting pendants %s the graph has neither a simplicial "
             "nor an isolated vertex, so at least two extras are needed"
             % (list(removed),), "pendant-reduction"))
        return Verdict(EXACTLY_TWO, evidence, certificates)
    # Some weight exceeds one and no edge has weight one at both ends, so
    # the target has an edge and, being connected, no isolated vertex:
    # k >= 1, and one exact search for one extra settles it.
    if len(target.vertices) + 1 > budget.max_total_vertices:
        evidence.append(("%d vertices and 1 extra exceed the search budget"
                         % len(target.vertices), "oracle"))
        return Verdict(UNDETERMINED, evidence, certificates)
    try:
        cert = find_realization(target, 1, budget)
    except BudgetExceeded as exc:
        evidence.append(("exact search exhausted its budget (lower bound "
                         "1): %s" % exc, "oracle"))
        return Verdict(UNDETERMINED, evidence, certificates)
    if cert is None:
        evidence.append(("exhaustive search refuted one extra, so the value "
                         "is two", "oracle"))
        return Verdict(EXACTLY_TWO, evidence, certificates)
    certificates["oracle_witness"] = cert
    evidence.append(("exhaustive search settled the value at 1", "oracle"))
    return Verdict(EXACTLY_ONE, evidence, certificates)
