"""Condition checkers and a competition-number classifier for combined graphs.

The classifier decides k for a weighted base instance using, in order:
the exact line-graph dichotomy when all weights are zero, the single-extra
construction when no weight exceeds one, a pendant-vertex reduction that
certifies k = 2, and one exact search.  The two-extra witness bounds k by
two and a connected graph with an edge needs one extra, so a single
one-extra search settles the rest: a witness gives k = 1, a refutation
k = 2.  When some edge has weight one at both ends that search runs at any
size; otherwise it is the oracle, which declines a graph above the
search's vertex cap.  Only an exhausted node budget, or that cap, ends in
an honest "undetermined".
"""

from .errors import BudgetExceeded, HypothesisNotMet, NotConnected
from .glg_builder import check_weights, is_simplicial_edge
from .graph_core import is_connected, simplicial_vertices
from .oracle import realization_search
from .realization import glg_realization, single_extra_unit_realization
from .search import DEFAULT_BUDGET

EXACTLY_ZERO = "exactly-zero"
EXACTLY_ONE = "exactly-one"
EXACTLY_TWO = "exactly-two"
UNDETERMINED = "at-most-two-undetermined"

# The evidence of a one-extra witness on a connected graph with an edge.
SINGLE_EXTRA_EVIDENCE = (
    ("single-extra witness: competition number is at most one",
     "single-extra-construction"),
    ("the graph has edges and no isolated vertex, so at least one extra is "
     "needed", "lower-bound"))


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

    def to_json(self):
        return {
            "kind": "condition_report",
            "has_unit_weight": self.has_unit_weight,
            "zero_weight_anchor_simplicial": self.zero_weight_anchor_simplicial,
            "unit_weight_edge": list(self.unit_weight_edge)
                                if self.unit_weight_edge else None,
            "all_weights_unit": self.all_weights_unit,
            "hypotheses": dict(self.hypotheses),
        }


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

    Hypothesis failures are recorded, never raised; no graph is built.
    """
    weights = check_weights(h, weights or {})
    has_unit = any(weights[v] == 1 for v in h.vertices)
    zero_anchor = any(weights[a] == weights[b] == 0 and
                      is_simplicial_edge(h, (a, b)) for a, b in h.edges)
    unit_edges = sorted(f for f in h.edges
                        if weights[f[0]] == 1 and weights[f[1]] == 1)
    hypotheses = {
        "connected": is_connected(h),
        "has_edge": bool(h.edges),
        "weights_positive": any(weights[v] for v in h.vertices),
    }
    return ConditionReport(
        has_unit, zero_anchor,
        unit_edges[0] if unit_edges else None,
        all(weights[v] <= 1 for v in h.vertices),
        hypotheses)


def pendant_reduce(graph):
    """Repeatedly delete degree-one vertices, keeping at least two vertices.

    Pendant deletion preserves the competition number (for connected graphs
    landing on at least two vertices).  Returns (reduced, removed) with the
    deletions in order; deletion order does not affect the result.
    """
    if not is_connected(graph):
        raise NotConnected("pendant reduction requires a connected graph")
    removed = []
    current = graph
    while len(current.vertices) > 2:
        pendants = sorted(v for v in current.vertices if current.degree(v) == 1)
        if not pendants:
            break
        victim = pendants[0]
        removed.append(victim)
        current = current.induced(set(current.vertices) - {victim})
    return current, tuple(removed)


class Verdict:
    """Classifier outcome with its evidence chain and checkable witnesses."""

    __slots__ = ("k_value", "evidence", "certificates")

    def __init__(self, k_value, evidence, certificates):
        self.k_value = k_value
        self.evidence = list(evidence)
        self.certificates = dict(certificates)

    def to_json(self):
        return {
            "kind": "verdict",
            "k_value": self.k_value,
            "evidence": [{"claim": claim, "source": source}
                         for claim, source in self.evidence],
            "certificates": {name: cert.to_json()
                             for name, cert in self.certificates.items()},
        }


def classify(h, weights=None, budget=None):
    """Decide the competition number of the combined graph of (h, weights).

    Requires h connected with at least one edge.  Returns a Verdict; the
    value is exact whenever a verified witness plus a matching lower bound
    exist, and honestly undetermined otherwise.
    """
    weights = check_weights(h, weights or {})
    if not h.edges:
        raise HypothesisNotMet("the base graph needs at least one edge")
    if not is_connected(h):
        raise HypothesisNotMet("the base graph must be connected")
    budget = budget or DEFAULT_BUDGET

    evidence = []
    certificates = {}
    two = glg_realization(h, weights)
    target = two.combined.graph
    certificates["two_extra"] = two.certificate
    evidence.append(("two-extra witness: competition number is at most two",
                     "two-extra-construction"))
    positive = any(weights[v] for v in h.vertices)

    def settle(k, name, found):
        # One exact search for k extras, the least value left: a witness
        # (stored under `name`, with the claims `found`) gives k, a
        # refutation two, and an exhausted node budget undetermined.
        try:
            cert = realization_search(target, k, budget)
        except BudgetExceeded:
            evidence.append(("exact search exhausted its budget (lower bound "
                             "%d)" % k, "oracle"))
            return Verdict(UNDETERMINED, evidence, certificates)
        if cert is None:
            evidence.append(("exhaustive search refuted one extra, so the "
                             "value is two", "oracle"))
            return Verdict(EXACTLY_TWO, evidence, certificates)
        certificates[name] = cert
        evidence.extend(found)
        return Verdict(EXACTLY_ONE if k else EXACTLY_ZERO, evidence,
                       certificates)

    def oracle_verdict():
        # The two-extra witness caps k at two, and a target with an edge has
        # no isolated vertex (it is connected), so k >= 1: one search at the
        # least value settles it.  Only L(K2) = K1 has no edge, and k = 0.
        k = 1 if target.edges else 0
        if k > budget.max_k or \
                len(target.vertices) + k > budget.max_total_vertices:
            evidence.append(("%d vertices and %d extra exceed the search "
                             "budget" % (len(target.vertices), k), "oracle"))
            return Verdict(UNDETERMINED, evidence, certificates)
        return settle(k, "oracle_witness", [
            ("exhaustive search settled the value at %d" % k, "oracle")])

    if not positive:
        # Pure line graph: value is two exactly when no simplicial vertex
        # exists; otherwise it is below two and the oracle picks 0 vs 1.
        if not simplicial_vertices(target):
            evidence.append(
                ("no simplicial vertex, so at least two extras are needed",
                 "no-simplicial-or-isolated"))
            return Verdict(EXACTLY_TWO, evidence, certificates)
        return oracle_verdict()

    report = check_conditions(h, weights)
    if report.all_weights_unit:
        certificates["single_extra"] = single_extra_unit_realization(h, weights)
        evidence.extend(SINGLE_EXTRA_EVIDENCE)
        return Verdict(EXACTLY_ONE, evidence, certificates)

    reduced, removed = pendant_reduce(target)
    # An isolated vertex is simplicial too: its empty neighbourhood is a
    # clique.
    if not simplicial_vertices(reduced):
        evidence.append(
            ("after deleting pendants %s the graph has neither a simplicial "
             "nor an isolated vertex, so at least two extras are needed"
             % (list(removed),), "pendant-reduction"))
        return Verdict(EXACTLY_TWO, evidence, certificates)
    if report.unit_weight_edge is not None:
        # Some weight exceeds one here, so the single-extra chain does not
        # apply: search for one extra, above the vertex cap too.
        return settle(1, "single_extra", SINGLE_EXTRA_EVIDENCE)
    return oracle_verdict()
