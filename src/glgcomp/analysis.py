"""Condition checkers and a competition-number classifier for combined graphs.

The classifier decides k for a weighted base instance using, in order:
the exact line-graph dichotomy when all weights are zero, the single-extra
constructions when their hypotheses hold, a pendant-vertex reduction that
certifies k = 2, the exact oracle, and finally an honest "undetermined"
bounded by the two-extra witness.
"""

from .errors import BudgetExceeded, ConstructionFailed, HypothesisNotMet, NotConnected
from .glg_builder import check_weights, generalized_line_graph
from .graph_core import (graph_to_json, is_connected, isolated_vertices,
                         simplicial_vertices)
from .oracle import competition_number
from .realization import (glg_realization, single_extra_edge_realization,
                          single_extra_unit_realization, verify_realization)
from .search import DEFAULT_BUDGET

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
    * unit_weight_edge: the smallest edge whose two endpoints both have
      weight one, if any.
    * all_weights_unit: no weight exceeds one.

    Hypothesis failures are recorded, never raised.
    """
    weights = check_weights(h, weights or {})
    combined = generalized_line_graph(h, weights)
    simplicial = set(simplicial_vertices(combined.graph))
    has_unit = any(weights[v] == 1 for v in h.vertices)
    zero_anchor = any(
        weights[v] == 0 and combined.incident_labels(v) & simplicial
        for v in h.vertices)
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


def has_simplicial_or_isolated(graph):
    """True iff the graph has a simplicial or an isolated vertex.

    Its absence certifies that the competition number is at least two.
    """
    return bool(simplicial_vertices(graph) or isolated_vertices(graph))


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

    def oracle_verdict():
        try:
            k, digraph = competition_number(target, budget)
        except BudgetExceeded as exc:
            evidence.append(
                ("exact search exhausted its budget (lower bound %s)"
                 % exc.lower_bound, "oracle"))
            return Verdict(UNDETERMINED, evidence, certificates)
        certificates["oracle_witness"] = verify_realization(digraph, target, k)
        evidence.append(("exhaustive search settled the value at %d" % k,
                         "oracle"))
        return Verdict({0: EXACTLY_ZERO, 1: EXACTLY_ONE,
                        2: EXACTLY_TWO}.get(k, "exactly-%d" % k),
                       evidence, certificates)

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
        witness = single_extra_unit_realization(h, weights)
        certificates["single_extra"] = verify_realization(witness, target, 1)
        evidence.append(("single-extra witness: competition number is at "
                         "most one", "single-extra-construction"))
        evidence.append(
            ("the graph has edges and no isolated vertex, so at least one "
             "extra is needed", "lower-bound"))
        return Verdict(EXACTLY_ONE, evidence, certificates)
    if report.unit_weight_edge is not None:
        try:
            witness = single_extra_edge_realization(h, weights)
        except (BudgetExceeded, ConstructionFailed):
            witness = None
        if witness is not None:
            certificates["single_extra"] = verify_realization(witness, target, 1)
            evidence.append(("single-extra witness: competition number is at "
                             "most one", "single-extra-construction"))
            evidence.append(
                ("the graph has edges and no isolated vertex, so at least "
                 "one extra is needed", "lower-bound"))
            return Verdict(EXACTLY_ONE, evidence, certificates)

    reduced, removed = pendant_reduce(target)
    if not has_simplicial_or_isolated(reduced):
        evidence.append(
            ("after deleting pendants %s the graph has neither a simplicial "
             "nor an isolated vertex, so at least two extras are needed"
             % (list(removed),), "pendant-reduction"))
        return Verdict(EXACTLY_TWO, evidence, certificates)
    return oracle_verdict()
