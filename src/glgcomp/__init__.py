"""Competition numbers of generalized line graphs.

Builders for line graphs with cocktail-party blocks, constructive
realizations with one or two extra vertices, an exact search oracle, and a
classifier with checkable evidence.
"""

from .errors import (BudgetExceeded, CompetitionMismatch, ConstructionFailed,
                     CyclicDigraph, EmptyGraph, GlgError, HypothesisNotMet,
                     InvalidInput, NonPositiveM, NotAClique, NotAnEdge,
                     NotConnected, PreconditionViolated, SchemaError,
                     SizeGuardExceeded, UnknownVertex, VertexCollision)
from .graph_core import (Digraph, Graph, acyclic_ordering, competition_graph,
                         digraph_from_json, digraph_to_dot, digraph_to_json,
                         graph_from_json, graph_to_dot, graph_to_json,
                         is_acyclic_ordering, is_clique, is_connected,
                         isolated_vertices, maximal_cliques, normalize_edge,
                         opsut_lower_bound, require_clique, semi_join,
                         simplicial_vertices, vertex_clique_cover_number)
from .glg_builder import (CombinedGraph, check_weights, cocktail_label,
                          cocktail_party, edge_label, generalized_line_graph,
                          incident_edge_clique, line_graph,
                          weighted_graph_from_json, weighted_graph_to_json)
from .search import DEFAULT_BUDGET, SearchBudget, find_realization, fresh_labels
from .realization import (GlgRealization, RealizationCertificate,
                          cp_realization, glg_realization,
                          single_extra_edge_realization,
                          single_extra_unit_realization, verify_realization)
from .oracle import competition_number, realization_search
from .analysis import (EXACTLY_ONE, EXACTLY_TWO, EXACTLY_ZERO, UNDETERMINED,
                       ConditionReport, Verdict, check_conditions, classify,
                       has_simplicial_or_isolated, pendant_reduce)
