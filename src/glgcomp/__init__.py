"""Competition numbers of generalized line graphs.

Builders for line graphs with cocktail-party blocks, constructive
realizations with one or two extra vertices, an exact search oracle, and a
classifier with checkable evidence.
"""

from .errors import (BudgetExceeded, CompetitionMismatch, ConstructionFailed,
                     CyclicDigraph, EmptyGraph, GlgError, HypothesisNotMet,
                     InvalidInput, NonPositiveM, NotAnEdge, SchemaError,
                     UnknownVertex, VertexCollision)
from .graph_core import (Digraph, Graph, acyclic_ordering, competition_graph,
                         digraph_from_json, digraph_to_dot, graph_from_json,
                         graph_json_text, graph_to_dot, is_connected,
                         normalize_edge, opsut_lower_bound,
                         simplicial_vertices)
from .glg_builder import (CombinedGraph, cocktail_party,
                          generalized_line_graph, weighted_graph_from_json)
from .search import DEFAULT_BUDGET, SearchBudget, find_realization
from .realization import (GlgRealization, RealizationCertificate,
                          cp_realization, glg_realization, verify_realization)
from .oracle import competition_number
from .analysis import (EXACTLY_ONE, EXACTLY_TWO, EXACTLY_ZERO, UNDETERMINED,
                       ConditionReport, Verdict, check_conditions, classify,
                       pendant_reduce, single_extra_realization)
