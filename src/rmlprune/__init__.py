"""Query-aware pruning for RML mappings.

The package parses RML mapping documents into a small mapping algebra,
decides per triples-map expression whether a SPARQL query's triple
patterns could ever match its output, and writes the surviving subset back
out as a standalone mapping.  A reference materializer and a basic graph
pattern evaluator are included so the pruning can be checked end to end:
evaluating a query over the pruned mapping's output must return exactly
the answers obtained over the full output.  :func:`answer` runs that whole
chain for one query.  A term is a pair (:data:`Term`): an IRI's or a blank
node's N-Triples spelling with ``None``, or a literal's lexical form with
its datatype IRI; :func:`format_term` spells one.
"""

from .algebra import (
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    DataObject,
    ExtractSpec,
    RmlMappingExpr,
    Template,
    TriplesMapExpr,
    materialize,
    materialize_trmap,
)
from .answer import answer
from .errors import (
    CsvError,
    InvalidTermError,
    MappingModelError,
    RmlPruneError,
    SourceInputError,
    SparqlError,
    StructuralError,
    TurtleError,
    UnsupportedSparqlError,
)
from .pruning import FullyPruned, incompatibility_trace, prune
from .rdf import Bgp, RdfGraph, Term, Triple, TriplePattern, Variable, eval_bgp, format_term
from .rml import parse_rml, serialize_pruned, translate
from .sparql import SelectQuery, collect_triple_patterns, flatten_bgp, parse_query

__version__ = "0.1.0"

__all__ = [
    "Bgp",
    "BuildBlank",
    "BuildIri",
    "BuildLiteral",
    "ConstantTerm",
    "CsvError",
    "DataObject",
    "ExtractSpec",
    "FullyPruned",
    "InvalidTermError",
    "MappingModelError",
    "RdfGraph",
    "RmlMappingExpr",
    "RmlPruneError",
    "SelectQuery",
    "SourceInputError",
    "SparqlError",
    "StructuralError",
    "Template",
    "Term",
    "Triple",
    "TriplePattern",
    "TriplesMapExpr",
    "TurtleError",
    "UnsupportedSparqlError",
    "Variable",
    "answer",
    "collect_triple_patterns",
    "eval_bgp",
    "flatten_bgp",
    "format_term",
    "incompatibility_trace",
    "materialize",
    "materialize_trmap",
    "parse_query",
    "parse_rml",
    "prune",
    "serialize_pruned",
    "translate",
    "__version__",
]
