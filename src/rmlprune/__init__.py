"""Query-aware pruning for RML mappings.

The package translates RML mapping documents into a small mapping algebra,
decides per triples-map expression whether a SPARQL query's triple
patterns could ever match its output, and writes the surviving subset back
out as a standalone mapping.  A reference materializer and a basic graph
pattern evaluator are included so the pruning can be checked end to end:
evaluating a query over the pruned mapping's output must return exactly
the answers obtained over the full output.  :func:`answer` runs that whole
chain for one query.
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
from .pruning import FullyPruned, incompatibility_trace, prune, tp_incompatible
from .rdf import (
    Bgp,
    BlankNode,
    Iri,
    Literal,
    RdfGraph,
    Triple,
    TriplePattern,
    Variable,
    eval_bgp,
)
from .rml import RmlDocument, parse_rml, serialize_pruned, translate
from .sparql import SelectQuery, collect_triple_patterns, flatten_bgp, parse_query

__version__ = "0.1.0"

__all__ = [
    "Bgp",
    "BlankNode",
    "BuildBlank",
    "BuildIri",
    "BuildLiteral",
    "ConstantTerm",
    "CsvError",
    "DataObject",
    "ExtractSpec",
    "FullyPruned",
    "InvalidTermError",
    "Iri",
    "Literal",
    "MappingModelError",
    "RdfGraph",
    "RmlDocument",
    "RmlMappingExpr",
    "RmlPruneError",
    "SelectQuery",
    "SourceInputError",
    "SparqlError",
    "StructuralError",
    "Template",
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
    "incompatibility_trace",
    "materialize",
    "materialize_trmap",
    "parse_query",
    "parse_rml",
    "prune",
    "serialize_pruned",
    "tp_incompatible",
    "translate",
    "__version__",
]
