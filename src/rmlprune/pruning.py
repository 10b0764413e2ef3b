"""Query-aware pruning of triples-map expressions.

A triples-map expression is *incompatible* with a triple pattern when no
source whatsoever can make it emit a triple the pattern matches.  The
check is purely syntactic: :func:`term_incompatible` asks, for each
constant of the pattern, whether the constructor at its position can ever
build it.  A constant constructor builds only its term; any other builds
one kind of term, a literal constructor one datatype, and its strings
match one anchored regex: the template's texts, escaped, joined by ``.+``,
with an IRI constructor's base optionally in front.  A mapping keeps an
expression iff at least one pattern of the query is not incompatible with
it; dropping the rest changes no answer of the query.

Each attribute reference becomes ``.+``, which is exact for every source:
an empty cell is NULL, and a constructor that reads one builds no term
(R2RML §11), so every term built puts at least one character in each
reference's place.  The regexes are compiled into one cache of the
:data:`CACHE_SIZE` most recently used constructors, so a long-lived caller
pruning ever new mappings holds a bounded number of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .algebra import BuildBlank, BuildIri, BuildLiteral, ConstantTerm, ExtendExpr, RmlMappingExpr
from .algebra import TriplesMapExpr
from .ntriples import format_term
from .rdf import BlankNode, Iri, Literal, TriplePattern, Variable

# constructors in the cache; the seed-42 prune-wide mapping (560 expressions)
# has 247 template constructors, and its query mix compiles 121 of them
CACHE_SIZE = 1024

# the kind of term each template constructor builds, and its name
_BUILDS = {BuildIri: Iri, BuildLiteral: Literal, BuildBlank: BlankNode}
_KIND_NAMES = {Iri: "IRIs", Literal: "literals", BlankNode: "blank nodes"}


@lru_cache(maxsize=CACHE_SIZE)
def _constructor_regex(expr: BuildIri | BuildLiteral) -> re.Pattern[str]:
    """The anchored regex of the strings a template constructor can build."""
    body = ".+".join(map(re.escape, expr.body.parts[::2]))
    if isinstance(expr, BuildIri):
        body = f"(?:{re.escape(expr.base)})?{body}"
    return re.compile(body, re.DOTALL)


def term_incompatible(expr: ExtendExpr, term: Iri | Literal) -> Union[str, None]:
    """A reason the constructor can never build the pattern constant *term*,
    or ``None``."""
    if isinstance(expr, ConstantTerm):
        if expr.term == term:
            return None
        return f"constant {format_term(expr.term)} differs from {format_term(term)}"
    kind = _BUILDS[type(expr)]
    if kind is not type(term):
        return f"builds {_KIND_NAMES[kind]}, not {_KIND_NAMES[type(term)]}"
    if kind is Literal and expr.datatype != term.datatype:
        return f"datatype <{expr.datatype}> differs from <{term.datatype}>"
    regex = _constructor_regex(expr)
    if regex.fullmatch(term.value if kind is Iri else term.lex):
        return None
    return f"{format_term(term)} does not match /{regex.pattern}/"


def tp_incompatible(tp: TriplePattern, tm: TriplesMapExpr) -> Union[str, None]:
    """A reason *tm* can never emit a triple matching *tp*, or ``None``.

    ``None`` means the syntactic checks cannot rule the pair out; it does
    not promise a match exists.
    """
    if type(tp.s) is not Variable:
        reason = term_incompatible(tm.subject_expr, tp.s)
        if reason is not None:
            return f"subject: {reason}"
    if type(tp.p) is not Variable:
        reason = term_incompatible(tm.predicate_expr, tp.p)
        if reason is not None:
            return f"predicate: {reason}"
    if type(tp.o) is not Variable:
        reason = term_incompatible(tm.object_expr, tp.o)
        if reason is not None:
            return f"object: {reason}"
    return None


@dataclass(frozen=True)
class FullyPruned:
    """Marker result: every triples-map expression was pruned."""

    original_count: int


def prune(
    patterns: Iterable[TriplePattern], mapping: RmlMappingExpr
) -> Union[RmlMappingExpr, FullyPruned]:
    """Keep the expressions compatible with at least one pattern.

    The retained expressions come back in their original order; when
    nothing survives, a :class:`FullyPruned` marker carries the original
    count instead of an (inexpressible) empty mapping.
    """
    tps = list(patterns)
    retained = tuple(
        tm for tm in mapping.trmaps if any(tp_incompatible(tp, tm) is None for tp in tps)
    )
    if not retained:
        return FullyPruned(original_count=len(mapping.trmaps))
    return RmlMappingExpr(retained)


def incompatibility_trace(patterns: Iterable[TriplePattern], mapping: RmlMappingExpr) -> str:
    """Human-readable account of every (expression, pattern) check."""
    tps = list(patterns)
    spelled = [
        " ".join(repr(x) if type(x) is Variable else format_term(x) for x in (tp.s, tp.p, tp.o))
        for tp in tps
    ]
    lines = []
    for tm in mapping.trmaps:
        reasons = [tp_incompatible(tp, tm) for tp in tps]
        verdict = "pruned" if all(r is not None for r in reasons) else "retained"
        lines.append(f"{tm.provenance or '<anonymous>'}: {verdict}")
        for pattern, reason in zip(spelled, reasons):
            lines.append(f"  {pattern} . -> {reason or 'compatible'}")
    return "\n".join(lines)
