"""Query-aware pruning of triples-map expressions.

A triples-map expression is *incompatible* with a triple pattern when no
source whatsoever can make it emit a triple the pattern matches.  The
checks are purely syntactic: each term constructor is turned into an
anchored regular expression (attribute references become wildcards), and
the pattern's concrete terms are matched against it.  A mapping keeps a
triples-map expression iff at least one pattern of the query is not
incompatible with it; everything else can be dropped without changing any
answer of the query.

Each attribute reference becomes ``.+``, which is exact for every source:
an empty cell is NULL, and a constructor that reads one builds no term
(R2RML §11), so every term built puts at least one character in each
reference's place.

The regex sources and compiled patterns are cached, each table keeping the
:data:`CACHE_SIZE` most recently used entries, so a long-lived caller
pruning ever new mappings holds a bounded number of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .algebra import (
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    ExtendExpr,
    RmlMappingExpr,
    Template,
    TriplesMapExpr,
)
from .ntriples import format_term
from .rdf import Iri, Literal, TriplePattern, Variable

_REGEX_SPECIALS = set(".[]\\()*+?{}|^$")
# entries per cache; the seed-42 prune-wide mapping (560 expressions) fills
# 121 regex sources, 241 compiled patterns and 120 IRI constructors
CACHE_SIZE = 1024


def escape_regex_text(text: str) -> str:
    """Escape *text* so it matches itself literally inside a regex."""
    return "".join("\\" + ch if ch in _REGEX_SPECIALS else ch for ch in text)


@lru_cache(maxsize=CACHE_SIZE)
def template_regex(body: Template) -> str:
    """Anchored-regex source for the strings a template can produce: its
    texts, escaped, with ``.+`` for each attribute between them."""
    return ".+".join(escape_regex_text(text) for text in body.parts[::2])


@lru_cache(maxsize=CACHE_SIZE)
def _compiled(pattern: str) -> re.Pattern[str]:
    return re.compile(pattern, re.DOTALL)


def regex_fullmatch(pattern: str, value: str) -> bool:
    """Whether *value* is fully matched by the anchored pattern source."""
    return _compiled(pattern).fullmatch(value) is not None


@lru_cache(maxsize=CACHE_SIZE)
def _iri_regexes(expr: BuildIri) -> tuple[str, str]:
    body = template_regex(expr.body)
    return body, escape_regex_text(expr.base) + body


def iri_incompatible(expr: ExtendExpr, u: Iri) -> Union[str, None]:
    """A reason the constructor can never produce the IRI *u*, or ``None``."""
    if isinstance(expr, BuildLiteral):
        return "builds literals, but the pattern term is an IRI"
    if isinstance(expr, BuildBlank):
        return "builds blank nodes, but the pattern term is an IRI"
    if isinstance(expr, ConstantTerm):
        if expr.term == u:
            return None
        return f"constant {expr.term!r} differs from <{u.value}>"
    plain, based = _iri_regexes(expr)
    if regex_fullmatch(plain, u.value) or regex_fullmatch(based, u.value):
        return None
    return f"<{u.value}> matches neither /{plain}/ nor /{based}/"


def _literal_incompatible(expr: ExtendExpr, lit: Literal) -> Union[str, None]:
    if isinstance(expr, BuildIri):
        return "builds IRIs, but the pattern object is a literal"
    if isinstance(expr, BuildBlank):
        return "builds blank nodes, but the pattern object is a literal"
    if isinstance(expr, ConstantTerm):
        if expr.term == lit:
            return None
        return f"constant {expr.term!r} differs from {lit!r}"
    if expr.datatype != lit.datatype:
        return f"datatype <{expr.datatype}> differs from <{lit.datatype}>"
    pattern = template_regex(expr.body)
    if regex_fullmatch(pattern, lit.lex):
        return None
    return f"lexical form {lit.lex!r} does not match /{pattern}/"


def tp_incompatible(tp: TriplePattern, tm: TriplesMapExpr) -> Union[str, None]:
    """A reason *tm* can never emit a triple matching *tp*, or ``None``.

    ``None`` means the syntactic checks cannot rule the pair out; it does
    not promise a match exists.
    """
    if isinstance(tp.s, Iri):
        reason = iri_incompatible(tm.subject_expr, tp.s)
        if reason is not None:
            return f"subject: {reason}"
    if isinstance(tp.p, Iri):
        reason = iri_incompatible(tm.predicate_expr, tp.p)
        if reason is not None:
            return f"predicate: {reason}"
    if isinstance(tp.o, Iri):
        reason = iri_incompatible(tm.object_expr, tp.o)
        if reason is not None:
            return f"object: {reason}"
    elif isinstance(tp.o, Literal):
        if tm.is_joined:
            return "object: a joined object is never a literal"
        reason = _literal_incompatible(tm.object_expr, tp.o)
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
        tm
        for tm in mapping.trmaps
        if any(tp_incompatible(tp, tm) is None for tp in tps)
    )
    if not retained:
        return FullyPruned(original_count=len(mapping.trmaps))
    return RmlMappingExpr(retained)


def format_pattern_term(term) -> str:
    if isinstance(term, Variable):
        return repr(term)
    return format_term(term)


def format_pattern(tp: TriplePattern) -> str:
    return (
        f"{format_pattern_term(tp.s)} {format_pattern_term(tp.p)} "
        f"{format_pattern_term(tp.o)}"
    )


def incompatibility_trace(patterns: Iterable[TriplePattern], mapping: RmlMappingExpr) -> str:
    """Human-readable account of every (expression, pattern) check."""
    tps = list(patterns)
    lines = []
    for tm in mapping.trmaps:
        reasons = [tp_incompatible(tp, tm) for tp in tps]
        verdict = "pruned" if all(r is not None for r in reasons) else "retained"
        lines.append(f"{tm.provenance or '<anonymous>'}: {verdict}")
        for tp, reason in zip(tps, reasons):
            lines.append(f"  {format_pattern(tp)} . -> {reason or 'compatible'}")
    return "\n".join(lines)
