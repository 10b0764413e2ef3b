"""Query-aware pruning of triples-map expressions.

A triples-map expression is *incompatible* with a triple pattern when no
source whatsoever can make it emit a triple the pattern matches.  The
check is purely syntactic: it asks, for each constant of the pattern,
whether the constructor at its position can ever build it.  A constant
constructor builds only its term; any other builds the one kind of term
that :data:`~rmlprune.algebra.BUILDS` names, a literal constructor one
datatype, and its strings match one anchored regex: the template's texts,
escaped, joined by ``.+``, with an IRI constructor's base optionally in
front.  A pattern constant is the pair of :data:`rmlprune.rdf.Term`: its
kind is read off it (:func:`rmlprune.rdf.kind`), and an IRI is matched
between the brackets of its spelling, without a copy.  A mapping keeps an
expression iff at least one pattern of the query is not incompatible with
it; dropping the rest changes no answer of the query.  A *required* pattern, one that no OPTIONAL encloses, must
match some triple for the query to have a solution (SPARQL 1.1 §18.5: a
join with an empty multiset is empty, and so is a left join with an empty
left side), so when one is incompatible with every expression no
expression is kept.  Each call rules on every (pattern, expression) pair
once, in one table that :func:`prune` and :func:`incompatibility_trace`
both read, and only the trace spells a reason.

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

from .algebra import BUILDS, BuildIri, BuildLiteral, ConstantTerm, ExtendExpr, RmlMappingExpr
from .algebra import TriplesMapExpr
from .rdf import BLANK, IRI, LITERAL, Term, TriplePattern, Variable, format_term, kind

# constructors in the cache; the seed-42 prune-wide mapping (560 expressions)
# has 247 template constructors, and its query mix compiles 121 of them
CACHE_SIZE = 1024

# the name of each kind of term
_KIND_NAMES = {IRI: "IRIs", LITERAL: "literals", BLANK: "blank nodes"}


def _regex_text(text: str) -> str:
    """A regex matching exactly *text*, each control character spelled as
    a ``\\xNN`` escape, so that the regex source prints on one line."""
    return "".join(f"\\x{ord(ch):02x}" if ch < " " else re.escape(ch) for ch in text)


@lru_cache(maxsize=CACHE_SIZE)
def _constructor_regex(expr: BuildIri | BuildLiteral) -> re.Pattern[str]:
    """The anchored regex of the strings a template constructor can build."""
    body = ".+".join(map(_regex_text, expr.body.parts[::2]))
    if isinstance(expr, BuildIri):
        body = f"(?:{_regex_text(expr.base)})?{body}"
    return re.compile(body, re.DOTALL)


def _failed_check(expr: ExtendExpr, term: Term) -> Union[str, None]:
    """The check by which the constructor can never build the pattern
    constant *term* (``"constant"``, ``"kind"``, ``"datatype"`` or
    ``"regex"``), or ``None``.  An IRI is matched between the brackets of
    its spelling."""
    if isinstance(expr, ConstantTerm):
        return None if expr.term == term else "constant"
    built = BUILDS[type(expr)]
    if built != kind(term):
        return "kind"
    value, datatype = term
    if built == LITERAL and expr.datatype != datatype:
        return "datatype"
    span = (1, len(value) - 1) if built == IRI else (0, len(value))
    return None if _constructor_regex(expr).fullmatch(value, *span) else "regex"


def _ruling(tp: TriplePattern, tm: TriplesMapExpr) -> Union[str, None]:
    """The first position at which *tm* can never emit a triple matching
    *tp* (``"subject"``, ``"predicate"`` or ``"object"``), or ``None``: one
    entry of the table that :func:`_rulings` builds.  It spells nothing."""
    if type(tp.s) is not Variable and _failed_check(tm.subject_expr, tp.s):
        return "subject"
    if type(tp.p) is not Variable and _failed_check(tm.predicate_expr, tp.p):
        return "predicate"
    if type(tp.o) is not Variable and _failed_check(tm.object_expr, tp.o):
        return "object"
    return None


def _reason(tp: TriplePattern, tm: TriplesMapExpr, position: str) -> str:
    """The trace's reason that *tm* can never emit a triple matching *tp*:
    the *position* that :func:`_ruling` found, and the check that fails
    there, spelled."""
    # the pattern's s, p or o, and the expression's constructor there
    expr, term = getattr(tm, f"{position}_expr"), getattr(tp, position[0])
    check = _failed_check(expr, term)
    if check == "constant":
        reason = f"constant {format_term(expr.term)} differs from {format_term(term)}"
    elif check == "kind":
        reason = f"builds {_KIND_NAMES[BUILDS[type(expr)]]}, not {_KIND_NAMES[kind(term)]}"
    elif check == "datatype":
        reason = f"datatype <{expr.datatype}> differs from <{term[1]}>"
    else:
        reason = f"{format_term(term)} does not match /{_constructor_regex(expr).pattern}/"
    return f"{position}: {reason}"


def _rulings(
    tps: list[TriplePattern], required: Iterable[TriplePattern], trmaps: tuple[TriplesMapExpr, ...]
) -> tuple[list[list[Union[str, None]]], Union[TriplePattern, None]]:
    """The table that :func:`prune` and :func:`incompatibility_trace` read:
    the column of each of *tps*, the :func:`_ruling` of every expression of
    *trmaps* in order; and the first *required* pattern compatible with no
    retained expression, one with a ``None`` in its row, or ``None``.  One
    outside *tps* is ruled on the retained expressions only."""
    columns = [[_ruling(tp, tm) for tm in trmaps] for tp in tps]
    for tp in required:
        if tp in tps:
            column = columns[tps.index(tp)]
        else:
            column = [_ruling(tp, tm) for tm, *row in zip(trmaps, *columns) if None in row]
        if None not in column:
            return columns, tp
    return columns, None


@dataclass(frozen=True)
class FullyPruned:
    """Marker result: every triples-map expression was pruned."""

    original_count: int


def prune(
    patterns: Iterable[TriplePattern], mapping: RmlMappingExpr, required: Iterable[TriplePattern] = ()
) -> Union[RmlMappingExpr, FullyPruned]:
    """Keep the expressions compatible with at least one pattern, and none
    when one of the *required* patterns, which must be among *patterns*,
    is compatible with none.

    The retained expressions come back in their original order; when
    nothing survives, a :class:`FullyPruned` marker carries the original
    count instead of an (inexpressible) empty mapping.
    """
    columns, unmatched = _rulings(list(patterns), required, mapping.trmaps)
    retained = tuple(tm for tm, row in zip(mapping.trmaps, zip(*columns)) if None in row)
    if not retained or unmatched is not None:
        return FullyPruned(original_count=len(mapping.trmaps))
    return RmlMappingExpr(retained)


def _spell(tp: TriplePattern) -> str:
    return " ".join(repr(x) if type(x) is Variable else format_term(x) for x in (tp.s, tp.p, tp.o))


def incompatibility_trace(
    patterns: Iterable[TriplePattern], mapping: RmlMappingExpr, required: Iterable[TriplePattern] = ()
) -> str:
    """Human-readable account of every (expression, pattern) check, and of
    the required pattern, if any, that leaves the query no solution (see
    :func:`prune`)."""
    tps = list(patterns)
    columns, unmatched = _rulings(tps, required, mapping.trmaps)
    spelled = [_spell(tp) for tp in tps]
    lines = []
    for tm, *row in zip(mapping.trmaps, *columns):
        pruned = unmatched is not None or None not in row
        lines.append(f"{tm.provenance or '<anonymous>'}: {'pruned' if pruned else 'retained'}")
        for pattern, tp, position in zip(spelled, tps, row):
            lines.append(f"  {pattern} . -> {_reason(tp, tm, position) if position else 'compatible'}")
    if unmatched is not None:
        lines.append(f"no solution: required pattern {_spell(unmatched)} . is compatible with no expression")
    return "\n".join(lines)
