"""The token layer shared by the Turtle and SPARQL readers.

RDF 1.1 Turtle takes its terminals from SPARQL 1.1 §19.8, so one lexer
serves both parsers: :class:`~rmlprune.turtle.TurtleParser` subclasses
:class:`Lexer` with the triples grammar, and the SPARQL parser subclasses
that with variables and the query around its triples.  Implemented here,
once:

* ``IRIREF``, with the ``\\u``/``\\U`` escapes of §19.2 and the
  forbidden-character check.  A relative IRI is resolved by concatenation
  with the in-scope base;
* ``PNAME_NS`` and ``PNAME_LN``: ``PN_PREFIX`` and ``PN_LOCAL`` with
  ``PLX`` (``PN_LOCAL_ESC``).  A prefix starts with a letter, a local name
  not with ``-`` or ``.``.  An escaped ``\\.`` may end a local name; a
  bare trailing ``.`` is left to end the statement;
* ``STRING_LITERAL1``, ``STRING_LITERAL2``, ``STRING_LITERAL_LONG1`` and
  ``STRING_LITERAL_LONG2``, with ``ECHAR`` and ``UCHAR``;
* ``INTEGER``, ``DECIMAL``, ``DOUBLE`` and the boolean keywords;
* ``WS`` and ``#`` comments;
* the bodies of prefix and base declarations, alike in both prologues.

A token in a common spelling (an IRIREF, a prefixed name or a short
string without escapes, or punctuation) is read by one regex match,
:meth:`Lexer.next_token`, that also skips the whitespace before it; every
other spelling falls through to the token's reader, which runs only after
that match, so no spelling is matched twice.  Each IRI is built once per
parser instance, one the match read without a second check of its
characters.

Two simplifications: name characters are Python's alphanumerics rather
than the exact ``PN_CHARS`` ranges, and a ``%`` in a local name is taken as
is, without checking the two hex digits of ``PERCENT``.  Literals are
always a lexical form plus a datatype, so language tags are rejected.  A
hex escape must name a Unicode scalar value: a code point above U+10FFFF or
a surrogate is an error with a position, like every other lexical error.
"""

from __future__ import annotations

import re

from .errors import InvalidTermError
from .rdf import _ECHAR, _IRI_CHAR, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING
from .rdf import Iri, Literal, is_absolute_iri, trusted_iri, trusted_literal

_DOUBLE_RE = re.compile(r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.\d+[eE][+-]?\d+|\d+[eE][+-]?\d+)")
_DECIMAL_RE = re.compile(r"[+-]?\d*\.\d+")
_INTEGER_RE = re.compile(r"[+-]?\d+")
_NUMBERS = ((_DOUBLE_RE, XSD_DOUBLE), (_DECIMAL_RE, XSD_DECIMAL), (_INTEGER_RE, XSD_INTEGER))

# The deepest nesting of groups, blank-node property lists or collections a
# parser accepts.  A level costs at most three Python frames (Turtle's
# property lists), so this stays well inside the default recursion limit
# of 1000, wherever the parser is called from.
MAX_NESTING = 100

# In a str pattern \w is exactly str.isalnum() plus '_'.
_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_PREFIX_RE = re.compile(r"[\w.-]*")
# PN_PREFIX starts with a letter
_PREFIX_START_RE = re.compile(r"[^\W\d_]")
_LOCAL_RE = re.compile(r"(?:[\w.:%-]|\\[_~.\-!$&'()*+,;=/?#@%])*")
_PLX_RE = re.compile(r"\\(.)")
_A_RE = re.compile(r"a(?![\w.:-])")
# 'true' or 'false', unless a longer name or a prefixed name starts there
_BOOLEAN_RE = re.compile(r"(?:true|false)(?!\w|[\w.-]*:)")
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")
# the characters of an IRIREF without an escape
_IRI_CHARS = _IRI_CHAR + "*"
_IRI_CHARS_RE = re.compile(_IRI_CHARS)
# an IRIREF without an escape, as SPARQL's longest-match tokenizer reads it
_IRIREF_RE = re.compile(f"<{_IRI_CHARS}>")
# Whitespace and comments, then one token in its common spelling: a
# punctuation mark, or an IRIREF, a prefixed name or a double-quoted short
# string, none with an escape.  With no token the match still skips the
# whitespace; any other spelling (escapes, long and single-quoted strings,
# a datatype or language tag after the string, numbers, blank nodes) is
# left to the readers below, so they alone hold each token's full grammar
# and errors.  A local name stops before a bare trailing '.', and the
# lookahead after it rejects, one character at a time, any shorter name
# than the readers would take.  An optional part is written '(?:...|)', and
# comments are looked for only at a '#': sre runs that faster than '?' or '*'.
_TOKEN_RE = re.compile(
    r"([ \t\r\n]*(?:(?=#)(?:#[^\n]*[ \t\r\n]*)*|))"
    r"(?:([][(){},;.])"
    rf"|<({_IRI_CHARS})>"
    r"|(((?:[^\W\d_][\w.-]*(?<!\.)|))"
    r":((?:[\w:%][\w:%.-]*(?<!\.)|)))(?![\w:%-]|\.+[\w:%-]|\.*\\)"
    r"|\"([^\"\\\r\n]*)\"(?![\"@^])|)"
)
# the group numbers of _TOKEN_RE, as Match.lastindex reports the token read
# (1, the whitespace, when the readers must take it); a prefixed name's
# prefix is group PNAME + 1, its local name group PNAME + 2
PUNCT, IRIREF, PNAME, STRING = 2, 3, 4, 7
# the characters a string body takes without a second look
_STRING_CHARS = {
    '"""': re.compile(r'[^"\\]*'),
    "'''": re.compile(r"[^'\\]*"),
    '"': re.compile(r'[^"\\\r\n]*'),
    "'": re.compile(r"[^'\\\r\n]*"),
}


class Lexer:
    """A cursor over one text and the readers for its tokens.

    Subclasses set ``error_class`` (syntax errors) and ``unsupported_class``
    (known constructs outside the supported subset); both are called with
    a message, a line and a column.
    """

    error_class: type
    unsupported_class: type
    # Turtle's booleans are case-sensitive (SPARQL's, keywords, are not)
    boolean_re = _BOOLEAN_RE

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.base: str | None = None
        self.prefixes: dict[str, str] = {}
        self.depth = 0
        # every IRI read so far, by its absolute spelling: only a resolved
        # IRI is ever a key, so a later BASE or PREFIX cannot make one stale
        self._iris: dict[str, Iri] = {}
        # the IRI of each prefixed name the token read took, by its spelling,
        # until the next prefix declaration
        self._pnames: dict[str, Iri] = {}

    # -- cursor ------------------------------------------------------------

    def error(self, message: str, unsupported: bool = False) -> Exception:
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - self.text.rfind("\n", 0, self.pos)
        cls = self.unsupported_class if unsupported else self.error_class
        return cls(message, line=line, column=column)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def skip_ws(self):
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def next_token(self) -> re.Match:
        """Skip whitespace and comments and match the token after them.

        The cursor stops at the token's start; ``lastindex`` of the match
        names what was read, and :meth:`read_token_term` consumes a term.
        """
        match = _TOKEN_RE.match(self.text, self.pos)
        self.pos = match.end(1)
        return match

    def read_token_term(self, match: re.Match, constant: bool) -> Iri | Literal | None:
        """The IRI (or, in a *constant*'s place, the string literal) that
        *match* read at the cursor, consumed; None, with the cursor unmoved,
        for anything a reader must take."""
        kind = match.lastindex
        if kind == PNAME:
            term = self._pnames.get(match[PNAME])
            if term is not None:
                self.pos = match.end()
                return term
            ns = self.prefixes.get(match[PNAME + 1])
            if ns is None:
                return None
            iri = ns + match[PNAME + 2]
        elif kind == IRIREF:
            iri = match[IRIREF]
        elif kind == STRING and constant:
            self.pos = match.end()
            return trusted_literal(match[STRING], XSD_STRING)
        else:
            return None
        self.pos = match.end()
        term = self._iris.get(iri)
        if term is None:
            # the token holds no character an IRI forbids, and a namespace is
            # absolute, so only a relative IRIREF is left to check
            if not is_absolute_iri(iri):
                return self.resolve(iri)
            term = self._iris[iri] = trusted_iri(iri)
        if kind == PNAME:
            self._pnames[match[PNAME]] = term
        return term

    def declare_prefix(self, prefix: str, namespace: str):
        self.prefixes[prefix] = namespace
        self._pnames.clear()

    def _parse_prefix_body(self):
        """A prefix declaration after its keyword."""
        self.skip_ws()
        prefix = self.read_prefix_name()
        self.expect(":")
        self.skip_ws()
        self.declare_prefix(prefix, self.read_iriref().value)

    def _parse_base_body(self):
        """A base declaration after its keyword."""
        self.skip_ws()
        self.base = self.read_iriref().value

    def descend(self):
        """Enter one more level of nesting at the cursor; the caller leaves
        it again with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    def try_consume(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.try_consume(token):
            raise self.error(f"expected {token!r}")

    def keyword_ahead(self, word: str) -> bool:
        """Case-insensitive keyword at the cursor, not part of a longer name."""
        end = self.pos + len(word)
        if self.text[self.pos : end].lower() != word.lower():
            return False
        return end >= len(self.text) or not (self.text[end].isalnum() or self.text[end] == "_")

    def try_keyword(self, word: str) -> bool:
        if self.keyword_ahead(word):
            self.pos += len(word)
            return True
        return False

    def try_directive(self, word: str, also: str = "") -> bool:
        """Consume a directive's keyword, in any case, if whitespace, a comment,
        the end or a character of *also* follows: ``PREFIX:`` is a name."""
        end = self.pos + len(word)
        after = self.text[end : end + 1]
        if self.text[self.pos : end].lower() != word.lower() or after and after not in " \t\r\n#" + also:
            return False
        self.pos = end
        return True

    def try_a(self) -> bool:
        """Consume the ``a`` that abbreviates ``rdf:type`` as a verb."""
        match = _A_RE.match(self.text, self.pos)
        if match:
            self.pos += 1
        return match is not None

    # -- IRIs --------------------------------------------------------------

    def resolve(self, iri: str) -> Iri:
        """The IRI *iri* names, relative ones against the base; one object
        per distinct IRI of the text."""
        term = self._iris.get(iri)
        if term is not None:
            return term
        if not is_absolute_iri(iri):
            if self.base is None:
                raise self.error(f"relative IRI {iri!r} without a base")
            iri = self.base + iri
            term = self._iris.get(iri)
            if term is not None:
                return term
        try:
            term = self._iris[iri] = Iri(iri)
        except InvalidTermError:
            raise self.error(f"not a valid IRI: {iri!r}") from None
        return term

    def read_iriref(self) -> Iri:
        self.expect("<")
        parts = []
        while True:
            end = _IRI_CHARS_RE.match(self.text, self.pos).end()
            parts.append(self.text[self.pos : end])
            self.pos = end
            ch = self.peek()
            if not ch:
                raise self.error("unterminated IRI")
            self.pos += 1
            if ch == ">":
                return self.resolve("".join(parts))
            if ch != "\\":
                raise self.error(f"forbidden character in IRI: {ch!r}")
            if self.peek() not in ("u", "U"):
                raise self.error(f"invalid escape in IRI: \\{self.peek()}")
            parts.append(self.read_escape())

    def read_prefix_name(self) -> str:
        """The part before ':' in a prefixed name or prefix declaration."""
        end = _PREFIX_RE.match(self.text, self.pos).end()
        name = self.text[self.pos : end]
        if name and not _PREFIX_START_RE.match(name):
            raise self.error(f"prefix name must start with a letter: {name!r}")
        self.pos = end
        if name.endswith("."):
            raise self.error(f"prefix name may not end with '.': {name!r}")
        return name

    def read_local_name(self) -> str:
        end = _LOCAL_RE.match(self.text, self.pos).end()
        if self.text.startswith("\\", end):
            self.pos = end
            raise self.error(f"invalid local name escape: {self.text[end : end + 2]}")
        # a bare trailing '.' belongs to the statement, an escaped one to the name
        name = self.text[self.pos : end].rstrip(".")
        if name.endswith("\\"):
            name += "."
        if name[:1] in ("-", "."):
            raise self.error(f"local name may not start with {name[0]!r}: {name!r}")
        self.pos += len(name)
        return _PLX_RE.sub(r"\1", name) if "\\" in name else name

    def read_prefixed_name(self) -> Iri:
        prefix = self.read_prefix_name()
        self.expect(":")
        local = self.read_local_name()
        ns = self.prefixes.get(prefix)
        if ns is None:
            raise self.error(f"undeclared prefix: {prefix!r}")
        return self.resolve(ns + local)

    def read_iri(self, expected: str = "an IRI") -> Iri:
        """An IRI at the cursor; an error naming the *expected* term at any
        character that starts neither an IRIREF nor a prefixed name."""
        ch = self.peek()
        if ch == "<":
            return self.read_iriref()
        if ch == ":" or _PREFIX_START_RE.match(ch):
            return self.read_prefixed_name()
        raise self.error(f"expected {expected}, found {ch!r}" if ch else f"expected {expected}")

    # -- literals ----------------------------------------------------------

    def read_hex(self, width: int) -> str:
        """The character named by *width* hex digits at the cursor."""
        digits = self.text[self.pos : self.pos + width]
        # int() alone would also take a sign, '_', spaces and non-ASCII digits
        if len(digits) != width or not _HEX_RE.fullmatch(digits):
            raise self.error(f"expected {width} hex digits: {digits!r}")
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise self.error(f"hex escape is not a Unicode scalar value: {digits!r}")
        self.pos += width
        return chr(code)

    def read_escape(self) -> str:
        """The character a UCHAR or ECHAR stands for; the cursor is just
        past its backslash."""
        kind = self.peek()
        self.pos += 1
        if kind == "u":
            return self.read_hex(4)
        if kind == "U":
            return self.read_hex(8)
        if kind in _ECHAR:
            return _ECHAR[kind]
        raise self.error(f"invalid string escape: \\{kind}")

    def read_string(self) -> str:
        for quote in ('"""', "'''", '"', "'"):
            if self.try_consume(quote):
                break
        else:
            raise self.error("expected a string")
        long = len(quote) == 3
        plain = _STRING_CHARS[quote]
        parts = []
        while True:
            end = plain.match(self.text, self.pos).end()
            parts.append(self.text[self.pos : end])
            self.pos = end
            ch = self.peek()
            if not ch:
                raise self.error("unterminated string")
            if ch == "\\":
                self.pos += 1
                parts.append(self.read_escape())
            elif self.text.startswith(quote, end) and not (
                # quotes directly before the closing """ belong to the content
                long and self.text.startswith(ch, end + 3)
            ):
                self.pos += len(quote)
                return "".join(parts)
            elif not long:
                raise self.error("newline in single-line string")
            else:
                parts.append(ch)
                self.pos += 1

    def read_literal(self) -> Literal:
        lex = self.read_string()
        if self.peek() == "@":
            raise self.error("language-tagged literals are not supported", unsupported=True)
        if self.try_consume("^^"):
            return Literal(lex, self.read_iri().value)
        return Literal(lex)

    def read_constant(self) -> Iri | Literal:
        """An IRI, or a quoted, numeric or boolean literal."""
        ch = self.peek()
        if ch and ch in "\"'":
            return self.read_literal()
        match = self.boolean_re.match(self.text, self.pos)
        if match:
            self.pos = match.end()
            return Literal(match[0].lower(), XSD_BOOLEAN)
        if ch.isdigit() or ch in "+-.":
            for regex, datatype in _NUMBERS:
                match = regex.match(self.text, self.pos)
                if match:
                    self.pos = match.end()
                    return Literal(match.group(), datatype)
        return self.read_iri("an object")
