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
* ``WS`` and ``#`` comments, which end at CR or LF;
* prefix and base declarations, alike in both prologues, the SPARQL-style
  ``PREFIX`` and ``BASE`` in any case.

The parsers read the text as one run of tokens: one ``findall`` gives
the texts of all its tokens, and :meth:`Lexer.token` hands them out one by
one.  Every valid spelling is a run token: punctuation, an IRIREF, a
prefixed name, a string in any quotes, alone, with a language tag or
typed, a number (``.5`` too), a boolean, ``a``, a blank node label,
``@prefix``, ``@base``, a variable, a bare word (ASCII letters, digits and
``_``) and each of SPARQL's operators.  :meth:`Lexer.term` builds the term
a token spells, as the pair that :data:`rmlprune.rdf.Term` describes (an
IRI as its spelling, resolved, with ``None``; a literal as its lexical form
and datatype), or gives back a token that spells an error (a language
tag, an escaped forbidden character, an undeclared prefix, a relative IRI
without a base).  The run ends early only at text that no token spells.
There, and at a token given back, a reader takes the cursor for good: it
reads at the cursor and reports the error, with its message and position.
So a reader runs only at an error.  The run keeps no offsets: where a
reader takes over, an error stands, or a blank node opens, the offset is
found by stepping through the run again from its start, and only when it
is asked for; so is the text of the token before the one just read
(:meth:`Lexer.before`).  Each IRI and untyped literal is built once per
parser instance, and looked up by its token text.  The readers at the
cursor check what they read; an IRI that a declaration names is read as
its string.

Two simplifications: name characters are Python's alphanumerics rather
than the exact ``PN_CHARS`` ranges, and a ``%`` in a local name is taken as
is, without checking the two hex digits of ``PERCENT``.  Literals are
always a lexical form plus a datatype, so language tags are rejected.  A
hex escape must name a Unicode scalar value: a code point above U+10FFFF or
a surrogate is an error with a position, like every other lexical error.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cached_property

from .rdf import _ECHAR, _IRI_CHAR, _SCHEME_RE, _VAR_NAME, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING
from .rdf import Term, is_absolute_iri, is_valid_iri, unescape

# digits are ASCII (Turtle 1.1 §6.5, SPARQL 1.1 §19.8), which \d is not in a str pattern
_DOUBLE_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*[eE][+-]?[0-9]+|\.[0-9]+[eE][+-]?[0-9]+|[0-9]+[eE][+-]?[0-9]+)")
_DECIMAL_RE = re.compile(r"[+-]?[0-9]*\.[0-9]+")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_NUMBERS = ((_DOUBLE_RE, XSD_DOUBLE), (_DECIMAL_RE, XSD_DECIMAL), (_INTEGER_RE, XSD_INTEGER))

# The deepest nesting of groups, blank-node property lists or collections a
# parser accepts.  A level costs at most three Python frames (Turtle's
# property lists), so this stays well inside the default recursion limit
# of 1000, wherever the parser is called from.
MAX_NESTING = 100

# In a str pattern \w is exactly str.isalnum() plus '_'.  A comment ends at
# CR or LF (Turtle 1.1 §6.2, SPARQL 1.1 §19.4), and a line at CR, LF or CR LF.
_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\r\n]*)*")
_LINE_END_RE = re.compile(r"\r\n?|\n")
_PREFIX_RE = re.compile(r"[\w.-]*")
# PN_PREFIX starts with a letter
_PREFIX_START_RE = re.compile(r"[^\W\d_]")
_LOCAL_RE = re.compile(r"(?:[\w.:%-]|\\[_~.\-!$&'()*+,;=/?#@%])*")
# 'true' or 'false', unless a longer name or a prefixed name starts there
_BOOLEAN_END = r"(?!\w|[\w.-]*:)"
_BOOLEAN_RE = re.compile(r"(?:true|false)" + _BOOLEAN_END)
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")
# the characters of an IRIREF without an escape
_IRI_CHARS = _IRI_CHAR + "*"
_IRI_CHARS_RE = re.compile(_IRI_CHARS)
# SPARQL's operators and path operators, longest first, and the '?' or '$'
# of no variable
OPERATORS = ("!=", "<=", ">=", "&&", "||", "=", "<", ">", "!", "+", "-", "*", "/", "|", "^", "?", "$")
# One match per token of the run: whitespace and comments, then the
# token's text, the one group.  Each alternative takes what the reader at
# the cursor takes, and the operators come last, so each spelling before
# them is the token it was without them.  Where none matches, the text is
# invalid: the last match takes the rest of the text outside the group, so
# the run ends with '', and sre moves a DOTALL '.+' straight to the text's
# end without reading it.  A '.' before a digit starts a number, the
# longest token there (Turtle 1.1 §6.4, SPARQL 1.1 §19.8).  A comment needs
# its CR or LF but at the text's end, where the whitespace and comments left
# are the group.  A long string closes at the last three of three or more
# quotes, as its reader closes it.  A local name stops before a bare
# trailing '.', and the lookahead after it rejects any shorter name than
# the readers would take.  A prefixed name of ASCII letters, digits, '_'
# and '-' is first tried in a cheaper form, without lookbehinds, whose
# lookahead leaves any longer name to the full one: a wide mapping's parse
# takes about 4% less time with it.  An optional part is written
# '(?:...|)', and comments are looked for only at a '#': sre runs that
# faster than '?' or '*'.  A bare word, the spelling of every keyword and
# builtin name, is ASCII letters, digits and '_' after a letter, that no
# name character, ':', '.' or '-' follows, as for 'a': SPARQL reads the
# longest token, so 'optional:x' is a prefixed name, and no case fold
# outside ASCII ever spells a keyword.
_ASCII_PNAME = r"[A-Za-z][A-Za-z0-9_-]*:[A-Za-z0-9_][A-Za-z0-9_-]*(?![\w.:%\\-])"
_RUN_WS = r"[ \t\r\n]*(?:(?=#)(?:#[^\r\n]*[\r\n][ \t\r\n]*)*|)"
# a language tag, which a literal may not carry
_LANGTAG_RE = re.compile(r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*")
# a UCHAR that names a Unicode scalar value: none above U+10FFFF, and no
# surrogate, which the reader reports, also in an expression
_UCHAR = (
    r"\\(?:u(?![dD][89a-fA-F])[0-9A-Fa-f]{4}"
    r"|U(?:0010[0-9A-Fa-f]{4}|000[1-9A-Fa-f][0-9A-Fa-f]{4}|0000(?![dD][89a-fA-F])[0-9A-Fa-f]{4}))"
)
_ESCAPE = rf"(?:{_UCHAR}|\\[tbnrf\"'\\])"
_PLX = r"\\[_~.\-!$&'()*+,;=/?#@%]"
_IRIREF = f"<{_IRI_CHARS}(?:{_UCHAR}{_IRI_CHARS})*>"
_PNAME = (
    r"(?:[^\W\d_][\w.-]*(?<!\.)|):"
    rf"(?:(?:[\w:%]|{_PLX})[\w:%.-]*(?:{_PLX}[\w:%.-]*)*(?:(?<!\.)|(?<=\\\.))|)"
    r"(?![\w:%-]|\.+[\w:%-]|\.*\\)"
)
_STRING_RE = re.compile(
    rf'"(?!"")[^"\\\r\n]*(?:{_ESCAPE}[^"\\\r\n]*)*"'
    rf"|'(?!'')[^'\\\r\n]*(?:{_ESCAPE}[^'\\\r\n]*)*'"
    rf'|"""[^"\\]*(?:(?:{_ESCAPE}|"(?!""(?!")))[^"\\]*)*"""'
    rf"|'''[^'\\]*(?:(?:{_ESCAPE}|'(?!''(?!')))[^'\\]*)*'''"
)
_TOKEN = (
    rf"[][(){{}},;]|\.(?![0-9])|{_ASCII_PNAME}|{_IRIREF}|{_PNAME}"
    rf"|(?:{_STRING_RE.pattern})(?:{_LANGTAG_RE.pattern}|\^\^(?:{_IRIREF}|{_PNAME})|(?!@|\^\^))"
    f"|{'|'.join(regex.pattern for regex, _ in _NUMBERS)}"
    # 'a' unless a longer name starts there, and a label without the
    # trailing '.' that ends a statement
    r"|a(?![\w.:-])|_:\w[\w.-]*(?<!\.)"
    rf"|@prefix|@base|[?$]{_VAR_NAME}|(?ai:true|false){_BOOLEAN_END}|[A-Za-z][A-Za-z0-9_]*(?![\w:.-])"
    f"|{'|'.join(map(re.escape, OPERATORS))}"
)
_RUN_RE = re.compile(
    f"{_RUN_WS}(?:({_TOKEN}"
    r"|(?:[ \t\r\n]|#[^\r\n]*)+\Z)"
    r"|(?=[^ \t\r\n])(?s:.+))"
)
# the characters a string body takes without a second look
_STRING_CHARS = {
    '"""': re.compile(r'[^"\\]*'),
    "'''": re.compile(r"[^'\\]*"),
    '"': re.compile(r'[^"\\\r\n]*'),
    "'": re.compile(r"[^'\\\r\n]*"),
}


def _past(text: str, pos: int, tokens: int) -> int:
    """The offset just past the next *tokens* tokens of the run after
    *pos*, found by stepping through them again."""
    for _ in range(tokens):
        pos = _RUN_RE.match(text, pos).end()
    return pos


def offsets(text: str, marks: list[int]) -> list[int]:
    """Where each of *marks* (see :meth:`Lexer.mark`) stands in *text*: a
    token's mark is found by stepping through the run again from the
    text's start, once for all the marks."""
    found = [~mark for mark in marks]
    pos = stepped = 0
    for mark, k in sorted((mark, k) for k, mark in enumerate(marks) if mark >= 0):
        pos, stepped = _past(text, pos, mark - stepped), mark
        found[k] = _WS_RE.match(text, pos).end()
    return found


class Lexer:
    """A text read as one run of token texts, and a cursor for the readers.

    :meth:`token` gives the text of each token in turn: the run, read from
    the text's start, holds the texts of all its tokens, and where it ends
    early the cursor, ``pos``, takes over for good at text that no token
    spells.  While the run is read the cursor is stale: :meth:`back` and
    :meth:`sync` move it to a token and hand it to the readers, and every
    method below them reads at the cursor.

    Subclasses set ``error_class`` (syntax errors) and ``unsupported_class``
    (known constructs outside the supported subset); both are called with
    a message, a line and a column.
    """

    error_class: type
    unsupported_class: type

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.base: str | None = None
        self.prefixes: dict[str, str] = {}
        self.depth = 0
        # every IRI of the run, by its absolute spelling: only a resolved IRI
        # is ever a key, so a later BASE or PREFIX cannot make one stale
        self._iris: dict[str, Term] = {}
        # the term of each IRIREF and prefixed name read from the run, by
        # its text, until the next prefix or base declaration; a subclass
        # may remember more
        self._terms: dict[str, Term] = {}
        # each untyped literal a token spells, by its text
        self._literals: dict[str, Term] = {}
        # each untyped string, by its lexical form: one pair per form,
        # however it is quoted or escaped
        self._forms: dict[str, Term] = {}
        # the run: its texts, popped from the end down to '' (the end of
        # the text) or the '' of its last match (text no token spells);
        # their number, 0 once the readers have the cursor; whether it was
        # read; and whether text no token spells ends it
        self._run = [""]
        self._count = 0
        self._read = self._marked = False

    # -- the run -------------------------------------------------------------

    def token(self) -> str:
        """The text of the next token; '' at text that no token spells,
        which a reader must report, or at the end, with the cursor there."""
        return self._run.pop() or self._next_run()

    def _next_run(self) -> str:
        """The run's first text, read on the first call; '' on every later
        call, with the cursor at the end or at text that no token spells
        (see :meth:`token`)."""
        if not self._read:
            self._read = True
            self.pos = _WS_RE.match(self.text).end()  # the cursor, if no token starts the run
            run = _RUN_RE.findall(self.text)
            marked = self._marked = bool(run) and not run[-1]
            if run and not marked and run[-1][0] in " \t\r\n#":
                run.pop()  # the whitespace and comments at the text's end
            if not marked:
                run.append("")
            run.reverse()
            self._run[:] = run
            self._count = len(run) - 1
            return self.token()
        if self._count:
            self._leave(self._count)
        self._run[:] = ("",)
        return ""

    def _leave(self, read: int):
        """Put the cursor at the token after the first *read* of the run,
        and leave the rest of the run to the readers."""
        pos = _past(self.text, 0, read) if read < self._count or self._marked else len(self.text)
        self.pos = _WS_RE.match(self.text, pos).end()
        self._run[:] = ("",)
        self._count = 0

    def sync(self):
        """Put the cursor at the next token, for the readers."""
        if self._count:
            self._leave(self._count + 1 - len(self._run))

    def back(self, token: str):
        """Give back *token*, the text :meth:`token` just gave, and put the
        cursor at it, for the readers."""
        if self._count:
            self._run.append(token)
            self.sync()

    def before(self) -> str:
        """The text of the token before the one :meth:`token` just gave,
        read again from the text's start; '' for the first token, and once
        the readers have the cursor."""
        read = self._count - len(self._run)
        return _RUN_RE.match(self.text, _past(self.text, 0, read - 1))[1] if read > 0 else ""

    def mark(self) -> int:
        """Where the token just read starts, for :func:`offsets`: the
        token's index in the run or, once the readers have the cursor, the
        cursor's offset as its bitwise complement, a negative int."""
        return self._count - len(self._run) if self._count else ~self.pos

    def term(self, token: str, constant: bool) -> Term | None:
        """The IRI (or, in a *constant*'s place, the literal) that *token*
        spells, remembered by its text; None for no term there or an error,
        which it gives back (see :meth:`back`) for the reader to report."""
        first, iri = token[:1], None
        if first == '"' or first == "'":
            literal = self._literal(token) if constant else None
            if literal is not None:
                return literal
        elif first == "<" and token[-1] == ">":  # not the operator '<' or '<='
            iri = self._iri(token[1:-1])
        elif ":" in token:
            prefix, _, local = token.partition(":")
            iri = self.prefixes.get(prefix)
            if iri is not None:
                iri += unescape(local) if "\\" in local else local
        elif constant and token:
            # a number or a boolean, matched as the readers would match it
            for regex, datatype in (*_NUMBERS, (_BOOLEAN_RE, XSD_BOOLEAN)):
                if regex.fullmatch(token):
                    term = self._literals[token] = (token, datatype)
                    return term
        if iri is None:
            self.back(token)
            return None
        term = self._iris.get(iri)
        if term is None:
            term = self._iris[iri] = (f"<{iri}>", None)
        self._terms[token] = term
        return term

    def _iri(self, iri: str) -> str | None:
        """The IRI that an IRIREF spells between its brackets, resolved
        against the base; None where the reader reports an error."""
        if "\\" in iri:
            iri = unescape(iri)
            if not _IRI_CHARS_RE.fullmatch(iri):  # an escaped forbidden character
                return None
        if _SCHEME_RE.match(iri):
            return iri
        return None if self.base is None else self.base + iri

    def _literal(self, token: str) -> Term | None:
        """The literal of *token*, a string; None for a language tag or an
        error.  A typed literal is not remembered: the tables outlive a
        prefix declaration."""
        end = _STRING_RE.match(token).end()
        lex = token[3 : end - 3] if token.startswith(token[0] * 3) else token[1 : end - 1]
        if "\\" in lex:
            lex = unescape(lex)
        if end < len(token):  # a language tag, or a datatype read as a term
            datatype = token[end] == "^" and self.term(token[end + 2 :], constant=False)
            return (lex, datatype[0][1:-1]) if datatype else None
        term = self._forms.get(lex)
        if term is None:
            term = self._forms[lex] = (lex, XSD_STRING)
        self._literals[token] = term
        return term

    # -- cursor ------------------------------------------------------------

    @cached_property
    def _line_starts(self) -> list[int]:
        return [match.end() for match in _LINE_END_RE.finditer(self.text)]

    def line_column(self, pos: int) -> tuple[int, int]:
        """The line and column, both from 1, of offset *pos*: a line ends
        at CR, LF or CR LF."""
        line = bisect_right(self._line_starts, pos)
        return line + 1, pos + 1 - (self._line_starts[line - 1] if line else 0)

    def error(self, message: str, unsupported: bool = False) -> Exception:
        self.sync()
        line, column = self.line_column(self.pos)
        cls = self.unsupported_class if unsupported else self.error_class
        return cls(message, line=line, column=column)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def skip_ws(self):
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def declare_prefix(self, prefix: str, namespace: str):
        self.prefixes[prefix] = namespace
        self._terms.clear()

    def _parse_directive(self, token: str) -> bool:
        """The SPARQL-style ``PREFIX`` or ``BASE`` declaration that *token*
        opens, in any case, read to its end; False for any other token."""
        word = token.upper()
        if word == "PREFIX":
            self._parse_prefix_body(self.token())
        elif word == "BASE":
            self._parse_base_body(self.token())
        else:
            return False
        return True

    def _parse_prefix_body(self, token: str):
        """A prefix declaration after its keyword, from the token after that
        ('' to read it all at the cursor)."""
        prefix, colon, local = token.partition(":")
        if colon and not local:  # a prefixed name with no local part
            self.declare_prefix(prefix, self._declared_iri(self.token()))
            return
        self.back(token)
        self.skip_ws()
        prefix = self.read_prefix_name()
        self.expect(":")
        self.skip_ws()
        self.declare_prefix(prefix, self.read_iriref())

    def _parse_base_body(self, token: str):
        """A base declaration after its keyword, from the token after that
        ('' to read it at the cursor)."""
        self.base = self._declared_iri(token)
        self._terms.clear()

    def _declared_iri(self, token: str) -> str:
        """The IRI a declaration names, from its token."""
        iri = self._iri(token[1:-1]) if token[:1] == "<" and token[-1] == ">" else None
        if iri is None:
            self.back(token)
            self.skip_ws()
            iri = self.read_iriref()
        return iri

    def descend(self, opened: int):
        """Enter one more level of nesting, at the bracket *opened* marks;
        the caller leaves it again with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.sync()
            (self.pos,) = offsets(self.text, [opened])
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    def try_consume(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.try_consume(token):
            raise self.error(f"expected {token!r}")

    # -- IRIs --------------------------------------------------------------

    def resolve(self, iri: str) -> str:
        """The IRI *iri* names, relative ones against the base; only a reader
        calls this, at an error that ends the parse, so it files nothing."""
        if not is_absolute_iri(iri):
            if self.base is None:
                raise self.error(f"relative IRI {iri!r} without a base")
            iri = self.base + iri
        if not is_valid_iri(iri):
            raise self.error(f"not a valid IRI: {iri!r}")
        return iri

    def read_iriref(self) -> str:
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
        return unescape(name) if "\\" in name else name

    def read_prefixed_name(self) -> str:
        prefix = self.read_prefix_name()
        self.expect(":")
        local = self.read_local_name()
        ns = self.prefixes.get(prefix)
        if ns is None:
            raise self.error(f"undeclared prefix: {prefix!r}")
        return self.resolve(ns + local)

    def read_iri(self, expected: str = "an IRI") -> Term:
        """The IRI at the cursor, as a term; an error naming the *expected*
        term at any character that starts neither an IRIREF nor a prefixed
        name."""
        ch = self.peek()
        if ch == "<":
            iri = self.read_iriref()
        elif ch == ":" or _PREFIX_START_RE.match(ch):
            iri = self.read_prefixed_name()
        else:
            raise self.error(f"expected {expected}, found {ch!r}" if ch else f"expected {expected}")
        return f"<{iri}>", None

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
        """The string at the cursor, which stands at its opening quote."""
        for quote in ('"""', "'''", '"', "'"):
            if self.try_consume(quote):
                break
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

    def read_literal(self) -> Term:
        lex = self.read_string()
        if self.peek() == "@":
            if not _LANGTAG_RE.match(self.text, self.pos):
                raise self.error("expected a language tag after '@'")
            raise self.error("language-tagged literals are not supported", unsupported=True)
        return lex, (self.read_iri()[0][1:-1] if self.try_consume("^^") else XSD_STRING)

    def read_constant(self, expected: str = "an object") -> Term:
        """An IRI, or a quoted, numeric or boolean literal, else *expected*."""
        ch = self.peek()
        if ch and ch in "\"'":
            return self.read_literal()
        match = _BOOLEAN_RE.match(self.text, self.pos)
        if match:
            self.pos = match.end()
            return match[0], XSD_BOOLEAN
        if "0" <= ch <= "9" or ch in "+-.":
            for regex, datatype in _NUMBERS:
                match = regex.match(self.text, self.pos)
                if match:
                    self.pos = match.end()
                    return match.group(), datatype
        return self.read_iri(expected)
