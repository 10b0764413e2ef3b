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
* prefix and base declarations, alike in both prologues, the SPARQL-style
  ``PREFIX`` and ``BASE`` in any case.

The parsers step through the text a run at a time: one ``findall`` gives
the texts of the tokens ahead in their common spellings (punctuation, an
IRIREF or a prefixed name without escapes, a short string without
escapes, alone or typed by an absolute IRIREF or a prefixed name, a
number, a boolean, ``a``, a blank node label, ``@prefix``, ``@base``, a
variable, a bare word: ASCII letters, the spelling of every keyword, or
one of SPARQL's operators, ``*``, the path operators and a lone ``?`` or
``$`` among them), up to the first spelling it leaves to a reader,
and :meth:`Lexer.token` hands them out one by one.  Every other spelling
is read at a cursor by the token's reader, so the readers alone hold each
token's full grammar and errors, and the cursor reads only the readers'
spellings.  No run keeps offsets: where a reader takes over, an error
stands, or a blank node opens, the offset is found by stepping through
the run again, and only when it is asked for; so is the text of the token
before the one just read (:meth:`Lexer.before`).  The IRI
of an IRIREF or prefixed name and the literal of a short string, a
number or a boolean are looked up by their token text, and each IRI and
untyped literal is built once per parser instance.

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

from .errors import InvalidTermError
from .rdf import _ECHAR, _IRI_CHAR, _SCHEME, _VAR_NAME, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING
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
# 'true' or 'false', unless a longer name or a prefixed name starts there
_BOOLEAN_RE = re.compile(r"(?:true|false)(?!\w|[\w.-]*:)")
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")
# the characters of an IRIREF without an escape
_IRI_CHARS = _IRI_CHAR + "*"
_IRI_CHARS_RE = re.compile(_IRI_CHARS)
# SPARQL's operators and path operators, longest first, and the '?' or '$'
# of no variable
OPERATORS = ("!=", "<=", ">=", "&&", "||", "=", "<", ">", "!", "+", "-", "*", "/", "|", "^", "?", "$")
# One match per token of a run: whitespace and comments, then the token's
# text, the one group, in a common spelling: a punctuation mark, an
# IRIREF, a prefixed name or a short string, none with an escape, the
# string alone or typed by an absolute IRIREF or a prefixed name, a number,
# a boolean, 'a', a blank node label, '@prefix', '@base', a variable, a
# bare word or an operator.  The operators come last, so each spelling
# before them is the token it was without them.  Any other spelling
# (escapes, long strings, a language tag or a relative datatype after the
# string) is left to the readers below, so they alone hold its full
# grammar and errors:
# there the last match takes the rest of the window outside the group, so
# the run ends with '', and sre moves a DOTALL '.+' straight to the
# window's end without reading it.  A number, a boolean or a label is
# matched by the readers' own pattern, or one that stops where they stop
# (a number that starts with '.' is read as the mark, which the grammar
# gives back to the reader).  A comment needs its newline, so a window
# that cuts one hands it to the readers too; at the window's end, the
# whitespace and comments left are the group.  A local name stops before
# a bare trailing '.', and the lookahead after it rejects, one character
# at a time, any shorter name than the readers would take.  A prefixed
# name of ASCII letters, digits, '_' and '-' is first tried in a cheaper
# form, without lookbehinds, whose lookahead leaves any longer name to the
# full one: a wide mapping's parse takes about 4% less time with it.  An
# optional part is written '(?:...|)', and comments are looked for only at
# a '#': sre runs that faster than '?' or '*'.  A bare word, the spelling
# of every keyword, is ASCII letters that no name character, ':', '.' or
# '-' follows, as for 'a': SPARQL reads the longest token, so 'optional:x'
# is a prefixed name, and no case fold outside ASCII ever spells a keyword.
_ASCII_PNAME = r"[A-Za-z][A-Za-z0-9_-]*:[A-Za-z0-9_][A-Za-z0-9_-]*(?![\w.:%\\-])"
_RUN_WS = r"[ \t\r\n]*(?:(?=#)(?:#[^\n]*\n[ \t\r\n]*)*|)"
_PNAME = r"(?:[^\W\d_][\w.-]*(?<!\.)|):(?:[\w:%][\w:%.-]*(?<!\.)|)(?![\w:%-]|\.+[\w:%-]|\.*\\)"
_SHORT_STRING = r"\"[^\"\\\r\n]*\"|'[^'\\\r\n]*'"
_TOKEN = (
    r"[][(){},;.]"
    f"|{_ASCII_PNAME}"
    rf"|<{_IRI_CHARS}>"
    f"|{_PNAME}"
    # a short string, alone or typed by an absolute IRIREF or a prefixed name
    r"|\"[^\"\\\r\n]*\"(?![\"@^])|'[^'\\\r\n]*'(?!['@^])"
    rf"|(?:{_SHORT_STRING})\^\^(?:<{_SCHEME}{_IRI_CHARS}>|{_PNAME})"
    f"|{_BOOLEAN_RE.pattern}|{'|'.join(regex.pattern for regex, _ in _NUMBERS)}"
    # 'a' unless a longer name starts there, and a label without the
    # trailing '.' that ends a statement
    r"|a(?![\w.:-])|_:\w[\w.-]*(?<!\.)"
    rf"|@prefix|@base|[?$]{_VAR_NAME}|[A-Za-z]+(?![\w:.-])"
    f"|{'|'.join(map(re.escape, OPERATORS))}"
)
_RUN_RE = re.compile(
    f"{_RUN_WS}(?:({_TOKEN}"
    r"|(?:[ \t\r\n]|#[^\n]*\n)+\Z)"
    r"|(?=[^ \t\r\n])(?s:.+))"
)
_SPACE_RE = re.compile(r"[ \t\r\n]")
# A run reads a window of about this many characters, cut where no token
# is cut short.  A hand-over to the readers finds where they start by
# stepping through the run again from the window's start, so the window
# bounds that step, and the texts a run holds at once.
WINDOW = 1 << 12
# the characters a string body takes without a second look
_STRING_CHARS = {
    '"""': re.compile(r'[^"\\]*'),
    "'''": re.compile(r"[^'\\]*"),
    '"': re.compile(r'[^"\\\r\n]*'),
    "'": re.compile(r"[^'\\\r\n]*"),
}


def _end_of_word(text: str, pos: int) -> int:
    """The offset of the first whitespace at or after *pos*, or the end."""
    space = _SPACE_RE.search(text, pos)
    return space.start() if space else len(text)


def _past(text: str, pos: int, tokens: int) -> int:
    """The offset just past the next *tokens* tokens of a run after *pos*,
    found by stepping through them again."""
    for _ in range(tokens):
        pos = _RUN_RE.match(text, pos).end()
    return pos


def offsets(text: str, runs: list[tuple[int, int]], marks: list[int]) -> list[int]:
    """Where each of *marks* (see :meth:`Lexer.mark`) stands in *text*,
    whose *runs* are those of the lexer that made them: a token's mark is
    found by stepping through its run again, once for all the marks in it."""
    firsts = [first for first, _ in runs]
    found = [~mark for mark in marks]
    run = -1
    for mark, k in sorted((mark, k) for k, mark in enumerate(marks) if mark >= 0):
        at = bisect_right(firsts, mark) - 1
        if at != run:
            run, (stepped, pos) = at, runs[at]
        pos, stepped = _past(text, pos, mark - stepped), mark
        found[k] = _WS_RE.match(text, pos).end()
    return found


class Lexer:
    """A text read as runs of token texts, and a cursor for the readers.

    :meth:`token` gives the text of each token in turn: a run holds the
    texts of the tokens ahead in their common spellings, and where it ends
    the cursor, ``pos``, takes over at the spelling a reader must read.
    While a run is read the cursor is stale: :meth:`back` and :meth:`sync`
    move it to a token, and every method below them reads at the cursor.

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
        # the term of each IRIREF (never a relative one) and prefixed name
        # read from a run, by its text, until the next prefix or base
        # declaration; a subclass may remember more
        self._terms: dict[str, Iri] = {}
        # each untyped literal a token spells, by its text, and a string also
        # by its lexical form in double quotes: one object per form
        self._literals: dict[str, Literal] = {}
        # the run being read: its texts, popped from the end down to ''
        # (reading on) or the '' of its last match (a reader's spelling);
        # their number, 0 while the readers have the cursor; its window;
        # whether a reader's spelling ends it; and the number of tokens the
        # runs before it gave
        self._run = [""]
        self._count = self._start = self._end = self._given = 0
        self._marked = False
        # the text of the token before the run's first, where a window cut
        # it from the run before ('' after a reader's spelling), and of the
        # run's last token
        self._before = self._last = ""
        # each run a mark was taken in: the index of its first token among
        # all the tokens runs have given, and its window's start
        self.runs: list[tuple[int, int]] = []

    # -- runs ----------------------------------------------------------------

    def token(self) -> str:
        """The text of the next token; '' when a reader must take what
        comes next, or at the end, with the cursor there."""
        return self._run.pop() or self._next_run()

    def _next_run(self) -> str:
        """The first text of the next run, or ''; see :meth:`token`."""
        text = self.text
        before = ""
        if self._count:
            # a run whose window ends just past a newline, or at the end,
            # ends where the text holds a reader's spelling: no token or
            # comment runs over such a cut
            handed = self._marked and (self._end == len(text) or text[self._end - 1] == "\n")
            before = self._last
            self._leave(self._count)
            if handed:
                return ""
        while True:
            start = self.pos
            end = start + WINDOW
            if end < len(text):
                # just past a newline, which no token holds and which ends
                # a comment, or else at the next whitespace
                end = text.find("\n", end, end + WINDOW) + 1 or _end_of_word(text, end)
            else:
                end = len(text)
            run = _RUN_RE.findall(text, start, end)
            marked = bool(run) and not run[-1]
            if run and not marked and run[-1][0] in " \t\r\n#":
                run.pop()  # the whitespace and comments before the window's end
            if len(run) > marked:
                if not marked:
                    run.append("")
                run.reverse()
                self._run[:] = run
                self._count, self._start, self._end, self._marked = len(run) - 1, start, end, marked
                self._before, self._last = before, run[1]
                return self._run.pop()
            # no token: whitespace and comments (the run leaves one that the
            # window cuts), a reader's spelling, or the end
            pos = _WS_RE.match(text, start).end()
            if pos == start:
                self._run[:] = ("",)
                return ""
            self.pos = pos

    def _leave(self, read: int):
        """Put the cursor at the token after the first *read* of the run,
        and leave the rest of the run to the readers."""
        self._given += read
        if read < self._count or self._marked:
            pos = _past(self.text, self._start, read)
        else:
            pos = self._end
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
        read again from its run; '' after a reader's spelling."""
        read = self._count + 1 - len(self._run)
        if read == 1:
            return self._before
        return _RUN_RE.findall(self.text, self._start, self._end)[read - 2]

    def mark(self) -> int:
        """Where the token just read starts, for :func:`offsets`: the
        index of the token among all the tokens runs have given or, while
        the readers have the cursor, the cursor's offset as its bitwise
        complement, a negative int."""
        if not self._count:
            return ~self.pos
        if not self.runs or self.runs[-1][0] != self._given:
            self.runs.append((self._given, self._start))
        return self._given + self._count - len(self._run)

    def term(self, token: str, constant: bool) -> Iri | Literal | None:
        """The IRI (or, in a *constant*'s place, the literal) that *token*
        spells, remembered by its text; None for a token a reader must
        take, which it gives back (see :meth:`back`)."""
        first, iri = token[:1], None
        if first == "<" and token[-1] == ">":  # not the operator '<' or '<='
            iri = token[1:-1]
            if not is_absolute_iri(iri):
                # a relative IRI is resolved against the base in scope, and
                # without one the reader reports the error
                if self.base is not None:
                    return self.resolve(iri)
                iri = None
        elif first == '"' or first == "'":
            if constant:
                if token[-1] != first:
                    return self._typed(token)
                # one literal per lexical form, however quoted
                key = token if first == '"' else f'"{token[1:-1]}"'
                term = self._literals.get(key) or trusted_literal(token[1:-1], XSD_STRING)
                self._literals[key] = self._literals[token] = term
                return term
        elif ":" in token:
            prefix, _, local = token.partition(":")
            ns = self.prefixes.get(prefix)
            if ns is not None:
                iri = ns + local
        elif constant and token:
            # a number or a boolean, matched as the readers would match it
            for regex, datatype in (*_NUMBERS, (_BOOLEAN_RE, XSD_BOOLEAN)):
                if regex.fullmatch(token):
                    term = self._literals[token] = trusted_literal(token, datatype)
                    return term
        if iri is None:
            self.back(token)
            return None
        term = self._iris.get(iri)
        if term is None:
            # the token holds no character an IRI forbids, and a namespace
            # is absolute
            term = self._iris[iri] = trusted_iri(iri)
        self._terms[token] = term
        return term

    def _typed(self, token: str) -> Literal | None:
        """The literal of *token*, a short string typed by an absolute
        IRIREF or a prefixed name; None, as :meth:`term` gives it, for an
        undeclared prefix.  It is not remembered by its text: the table of
        IRIs also answers subjects and verbs, which no literal may be, and
        the table of literals outlives a prefix declaration."""
        lex, _, datatype = token[1:].partition(token[0] + "^^")
        if datatype[0] == "<":
            return trusted_literal(lex, datatype[1:-1])
        prefix, _, local = datatype.partition(":")
        ns = self.prefixes.get(prefix)
        if ns is None:
            self.back(token)
            return None
        return trusted_literal(lex, ns + local)

    # -- cursor ------------------------------------------------------------

    def error(self, message: str, unsupported: bool = False) -> Exception:
        self.sync()
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
        self.declare_prefix(prefix, self.read_iriref().value)

    def _parse_base_body(self, token: str):
        """A base declaration after its keyword, from the token after that
        ('' to read it at the cursor)."""
        self.base = self._declared_iri(token)
        self._terms.clear()

    def _declared_iri(self, token: str) -> str:
        """The IRI a declaration names, from its token."""
        iri = token[1:-1]
        if token[:1] == "<" and is_absolute_iri(iri):
            return iri
        self.back(token)
        self.skip_ws()
        return self.read_iriref().value

    def descend(self, opened: int):
        """Enter one more level of nesting, at the bracket *opened* marks;
        the caller leaves it again with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.sync()
            (self.pos,) = offsets(self.text, self.runs, [opened])
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
        key = f'"{lex}"'  # the text of the token that spells it, if one can
        term = self._literals.get(key)
        if term is None:
            term = self._literals[key] = Literal(lex)
        return term

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
