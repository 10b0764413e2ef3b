"""CSV sources: parsing bytes or text into a :class:`CsvTable`.

CSV files are parsed with the standard library's RFC 4180 reader in
strict mode: quoted fields, embedded separators and newlines, and both LF
and CRLF line ends are handled, and broken quoting (a quote left open, or
text after a closing quote) is an error, not a cell.  A header row is
mandatory; header names must be non-empty and unique, and every data row
must have exactly as many fields as the header (ragged rows are an error
that names the offending row).  Equal cells of one table share one string,
so a value repeated down a column is held once.  Bytes are decoded by
:func:`rmlprune.errors.decoded`, as every parser's are; text may start with
byte-order marks (a spreadsheet export read with ``open()`` keeps one).

Evaluation (:mod:`rmlprune.algebra`) reads a table by column name and
keeps its cells as raw strings: each constructor builds its term from
them, and an empty cell is NULL, so it builds no term and joins nothing.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .errors import CsvError, decoded

CSV_KIND = "csv"

Row = tuple[str, ...]


@dataclass(frozen=True)
class CsvTable:
    header: tuple[str, ...]
    rows: tuple[Row, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        seen: dict[str, int] = {}
        for i, name in enumerate(self.header):
            if name == "":
                raise CsvError(f"empty header name at column {i + 1}")
            if name in seen:
                raise CsvError(f"duplicate header name: {name!r}")
            seen[name] = i
        object.__setattr__(self, "_index", seen)
        width = len(self.header)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise CsvError(f"row {i + 2}: expected {width} fields, found {len(row)}")

    def column_index(self, name: str) -> int | None:
        return self._index.get(name)


def parse_csv(data: bytes | str) -> CsvTable:
    """Parse CSV bytes or text into a table; header row required."""
    text = decoded(data, CsvError) if isinstance(data, bytes) else data.lstrip("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    cells: dict[str, str] = {}
    try:
        records = [tuple(map(cells.setdefault, rec, rec)) for rec in reader]
    except csv.Error as exc:
        raise CsvError(f"malformed CSV: {exc}") from None
    if not records:
        raise CsvError("missing header row")
    header = records[0]
    if header == ("",) or not header:
        raise CsvError("missing header row")
    return CsvTable(header=header, rows=tuple(records[1:]))
