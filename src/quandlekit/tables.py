"""Plain-text quandle tables.

Format: first line is the order n, followed by n lines of n integers.
Entries are 0-indexed by default; pass one_indexed=True for tables written
over 1..n.  A table stored for the left action (x > y read column-first)
is converted by transposing, via convention="left".
"""

from __future__ import annotations

from importlib import resources

from .cayley import CayleyQuandle, validate_quandle


class TableFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_table(text: str, *, one_indexed: bool = False,
                convention: str = "right") -> CayleyQuandle:
    if convention not in ("right", "left"):
        raise ValueError(f"unknown convention {convention!r}")
    lines = text.splitlines()
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not stripped:
        raise TableFormatError("empty input")
    header_line, header = stripped[0]
    try:
        n = int(header)
    except ValueError:
        raise TableFormatError(f"expected the order, got {header!r}", header_line)
    if n < 1:
        raise TableFormatError(f"order must be positive, got {n}", header_line)
    body = stripped[1:]
    if len(body) < n:
        raise TableFormatError(f"expected {n} rows, found {len(body)}")
    if len(body) > n:
        raise TableFormatError(f"expected {n} rows, found {len(body)}", body[n][0])
    rows = []
    offset = 1 if one_indexed else 0
    low, high = offset, n - 1 + offset
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise TableFormatError(
                f"expected {n} entries, found {len(tokens)}", lineno
            )
        row = []
        for tok in tokens:
            try:
                v = int(tok)
            except ValueError:
                raise TableFormatError(f"bad entry {tok!r}", lineno)
            if not low <= v <= high:
                raise TableFormatError(
                    f"entry {v} outside {low}..{high}", lineno
                )
            row.append(v - offset)
        rows.append(row)
    if convention == "left":
        rows = [[rows[y][x] for y in range(n)] for x in range(n)]
    return validate_quandle(rows)


def format_table(q: CayleyQuandle, *, one_indexed: bool = False) -> str:
    offset = 1 if one_indexed else 0
    rows = [" ".join(map(str, row)) for row in (q._array + offset).tolist()]
    return "\n".join([str(q.order), *rows]) + "\n"


def load_table(path, *, one_indexed: bool = False,
               convention: str = "right") -> CayleyQuandle:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_table(text, one_indexed=one_indexed, convention=convention)


def bundled_order12() -> CayleyQuandle:
    """The connected order-12 quandle shipped with the package; the smallest
    connected quandle whose ring is not multiplicity-free."""
    text = resources.files("quandlekit.data").joinpath("order12.txt").read_text()
    return parse_table(text, one_indexed=True)
