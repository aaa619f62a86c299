"""Deterministic CSV/JSON emission of run data with a metadata header.

A table is its columns: a dict from each field name, in field order, to a
list of its cells (``None`` for an empty cell), all of one length.  A
column may instead be a :class:`RowBlock` under ``name``: one list of cells
per row for the fields ``name_0 ... name_{width-1}``, a short or empty row
padded with empty cells.  CSV files carry ``# key = value`` comment lines,
then one header row, then RFC-4180 rows; JSON files mirror the same records
as ``{"metadata": {...}, "rows": [...]}``.  No timestamps: identical inputs
produce byte-identical files.  Floats are written with ``repr`` so every
file round-trips through :func:`read_table` losslessly.  The CSV body is
formatted a column (or a block's cells) at a time, in chunks of about
``CSV_CHUNK_CELLS`` cells across every field: floats, ints, bools and
empty cells are joined as they are, and only other cells pass csv's
QUOTE_MINIMAL rule, so the bytes are ``csv.writer``'s.  JSON expands each
block into its fields.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from itertools import chain, islice, zip_longest
from pathlib import Path


def config_hash(config: dict) -> str:
    """Stable short hash of an effective configuration."""
    canon = json.dumps(
        {str(k): str(v) for k, v in config.items()}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _coerce_scalar(v):
    # numpy scalars repr as np.float64(...); strip them to plain Python.
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        try:
            return v.item()
        except (AttributeError, ValueError):
            return v
    return v


# Cell text by exact type: floats and ints by repr, bools as true/false; none
# of these ever needs quoting.  Any other type takes str.
_PLAIN = {float: repr, int: repr, bool: lambda v: "true" if v else "false"}


def _format_value(v) -> str:
    v = _coerce_scalar(v)
    return _PLAIN.get(type(v), str)(v)


def _parse_value(s: str):
    if s == "":
        return None
    if s in ("true", "false"):
        return s == "true"
    # float handles inf/nan spellings; a CSV header writes a list as its str.
    for parse in (int, float, json.loads) if s.startswith("[") else (int, float):
        try:
            return parse(s)
        except ValueError:
            pass
    return s


def _quote_minimal(text: str) -> str:
    """csv's QUOTE_MINIMAL rule: quote a field holding a comma, a quote or a
    line break, doubling its quotes."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class RowBlock(list):
    """The fields ``name_0 ... name_{width-1}`` of a table as one list of
    cells per row, each row at most ``width`` cells long; the fields a row
    does not reach are empty."""

    def __init__(self, rows, width: int):
        super().__init__(rows)
        if width < 1 or any(len(row) > width for row in self):
            raise ValueError(f"a block needs width >= 1 and rows of at most {width} cells")
        self.width = width


def _field_names(columns: dict) -> list:
    names = []
    for name, cells in columns.items():
        if isinstance(cells, RowBlock):
            names += [f"{name}_{j}" for j in range(cells.width)]
        else:
            names.append(name)
    return names


# render_csv formats chunks of about CSV_CHUNK_CELLS cells, each a slice of
# rows across every field, so neither a long nor a wide table holds the
# texts of all its cells at once.
CSV_CHUNK_CELLS = 32768


def _csv_column(values: list) -> list[str]:
    """The CSV text of each of ``values``, formatted as ``_format_value`` does."""
    kinds = set(map(type, values)) - {type(None)}
    if len(kinds) == 1 and kinds <= _PLAIN.keys():
        text = _PLAIN[kinds.pop()]
        return ["" if v is None else text(v) for v in values]
    return ["" if v is None else _quote_minimal(_format_value(v)) for v in values]


def _csv_cells(cells: list, lo: int, hi: int) -> list[str]:
    """The CSV text of the share of rows ``lo:hi`` in their records: a
    column's cells, or a block's rows, their cells formatted as one column
    and each row joined, padded to its width by commas (an empty row by one
    comma fewer)."""
    if not isinstance(cells, RowBlock):
        return _csv_column(cells[lo:hi])
    rows, width = cells[lo:hi], cells.width
    texts = iter(_csv_column(list(chain.from_iterable(rows))))
    return [",".join(islice(texts, len(row))) + "," * (width - (len(row) or 1)) for row in rows]


def _csv_records(columns: list, fields: int) -> str:
    """CSV records of the rows of ``columns`` (``fields`` fields in all), as
    csv.writer writes them."""
    step = max(1, CSV_CHUNK_CELLS // max(1, fields))
    out = []
    for lo in range(0, len(columns[0]) if columns else 0, step):
        lines = list(map(",".join, zip(*(_csv_cells(c, lo, lo + step) for c in columns))))
        if fields == 1:  # csv.writer quotes a record of one empty field
            lines = [line or '""' for line in lines]
        out.append("\r\n".join([*lines, ""]))
    return "".join(out)


def render_csv(columns: dict, metadata: dict) -> str:
    """Metadata lines, then the header and the rows as CSV records."""
    head = "".join(f"# {key} = {_format_value(metadata[key])}\r\n" for key in sorted(metadata))
    names = _field_names(columns)
    if columns:  # the quoted names in one join; a lone empty name is written ""
        head += (",".join([_quote_minimal(_format_value(n)) for n in names]) or '""') + "\r\n"
    return head + _csv_records(list(columns.values()), len(names))


def render_json(columns: dict, metadata: dict) -> str:
    def clean(v):
        v = _coerce_scalar(v)
        if isinstance(v, float) and (math.isinf(v) or math.isnan(v)):
            return repr(v)  # JSON has no inf/nan literals
        return v

    fields = []
    for cells in columns.values():
        if isinstance(cells, RowBlock):  # one transpose; the pad row drops its cell
            fields += [f[:-1] for f in zip_longest(*cells, [None] * cells.width)]
        else:
            fields.append(cells)
    names = _field_names(columns)
    payload = {
        "metadata": {k: clean(v) for k, v in sorted(metadata.items())},
        "rows": [dict(zip(names, map(clean, row))) for row in zip(*fields)],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def write_table(out, columns: dict, metadata: dict, fmt: str = "csv") -> None:
    """Write ``columns`` (name -> cells, in field order) to a path or '-'
    (stdout) in the requested format."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if len(set(map(len, columns.values()))) > 1:
        raise ValueError("columns differ in length")
    text = render_csv(columns, metadata) if fmt == "csv" else render_json(columns, metadata)
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def read_table(path) -> tuple[dict, list[dict]]:
    """Parse a file produced by write_table (format auto-detected)."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        rows = [
            {k: _parse_value(v) if isinstance(v, str) else v for k, v in row.items()}
            for row in payload["rows"]
        ]
        meta = {
            k: _parse_value(v) if isinstance(v, str) else v
            for k, v in payload["metadata"].items()
        }
        return meta, rows
    metadata = {}
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = _parse_value(value.strip())
            body_start = i + 1
        else:
            break
    reader = csv.reader(lines[body_start:])
    table = [row for row in reader if row]
    header = table[0]
    rows = [dict(zip(header, map(_parse_value, row))) for row in table[1:]]
    return metadata, rows


def load_config(path) -> dict:
    """Flat ``key = value`` config file; '#' starts a comment."""
    config = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config
