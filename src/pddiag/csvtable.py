"""The CSV tables pddiag reads and writes: a header row of fixed field names, then one row per record."""

from __future__ import annotations

import csv

from .atomic import replacing


def read_rows(path, fields: list[str], parse) -> list:
    """``parse(row)`` for each row, as a dict keyed by ``fields``.

    The file is UTF-8, with or without a byte-order mark. Header names are
    compared after stripping spaces. A wrong header, a row with too few or
    too many fields, or a ValueError or csv.Error from ``parse`` raises
    ValueError("{path}, line N: ...").
    """
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != fields:
                raise ValueError(f"expected header {','.join(fields)}, got {reader.fieldnames}")
            reader.fieldnames = fields
            for row in reader:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(fields)} fields, got {row}")
                records.append(parse(row))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    return records


def write_rows(path, fields: list[str], rows) -> None:
    """Replace ``path`` with the header and ``rows`` in UTF-8, CRLF-terminated as csv.writer writes them."""
    with replacing(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)
