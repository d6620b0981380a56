"""Export experiment rows to CSV/JSON for downstream plotting.

The benchmark harness prints ASCII tables; users who want to plot with
their own tooling can funnel the same row dictionaries through these
helpers.  Column order follows first appearance, rows may be ragged
(missing cells export as empty), and floats are emitted with full
precision so re-analysis is lossless.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Sequence


def rows_to_csv(rows: Sequence[Dict[str, object]]) -> str:
    """Render rows as CSV text (header from first-appearance order)."""

    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def rows_to_json(rows: Sequence[Dict[str, object]]) -> str:
    """Render rows as pretty-printed JSON."""

    return json.dumps(list(rows), indent=2, sort_keys=True, default=str)


def write_rows(rows: Sequence[Dict[str, object]], path: str | Path) -> Path:
    """Write rows to ``path``; the suffix picks the format (.csv/.json)."""

    path = Path(path)
    if path.suffix == ".csv":
        text = rows_to_csv(rows)
    elif path.suffix == ".json":
        text = rows_to_json(rows)
    else:
        raise ValueError(
            f"unsupported export suffix {path.suffix!r} (use .csv or .json)"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
