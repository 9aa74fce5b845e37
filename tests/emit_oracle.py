"""The emission oracle: ``cli.emit`` as it was written before whole-table formats.

Each CSV row is joined from a per-value f-string, and the JSON text is one
``json.dumps(..., sort_keys=True, indent=2)`` of the whole payload.  The
metadata lines are those of ``cli._format_metadata_value``, which both share.
"""

import json

from zenotraj.cli import _format_metadata_value


def emit(table, fmt="csv", path=None):
    """Serialize the table; identical tables give identical bytes."""
    if fmt == "csv":
        lines = [f"# {key}={_format_metadata_value(table.metadata[key])}"
                 for key in sorted(table.metadata)]
        lines.append(",".join(table.columns))
        for row in table.values:
            lines.append(",".join(f"{v:.17g}" for v in row.tolist()))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "metadata": table.metadata,
            "columns": list(table.columns),
            "rows": table.values.tolist(),
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text
