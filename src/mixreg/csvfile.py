"""The one CSV format every mixreg output uses: a header line, then one line
per row; flags as 0/1, integers as written, every other number at full
precision (.17g); `,` separators, `.` decimals and LF line ends."""

from __future__ import annotations

import numpy as np


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    return str(v) if isinstance(v, (int, np.integer)) else f"{v:.17g}"


def write_csv(path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
