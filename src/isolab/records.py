"""The record layer: the JSON form of every result, the CSV table, read-only arrays
and e-notation; numpy loads on the first :func:`_frozen` call, so float-only commands skip it."""

import json
import math
from dataclasses import asdict, fields, is_dataclass
from typing import Sequence

np = None  # numpy, bound once by the first _frozen call


class Record:
    """Base of the result dataclasses: their one JSON form, with arrays as lists,
    nested dataclasses as objects, and no field declared ``field(repr=False)``."""

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        return json.dumps(doc, default=lambda x: asdict(x) if is_dataclass(x) else x.tolist())


def _frozen(values):
    """A read-only float copy, so no caller can change a record's arrays."""
    global np
    if np is None:
        import numpy as np
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def csv_table(header: Sequence[str], rows) -> str:
    """A CSV table: the header line, then one line of ``.17g`` numbers per row."""
    lines = [",".join(header), *(",".join(f"{x:.17g}" for x in row) for row in rows)]
    return "\n".join(lines) + "\n"


def _e_notation(log10: float) -> str:
    """10**log10 as m.mmme+k, for magnitudes beyond the float range."""
    k = math.floor(log10)
    m = 10 ** (log10 - k)
    return f"{m / 10:.3f}e{k + 1:+d}" if m >= 9.9995 else f"{m:.3f}e{k:+d}"  # not 10.000
