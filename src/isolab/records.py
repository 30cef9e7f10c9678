"""The JSON form shared by every result record, without numpy."""

import json
from dataclasses import asdict, fields, is_dataclass


class Record:
    """Base of the result dataclasses: their one JSON form, with arrays as lists,
    nested dataclasses as objects, and no field declared ``field(repr=False)``."""

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        return json.dumps(doc, default=lambda x: asdict(x) if is_dataclass(x) else x.tolist())
