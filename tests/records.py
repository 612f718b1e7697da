"""Compare ``lbound`` records by value.

Records are plain classes that compare by identity, apart from
``LayerSignature``, ``RecordKey`` and ``Scenario``. A test that wants two
records, or structures holding them, to be equal compares their
:func:`fields`.
"""

from __future__ import annotations

from enum import Enum


def fields(obj):
    """``obj`` with every record in it, nested ones too, as its class name and ``vars``."""
    if isinstance(obj, (list, tuple)):
        return [fields(v) for v in obj] if isinstance(obj, list) else tuple(map(fields, obj))
    if isinstance(obj, dict):
        return {k: fields(v) for k, v in obj.items()}
    if type(obj).__module__.startswith("lbound.") and not isinstance(obj, Enum):
        return type(obj).__name__, fields(vars(obj))
    return obj
