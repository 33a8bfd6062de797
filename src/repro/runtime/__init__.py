"""SQLJ Part 0 runtime.

Generated programs interact with the database exclusively through this
package: :class:`~repro.runtime.context.ConnectionContext` objects carry
connections (and per-profile :class:`ConnectedProfile` caches), the typed
iterator classes in :mod:`repro.runtime.iterators` implement the paper's
strongly typed cursors, and :mod:`repro.runtime.api` holds the entry
points the translator's generated code calls (``sqlj.execute``,
``sqlj.query``, ``sqlj.fetch``, ``sqlj.load_profile``).

``sqlj`` and the iterator classes are importable here — they are the
translator's code-generation targets.  ``ConnectionContext`` and
``ExecutionContext`` live on the top-level :mod:`repro` façade.
"""

from __future__ import annotations

from repro.runtime import api as sqlj
from repro.runtime.iterators import (
    NamedIterator,
    PositionalIterator,
    SQLJIterator,
)

__all__ = [
    "sqlj",
    "SQLJIterator",
    "PositionalIterator",
    "NamedIterator",
]
