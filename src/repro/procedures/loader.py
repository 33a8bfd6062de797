"""Executing archive modules inside the database.

Each :class:`repro.engine.database.Database` owns one
:class:`ParModuleLoader`.  The loader turns installed archive sources into
live module objects, caching them per (archive, module).  Cross-archive
imports are resolved by injecting a scoped ``__import__`` into each
module's builtins: a plain ``import helper`` inside archive code first
consults the defining archive and its SQL path
(:func:`repro.procedures.paths.resolve_module_source`), then falls back to
the ordinary Python import machinery — the analogue of the paper's
SQL-supplied class loader, without touching ``sys.modules``.
"""

from __future__ import annotations

import builtins
import types
from typing import Any, Callable, Dict, Tuple

from repro import errors
from repro.engine.catalog import InstalledPar
from repro.procedures.paths import resolve_module_source

__all__ = ["ParModuleLoader"]


class ParModuleLoader:
    """Loads and caches modules from a database's installed archives."""

    def __init__(self, database: Any) -> None:
        # The catalog, not the database: no reference cycle keeps a
        # closed database alive.
        self.catalog = database.catalog
        self._cache: Dict[Tuple[str, str], types.ModuleType] = {}

    # ------------------------------------------------------------------
    def invalidate_par(self, par_name: str) -> None:
        """Drop cached modules of one archive (remove_par/replace_par)."""
        for key in [k for k in self._cache if k[0] == par_name]:
            del self._cache[key]

    def load_module(
        self, par: InstalledPar, module_name: str
    ) -> types.ModuleType:
        """Return the live module ``module_name`` as seen from ``par``."""
        resolved = resolve_module_source(self.catalog, par, module_name)
        if resolved is None:
            raise errors.PathResolutionError(
                f"module {module_name!r} is not reachable from archive "
                f"{par.name!r}"
            )
        defining_par, source = resolved
        key = (defining_par.name, module_name)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        module = types.ModuleType(module_name)
        module.__dict__["__builtins__"] = self._scoped_builtins(defining_par)
        # Publish before exec so import cycles inside one archive resolve.
        self._cache[key] = module
        try:
            code = compile(source, f"<par {defining_par.name}:"
                                   f"{module_name}>", "exec")
            exec(code, module.__dict__)
        except errors.SQLException:
            del self._cache[key]
            raise
        except Exception as exc:
            del self._cache[key]
            raise errors.ParInstallationError(
                f"module {module_name!r} in archive "
                f"{defining_par.name!r} failed to load: {exc}"
            ) from exc
        return module

    def resolve_member(
        self, par: InstalledPar, module_name: str, member: str
    ) -> Any:
        """Resolve ``module.member`` to a Python object."""
        module = self.load_module(par, module_name)
        try:
            return getattr(module, member)
        except AttributeError:
            raise errors.RoutineResolutionError(
                f"module {module_name!r} has no attribute {member!r}"
            ) from None

    # ------------------------------------------------------------------
    def _scoped_builtins(self, par: InstalledPar) -> Dict[str, Any]:
        """Builtins dict whose ``__import__`` knows the archive's path."""
        scoped = dict(builtins.__dict__)
        scoped["__import__"] = self._make_import(par)
        return scoped

    def _make_import(self, par: InstalledPar) -> Callable[..., Any]:
        loader = self

        def par_import(
            name: str,
            globals_: Any = None,
            locals_: Any = None,
            fromlist: Any = (),
            level: int = 0,
        ) -> Any:
            if level == 0:
                resolved = resolve_module_source(loader.catalog, par, name)
                if resolved is not None:
                    module = loader.load_module(par, name)
                    # ``import a.b`` binds ``a``; our archives use flat
                    # names, so returning the module itself is correct for
                    # both ``import m`` and ``from m import x``.
                    return module
            return builtins.__import__(
                name, globals_, locals_, fromlist, level
            )

        return par_import
