"""System catalog.

Holds every named object the engine knows about: tables, views, external
routines (SQLJ Part 1), user-defined types (SQLJ Part 2) and installed
archives ("pars" — the Python analogue of the paper's jar files).  The
catalog is also where EXTERNAL NAME strings get resolved and where the
UDT subtype graph for substitutability lives.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import errors
from repro.sqltypes import ObjectType, TypeDescriptor, parse_type

__all__ = [
    "Column",
    "Table",
    "View",
    "RoutineParam",
    "Routine",
    "AttributeBinding",
    "MethodBinding",
    "UserDefinedType",
    "InstalledPar",
    "Catalog",
    "parse_external_name",
]


@dataclass
class Column:
    """One column of a table or view."""

    name: str
    descriptor: TypeDescriptor
    not_null: bool = False
    default: Any = None  # AST expression or None
    unique: bool = False
    primary_key: bool = False


class Table:
    """Base table: schema plus a versioned row heap.

    The heap is ``versions`` — an append-only list of
    :class:`repro.engine.mvcc.RowVersion` objects; deletes and updates
    only stamp existing versions, so concurrent snapshot readers can
    iterate a ``list()`` copy without locking.  ``mutation_lock``
    serializes structural writes (appends, claim/unclaim, index
    maintenance) on this table only; it is never held while waiting on
    another transaction.
    """

    def __init__(self, name: str, columns: List[Column], owner: str) -> None:
        self.name = name
        self.columns = columns
        self.owner = owner
        self.versions: List[Any] = []  # List[mvcc.RowVersion]
        self.mutation_lock = threading.RLock()
        #: secondary indexes over this table (engine.indexes.Index),
        #: maintained by RowStore DML and rebuilt on ALTER TABLE.
        self.indexes: List[Any] = []
        self._column_index = {c.name: i for i, c in enumerate(columns)}
        if len(self._column_index) != len(columns):
            raise errors.DuplicateObjectError(
                f"duplicate column name in table {name!r}"
            )

    @property
    def rows(self) -> List[List[Any]]:
        """Committed live rows, as a fresh list of value lists.

        Bulk-load convenience and persistence interface: assigning
        ``table.rows = [...]`` replaces the heap with bootstrap
        versions (committed since stamp 0).  Query execution does NOT
        go through this — scans filter ``versions`` through the
        reading transaction's snapshot.
        """
        return [
            v.row
            for v in self.versions
            if v.begin is not None and v.end is None
        ]

    @rows.setter
    def rows(self, value: List[List[Any]]) -> None:
        from repro.engine.mvcc import RowVersion

        with self.mutation_lock:
            self.versions = [RowVersion(row) for row in value]
            # Indexes mirror the heap; IndexScans and the unique check
            # read them in its place.
            for index in self.indexes:
                index.rebuild()

    def add_column(self, column: Column, fill_value: Any = None) -> None:
        """Append a column, extending every stored row with ``fill``."""
        if column.name in self._column_index:
            raise errors.DuplicateObjectError(
                f"column {column.name!r} already exists in table "
                f"{self.name!r}"
            )
        self.columns.append(column)
        self._column_index[column.name] = len(self.columns) - 1
        with self.mutation_lock:
            for version in self.versions:
                version.row.append(fill_value)

    def remove_column(self, name: str) -> Column:
        """Drop a column and its values from every stored row."""
        position = self.column_position(name)
        if len(self.columns) == 1:
            raise errors.CatalogError(
                f"cannot drop the only column of table {self.name!r}"
            )
        column = self.columns.pop(position)
        self._column_index = {
            c.name: i for i, c in enumerate(self.columns)
        }
        with self.mutation_lock:
            for version in self.versions:
                del version.row[position]
        return column

    def column_position(self, name: str) -> int:
        """0-based position of ``name``; raises UndefinedColumnError."""
        try:
            return self._column_index[name]
        except KeyError:
            raise errors.UndefinedColumnError(
                f"column {name!r} does not exist in table {self.name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._column_index


@dataclass
class View:
    """A named stored query."""

    name: str
    query: Any  # ast.QueryExpr
    owner: str
    column_names: Optional[List[str]] = None


@dataclass
class RoutineParam:
    """Resolved routine parameter (SQLJ Part 1 modes included)."""

    name: str
    descriptor: TypeDescriptor
    mode: str = "IN"  # IN / OUT / INOUT


@dataclass
class Routine:
    """An SQL routine bound to an external Python callable.

    ``callable`` is resolved lazily by :mod:`repro.procedures` from
    ``external_name`` (``par_name:module.function``); SQL built-ins and
    directly-registered Python functions set it eagerly.
    """

    name: str
    kind: str  # PROCEDURE or FUNCTION
    params: List[RoutineParam]
    returns: Optional[TypeDescriptor]
    data_access: str
    dynamic_result_sets: int
    external_name: str
    language: str
    parameter_style: str
    owner: str
    par_name: Optional[str] = None
    callable: Optional[Callable[..., Any]] = None

    @property
    def is_function(self) -> bool:
        return self.kind == "FUNCTION"

    def in_params(self) -> List[RoutineParam]:
        return [p for p in self.params if p.mode in ("IN", "INOUT")]

    def out_params(self) -> List[RoutineParam]:
        return [p for p in self.params if p.mode in ("OUT", "INOUT")]


@dataclass
class AttributeBinding:
    """SQL attribute of a UDT mapped onto a Python instance/class field."""

    sql_name: str
    field_name: str
    descriptor: TypeDescriptor
    static: bool = False


@dataclass
class MethodBinding:
    """SQL method of a UDT mapped onto a Python method.

    A binding whose SQL name equals the type name is a constructor; its
    ``python_name`` then names the class itself.
    """

    sql_name: str
    python_name: str
    param_descriptors: List[TypeDescriptor]
    returns: Optional[TypeDescriptor]
    static: bool = False
    is_constructor: bool = False


class UserDefinedType:
    """SQLJ Part 2 user-defined type: a Python class usable as a SQL type."""

    def __init__(
        self,
        name: str,
        external_name: str,
        python_class: type,
        owner: str,
        supertype: Optional["UserDefinedType"] = None,
    ) -> None:
        self.name = name
        self.external_name = external_name
        self.python_class = python_class
        self.owner = owner
        self.supertype = supertype
        self.attributes: Dict[str, AttributeBinding] = {}
        self.methods: Dict[str, MethodBinding] = {}
        self.constructors: List[MethodBinding] = []
        #: Part 2 ordering spec: None (host-language default ordering),
        #: or ("FULL"|"EQUALS", python comparison method name).
        self.ordering_kind: Optional[str] = None
        self.ordering_method: Optional[str] = None

    # -- resolution through the supertype chain --------------------------
    def find_attribute(self, sql_name: str) -> Optional[AttributeBinding]:
        udt: Optional[UserDefinedType] = self
        while udt is not None:
            binding = udt.attributes.get(sql_name)
            if binding is not None:
                return binding
            udt = udt.supertype
        return None

    def find_method(self, sql_name: str) -> Optional[MethodBinding]:
        udt: Optional[UserDefinedType] = self
        while udt is not None:
            binding = udt.methods.get(sql_name)
            if binding is not None:
                return binding
            udt = udt.supertype
        return None

    def attribute(self, sql_name: str) -> AttributeBinding:
        """:meth:`find_attribute`, raising when the type has none."""
        binding = self.find_attribute(sql_name)
        if binding is None:
            raise errors.UndefinedColumnError(
                f"type {self.name!r} has no attribute {sql_name!r}"
            )
        return binding

    def method(self, sql_name: str) -> MethodBinding:
        """:meth:`find_method`, raising when the type has none."""
        binding = self.find_method(sql_name)
        if binding is None:
            raise errors.UndefinedRoutineError(
                f"type {self.name!r} has no method {sql_name!r}"
            )
        return binding

    def find_ordering(self) -> Optional[Tuple[str, str]]:
        """Nearest ordering spec up the supertype chain, if any."""
        udt: Optional[UserDefinedType] = self
        while udt is not None:
            if udt.ordering_kind is not None:
                assert udt.ordering_method is not None
                return udt.ordering_kind, udt.ordering_method
            udt = udt.supertype
        return None

    def is_subtype_of(self, other: "UserDefinedType") -> bool:
        udt: Optional[UserDefinedType] = self
        while udt is not None:
            if udt is other:
                return True
            udt = udt.supertype
        return False

    def descriptor(self) -> ObjectType:
        """ObjectType descriptor bound to this UDT's Python class."""
        return ObjectType(self.name, self.python_class)


@dataclass
class InstalledPar:
    """An installed archive of Python modules (the paper's jar file).

    ``modules`` maps dotted module names to source text.  ``path`` is the
    SQLJ path: an ordered list of ``(pattern, par_name)`` pairs consulted
    when a module referenced from this archive is not found inside it
    (``sqlj.alter_module_path``).
    """

    name: str
    url: str
    modules: Dict[str, str] = field(default_factory=dict)
    deployment_descriptor: Optional[str] = None
    path: List[Tuple[str, str]] = field(default_factory=list)
    owner: str = ""


def parse_external_name(external: str) -> Tuple[Optional[str], str, str]:
    """Split an EXTERNAL NAME string into (par, module, member).

    Formats accepted (from the paper):

    * ``par_name:module.member`` — archive-qualified,
    * ``module.member`` — resolved against the default path,
    * ``member`` — a bare class name (Part 2 CREATE TYPE member clauses).
    """
    par: Optional[str] = None
    rest = external.strip()
    if ":" in rest:
        par, rest = rest.split(":", 1)
        par = par.strip().lower()
        rest = rest.strip()
    if "." in rest:
        module, member = rest.rsplit(".", 1)
    else:
        module, member = "", rest
    if not member:
        raise errors.RoutineResolutionError(
            f"malformed EXTERNAL NAME {external!r}"
        )
    return par, module, member


class Catalog:
    """Namespace of all persistent objects in one database.

    Registration and removal are serialized by an internal lock so the
    check-then-insert duplicate detection stays atomic even when DDL is
    issued outside the database's statement lock (programmatic callers,
    system bootstrap).  Lookups are plain dict reads and need no lock.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.tables: Dict[str, Table] = {}
        self.views: Dict[str, View] = {}
        self.routines: Dict[str, Routine] = {}
        self.types: Dict[str, UserDefinedType] = {}
        self.pars: Dict[str, InstalledPar] = {}
        #: index name -> Index; each is also listed on its table.
        self.indexes: Dict[str, Any] = {}
        #: monotonically increasing schema version.  Every catalog
        #: mutation (DDL, grants) bumps it; the plan cache and prepared
        #: statements compare it to detect stale plans.
        self.version = 0
        #: table name -> TableStatistics written by ANALYZE
        #: (:mod:`repro.engine.statistics`).
        self.statistics: Dict[str, Any] = {}
        #: monotonically increasing statistics version.  Separate from
        #: ``version`` so ANALYZE invalidates cached *plans* without
        #: looking like a schema change to prepared statements or DDL
        #: consumers.
        self.stats_version = 0

    def bump_version(self) -> int:
        """Record a schema/privilege change; returns the new version."""
        with self._lock:
            self.version += 1
            return self.version

    # -- ANALYZE statistics ----------------------------------------------
    def set_statistics(self, name: str, stats: Any) -> int:
        """Publish ANALYZE output for table ``name``; bumps stats_version."""
        with self._lock:
            self.stats_version += 1
            stats.version = self.stats_version
            self.statistics[name] = stats
            return self.stats_version

    def get_statistics(self, name: str) -> Any:
        return self.statistics.get(name)

    def drop_statistics(self, name: str) -> None:
        with self._lock:
            if self.statistics.pop(name, None) is not None:
                self.stats_version += 1

    # -- tables / views ---------------------------------------------------
    def create_table(self, table: Table) -> None:
        key = table.name
        with self._lock:
            if key in self.tables or key in self.views:
                raise errors.DuplicateObjectError(
                    f"table or view {key!r} already exists"
                )
            self.tables[key] = table
            self.version += 1

    def drop_table(self, name: str) -> Table:
        with self._lock:
            try:
                table = self.tables.pop(name)
            except KeyError:
                raise errors.UndefinedTableError(
                    f"table {name!r} does not exist"
                ) from None
            for index in list(table.indexes):
                self.indexes.pop(index.name, None)
            table.indexes = []
            if self.statistics.pop(name, None) is not None:
                self.stats_version += 1
            self.version += 1
            return table

    def get_table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise errors.UndefinedTableError(
                f"table {name!r} does not exist"
            ) from None

    def create_view(self, view: View) -> None:
        with self._lock:
            if view.name in self.views or view.name in self.tables:
                raise errors.DuplicateObjectError(
                    f"table or view {view.name!r} already exists"
                )
            self.views[view.name] = view
            self.version += 1

    def drop_view(self, name: str) -> View:
        with self._lock:
            try:
                view = self.views.pop(name)
            except KeyError:
                raise errors.UndefinedObjectError(
                    f"view {name!r} does not exist"
                ) from None
            self.version += 1
            return view

    # -- indexes -----------------------------------------------------------
    def create_index(self, index: Any) -> None:
        with self._lock:
            if index.name in self.indexes:
                raise errors.DuplicateObjectError(
                    f"index {index.name!r} already exists"
                )
            self.indexes[index.name] = index
            index.table.indexes.append(index)
            self.version += 1

    def drop_index(self, name: str) -> Any:
        with self._lock:
            try:
                index = self.indexes.pop(name)
            except KeyError:
                raise errors.UndefinedObjectError(
                    f"index {name!r} does not exist"
                ) from None
            try:
                index.table.indexes.remove(index)
            except ValueError:  # pragma: no cover - defensive
                pass
            self.version += 1
            return index

    def get_index(self, name: str) -> Any:
        try:
            return self.indexes[name]
        except KeyError:
            raise errors.UndefinedObjectError(
                f"index {name!r} does not exist"
            ) from None

    def get_relation(self, name: str):
        """Return the Table or View called ``name``."""
        if name in self.tables:
            return self.tables[name]
        if name in self.views:
            return self.views[name]
        raise errors.UndefinedTableError(
            f"table or view {name!r} does not exist"
        )

    # -- routines ----------------------------------------------------------
    def create_routine(self, routine: Routine) -> None:
        with self._lock:
            if routine.name in self.routines:
                raise errors.DuplicateObjectError(
                    f"routine {routine.name!r} already exists"
                )
            self.routines[routine.name] = routine
            self.version += 1

    def drop_routine(self, name: str) -> Routine:
        with self._lock:
            try:
                routine = self.routines.pop(name)
            except KeyError:
                raise errors.UndefinedRoutineError(
                    f"routine {name!r} does not exist"
                ) from None
            self.version += 1
            return routine

    def get_routine(self, name: str) -> Routine:
        try:
            return self.routines[name]
        except KeyError:
            raise errors.UndefinedRoutineError(
                f"routine {name!r} does not exist"
            ) from None

    def find_function(self, name: str) -> Optional[Routine]:
        routine = self.routines.get(name)
        if routine is not None and routine.is_function:
            return routine
        return None

    # -- user-defined types -------------------------------------------------
    def create_type(self, udt: UserDefinedType) -> None:
        with self._lock:
            if udt.name in self.types:
                raise errors.DuplicateObjectError(
                    f"type {udt.name!r} already exists"
                )
            self.types[udt.name] = udt
            self.version += 1

    def drop_type(self, name: str) -> UserDefinedType:
        with self._lock:
            udt = self.get_type(name)
            for other in self.types.values():
                if other.supertype is udt:
                    raise errors.CatalogError(
                        f"type {name!r} has subtype {other.name!r}; "
                        "drop the subtype first"
                    )
            for table in self.tables.values():
                for column in table.columns:
                    if isinstance(column.descriptor, ObjectType) and \
                            column.descriptor.udt_name == name:
                        raise errors.CatalogError(
                            f"type {name!r} is used by table "
                            f"{table.name!r}"
                        )
            udt = self.types.pop(name)
            self.version += 1
            return udt

    def get_type(self, name: str) -> UserDefinedType:
        try:
            return self.types[name]
        except KeyError:
            raise errors.UndefinedTypeError(
                f"type {name!r} does not exist"
            ) from None

    def type_for_class(self, python_class: type) -> Optional[UserDefinedType]:
        """Most-derived UDT whose bound class is ``python_class`` (or the
        nearest registered ancestor, supporting substitutability)."""
        best: Optional[UserDefinedType] = None
        for udt in self.types.values():
            if udt.python_class is python_class:
                return udt
            if isinstance(python_class, type) and issubclass(
                python_class, udt.python_class
            ):
                if best is None or issubclass(
                    udt.python_class, best.python_class
                ):
                    best = udt
        return best

    def type_of(self, value: Any) -> UserDefinedType:
        """The UDT of a stored object: its runtime class decides, so a
        subtype's members resolve (substitutability)."""
        udt = self.type_for_class(type(value))
        if udt is None:
            raise errors.UndefinedTypeError(
                f"class {type(value).__name__!r} is not registered as a "
                "SQL type"
            )
        return udt

    # -- archives ------------------------------------------------------------
    def install_par(self, par: InstalledPar) -> None:
        with self._lock:
            if par.name in self.pars:
                raise errors.ParInstallationError(
                    f"archive {par.name!r} is already installed"
                )
            self.pars[par.name] = par
            self.version += 1

    def remove_par(self, name: str) -> InstalledPar:
        with self._lock:
            try:
                par = self.pars.pop(name)
            except KeyError:
                raise errors.UndefinedParError(
                    f"archive {name!r} is not installed"
                ) from None
            self.version += 1
            return par

    def get_par(self, name: str) -> InstalledPar:
        try:
            return self.pars[name]
        except KeyError:
            raise errors.UndefinedParError(
                f"archive {name!r} is not installed"
            ) from None

    # -- type resolution -------------------------------------------------------
    def resolve_type(self, spelling: str) -> TypeDescriptor:
        """Parse a type spelling, binding UDT names to their classes."""
        descriptor = parse_type(spelling)
        if isinstance(descriptor, ObjectType):
            udt = self.get_type(descriptor.udt_name)
            return udt.descriptor()
        return descriptor
