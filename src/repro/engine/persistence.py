"""Database persistence (save/load to a file).

The paper's Part 1 objectives defer "database persistence" to follow-on
work; this module provides it for the engine: :func:`save_database`
serialises a database's entire catalog — tables with their rows, views,
installed archives, routines, user-defined types, and grants — and
:func:`load_database` reconstructs a fully working database from the
file.

The same image, wrapped with the durable watermarks, is what the
snapshot storage engine checkpoints: :class:`SnapshotStore` is the
checkpoint store :func:`repro.engine.durability.open_database` uses for
``storage="snapshot"`` (its LSM counterpart, with the same protocol, is
:class:`repro.engine.lsm.LsmStore`).

Host-language bindings are *not* pickled: routine callables and UDT
classes are re-resolved on load from their EXTERNAL NAME strings and the
persisted archives, exactly as they were at CREATE time.  The one
genuine limit: Part 2 *values* stored in object columns must be
instances of importable classes (pickle's usual rule); rows holding
instances of archive-defined classes raise a clear error at save time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import errors
from repro.engine import diskfile
from repro.observability import metrics as _metrics
from repro.engine.catalog import (
    AttributeBinding,
    Column,
    InstalledPar,
    MethodBinding,
    Routine,
    RoutineParam,
    Table,
    UserDefinedType,
    View,
)
from repro.engine.database import Database
from repro.engine.indexes import Index
from repro.engine.virtual import VirtualTable

__all__ = [
    "save_database",
    "load_database",
    "image_of",
    "restore_database",
    "DatabaseImage",
    "SnapshotStore",
    "SNAPSHOT_FILENAME",
]

FORMAT_VERSION = 1

SNAPSHOT_FILENAME = "snapshot.db"

#: Version of the ``{image, last_seq, commit_seq}`` checkpoint wrapper
#: (the inner ``DatabaseImage`` carries its own FORMAT_VERSION).
#: Version 2 added ``commit_seq`` — the MVCC commit counter at
#: checkpoint time, restored so post-recovery stamps continue above
#: everything durable.  Version-1 snapshots are still readable (their
#: counter restarts at 0, which is safe: a checkpoint is quiesced, so
#: every surviving version is a bootstrap version with stamp 0).
CHECKPOINT_VERSION = 2

_CHECKPOINT_SECONDS = _metrics.registry.histogram("wal.checkpoint.seconds")


@dataclass
class _ColumnImage:
    name: str
    spelling: str
    not_null: bool
    default: Any
    unique: bool = False
    primary_key: bool = False


@dataclass
class _TableImage:
    name: str
    owner: str
    columns: List[_ColumnImage]
    rows: List[List[Any]]
    # (index name, column names); defaulted so pre-index images load.
    indexes: List[Tuple[str, List[str]]] = field(default_factory=list)
    # ANALYZE statistics (a TableStatistics, or None when the table was
    # never analyzed); defaulted so pre-statistics images load.
    stats: Any = None


@dataclass
class _ViewImage:
    name: str
    owner: str
    column_names: Optional[List[str]]
    query: Any


@dataclass
class _ParamImage:
    name: str
    spelling: str
    mode: str


@dataclass
class _RoutineImage:
    name: str
    kind: str
    params: List[_ParamImage]
    returns: Optional[str]
    data_access: str
    dynamic_result_sets: int
    external_name: str
    language: str
    parameter_style: str
    owner: str
    par_name: Optional[str]


@dataclass
class _MemberImage:
    sql_name: str
    python_name: str
    param_spellings: List[str]
    returns: Optional[str]
    static: bool
    is_constructor: bool


@dataclass
class _TypeImage:
    name: str
    external_name: str
    owner: str
    under: Optional[str]
    attributes: List[Tuple[str, str, str, bool]]  # sql, field, spelling, static
    methods: List[_MemberImage]
    constructors: List[_MemberImage]
    ordering_kind: Optional[str]
    ordering_method: Optional[str]


@dataclass
class DatabaseImage:
    """Everything needed to reconstruct a database."""

    version: int
    name: str
    dialect: str
    admin_user: str
    pars: Dict[str, InstalledPar]
    types: List[_TypeImage]
    tables: List[_TableImage]
    views: List[_ViewImage]
    routines: List[_RoutineImage]
    grants: Dict[Tuple[str, str], Dict[str, set]] = field(
        default_factory=dict
    )


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------


def _member_image(binding: MethodBinding) -> _MemberImage:
    return _MemberImage(
        sql_name=binding.sql_name,
        python_name=binding.python_name,
        param_spellings=[
            d.sql_spelling() for d in binding.param_descriptors
        ],
        returns=(
            binding.returns.sql_spelling()
            if binding.returns is not None else None
        ),
        static=binding.static,
        is_constructor=binding.is_constructor,
    )


def image_of(
    database: Database, *, include_rows: bool = True
) -> DatabaseImage:
    """Capture ``database`` as a picklable :class:`DatabaseImage`.

    Used by :func:`save_database` and by the snapshot checkpoint store
    (:class:`SnapshotStore`), which folds the write-ahead log into
    exactly this format.  ``include_rows=False`` captures
    the catalog only (empty row lists) — the LSM manifest
    (:mod:`repro.engine.lsm`) stores schema this way because row data
    lives in the SSTable runs, not the manifest.
    """
    catalog = database.catalog

    types: List[_TypeImage] = []
    for udt in catalog.types.values():
        types.append(
            _TypeImage(
                name=udt.name,
                external_name=udt.external_name,
                owner=udt.owner,
                under=udt.supertype.name if udt.supertype else None,
                attributes=[
                    (a.sql_name, a.field_name,
                     a.descriptor.sql_spelling(), a.static)
                    for a in udt.attributes.values()
                ],
                methods=[
                    _member_image(m) for m in udt.methods.values()
                ],
                constructors=[
                    _member_image(c) for c in udt.constructors
                ],
                ordering_kind=udt.ordering_kind,
                ordering_method=udt.ordering_method,
            )
        )

    tables: List[_TableImage] = []
    for table in catalog.tables.values():
        if isinstance(table, VirtualTable):
            continue  # re-registered by Database bootstrap
        tables.append(
            _TableImage(
                name=table.name,
                owner=table.owner,
                columns=[
                    _ColumnImage(
                        c.name, c.descriptor.sql_spelling(),
                        c.not_null, c.default, c.unique, c.primary_key,
                    )
                    for c in table.columns
                ],
                rows=(
                    [list(row) for row in table.rows]
                    if include_rows else []
                ),
                indexes=[
                    (index.name, list(index.column_names))
                    for index in table.indexes
                ],
                stats=catalog.get_statistics(table.name),
            )
        )

    views = [
        _ViewImage(v.name, v.owner, v.column_names, v.query)
        for v in catalog.views.values()
    ]

    routines: List[_RoutineImage] = []
    for routine in catalog.routines.values():
        if routine.language == "SYSTEM":
            continue  # re-registered by Database bootstrap
        routines.append(
            _RoutineImage(
                name=routine.name,
                kind=routine.kind,
                params=[
                    _ParamImage(
                        p.name, p.descriptor.sql_spelling(), p.mode
                    )
                    for p in routine.params
                ],
                returns=(
                    routine.returns.sql_spelling()
                    if routine.returns is not None else None
                ),
                data_access=routine.data_access,
                dynamic_result_sets=routine.dynamic_result_sets,
                external_name=routine.external_name,
                language=routine.language,
                parameter_style=routine.parameter_style,
                owner=routine.owner,
                par_name=routine.par_name,
            )
        )

    return DatabaseImage(
        version=FORMAT_VERSION,
        name=database.name,
        dialect=database.dialect.name,
        admin_user=database.admin_user,
        pars=dict(catalog.pars),
        types=types,
        tables=tables,
        views=views,
        routines=routines,
        grants={
            key: {priv: set(holders) for priv, holders in slots.items()}
            for key, slots in database.privileges._grants.items()
        },
    )


def save_database(database: Database, path: str) -> str:
    """Serialise ``database`` to ``path``; returns the path.

    The file is replaced atomically (:func:`diskfile.install`): a
    crash or a full disk mid-write leaves the previous image intact.
    """
    diskfile.install(
        path, [diskfile.dumps(image_of(database), "database")]
    )
    return path


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def load_database(path: str) -> Database:
    """Reconstruct a database saved by :func:`save_database`."""
    with open(path, "rb") as handle:
        image = diskfile.loads(handle.read(), "database image")
    if not isinstance(image, DatabaseImage):
        raise errors.DataError(
            "file does not contain a PySQLJ database image"
        )
    return restore_database(image)


def restore_database(image: DatabaseImage) -> Database:
    """Reconstruct a live :class:`Database` from a
    :class:`DatabaseImage` (the inverse of :func:`image_of`)."""
    if image.version != FORMAT_VERSION:
        raise errors.DataError(
            f"database image version {image.version} is not supported"
        )

    database = Database(
        name=image.name,
        dialect=image.dialect,
        admin_user=image.admin_user,
    )
    catalog = database.catalog
    session = database.create_session()

    # 1. Archives (needed to re-resolve routines and type classes).
    catalog.pars.update(image.pars)

    # 2. User-defined types, supertypes first.
    from repro.datatypes.registration import resolve_type_class

    pending = list(image.types)
    while pending:
        progressed = False
        remaining = []
        for type_image in pending:
            if type_image.under is not None and \
                    type_image.under not in catalog.types:
                remaining.append(type_image)
                continue
            _restore_type(type_image, catalog, session,
                          resolve_type_class)
            progressed = True
        if not progressed:
            names = ", ".join(t.name for t in remaining)
            raise errors.DataError(
                f"cannot restore types with unresolved supertypes: "
                f"{names}"
            )
        pending = remaining

    # 3. Tables (with rows) and views.
    for table_image in image.tables:
        columns = [
            Column(
                c.name,
                catalog.resolve_type(c.spelling),
                not_null=c.not_null,
                default=c.default,
                unique=getattr(c, "unique", False),
                primary_key=getattr(c, "primary_key", False),
            )
            for c in table_image.columns
        ]
        table = Table(table_image.name, columns, table_image.owner)
        table.rows = [list(row) for row in table_image.rows]
        catalog.create_table(table)
        for index_name, column_names in getattr(
            table_image, "indexes", []
        ):
            index = Index(index_name, table, list(column_names))
            catalog.create_index(index)
        stats = getattr(table_image, "stats", None)
        if stats is not None:
            catalog.set_statistics(table.name, stats)
    for view_image in image.views:
        catalog.create_view(
            View(
                view_image.name,
                view_image.query,
                view_image.owner,
                view_image.column_names,
            )
        )

    # 4. Routines, re-resolving the callables.
    from repro.procedures.registration import resolve_external

    for routine_image in image.routines:
        routine = Routine(
            name=routine_image.name,
            kind=routine_image.kind,
            params=[
                RoutineParam(
                    p.name, catalog.resolve_type(p.spelling), p.mode
                )
                for p in routine_image.params
            ],
            returns=(
                catalog.resolve_type(routine_image.returns)
                if routine_image.returns is not None else None
            ),
            data_access=routine_image.data_access,
            dynamic_result_sets=routine_image.dynamic_result_sets,
            external_name=routine_image.external_name,
            language=routine_image.language,
            parameter_style=routine_image.parameter_style,
            owner=routine_image.owner,
            par_name=routine_image.par_name,
        )
        with session.impersonate(routine.owner):
            routine.callable = resolve_external(
                session, routine.external_name
            )
        catalog.create_routine(routine)

    # 5. Grants.
    database.privileges._grants.update(image.grants)
    return database


def _restore_type(type_image, catalog, session, resolve_type_class):
    python_class = resolve_type_class(session, type_image.external_name)
    supertype = (
        catalog.get_type(type_image.under)
        if type_image.under is not None else None
    )
    udt = UserDefinedType(
        name=type_image.name,
        external_name=type_image.external_name,
        python_class=python_class,
        owner=type_image.owner,
        supertype=supertype,
    )
    catalog.create_type(udt)
    for sql_name, field_name, spelling, static in type_image.attributes:
        udt.attributes[sql_name] = AttributeBinding(
            sql_name=sql_name,
            field_name=field_name,
            descriptor=catalog.resolve_type(spelling),
            static=static,
        )
    for member in type_image.methods:
        udt.methods[member.sql_name] = _restore_member(member, catalog)
    for member in type_image.constructors:
        udt.constructors.append(_restore_member(member, catalog))
    udt.ordering_kind = type_image.ordering_kind
    udt.ordering_method = type_image.ordering_method


def _restore_member(member, catalog) -> MethodBinding:
    return MethodBinding(
        sql_name=member.sql_name,
        python_name=member.python_name,
        param_descriptors=[
            catalog.resolve_type(s) for s in member.param_spellings
        ],
        returns=(
            catalog.resolve_type(member.returns)
            if member.returns is not None else None
        ),
        static=member.static,
        is_constructor=member.is_constructor,
    )


# ---------------------------------------------------------------------------
# the snapshot checkpoint store
# ---------------------------------------------------------------------------


class SnapshotStore:
    """``snapshot.db``: the whole database as one atomically replaced
    file — O(database) per checkpoint, the smallest possible file set.

    One of the two *checkpoint stores* the durability manager folds
    the write-ahead log into (the other is
    :class:`repro.engine.lsm.LsmStore`); both have this shape:

    * ``open(directory)`` reads the watermarks ``last_seq`` (replay
      skips WAL records at or below it) and ``flushed_stamp`` (the MVCC
      commit counter resumes above it);
    * ``build_database(**identity)`` reconstructs the
      database as of them (``identity`` — name, dialect, admin user —
      only applies to an empty directory);
    * ``flush(database, last_seq=)`` makes the committed state durable,
      atomically; called under the exclusive engine lock with no
      transaction in flight;
    * ``after_flush(database, seconds)`` runs once the lock is
      released; ``close()`` stops background work;
    * ``storage`` names the engine, ``MARKER`` is the file whose
      presence marks a directory as its own, and ``FLUSH_SITE`` /
      ``INSTALLED_SITE`` are the fault sites the manager fires before
      ``flush`` and between a finished flush and the WAL truncate.
    """

    storage = "snapshot"
    MARKER = SNAPSHOT_FILENAME
    FLUSH_SITE = "wal.checkpoint"
    INSTALLED_SITE = "wal.checkpoint.install"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, SNAPSHOT_FILENAME)
        self.last_seq = 0
        self.flushed_stamp = 0
        #: The loaded image, held only from open() to build_database().
        self._image: Optional[DatabaseImage] = None

    @classmethod
    def open(cls, directory: str) -> "SnapshotStore":
        """Load ``snapshot.db`` if the directory has one."""
        store = cls(directory)
        if not os.path.exists(store.path):
            return store
        with open(store.path, "rb") as handle:
            payload = diskfile.loads(
                handle.read(), f"checkpoint snapshot {store.path!r}"
            )
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("image"), DatabaseImage)
            or payload.get("version") not in (1, CHECKPOINT_VERSION)
        ):
            raise errors.DataError(
                f"{store.path!r} does not contain a supported "
                "checkpoint snapshot"
            )
        store._image = payload["image"]
        store.last_seq = int(payload["last_seq"])
        store.flushed_stamp = int(payload.get("commit_seq", 0))
        return store

    def build_database(self, **identity: Any) -> Database:
        image, self._image = self._image, None
        if image is None:
            return Database(**identity)
        return restore_database(image)

    def flush(self, database: Database, *, last_seq: int) -> None:
        """Install ``{version, image, last_seq, commit_seq}`` around an
        image of the whole database."""
        commit_seq = database.transactions.commit_seq
        payload = {
            "version": CHECKPOINT_VERSION,
            "image": image_of(database),
            "last_seq": last_seq,
            "commit_seq": commit_seq,
        }
        diskfile.install(self.path, [diskfile.dumps(payload, "database")])
        self.last_seq = last_seq
        self.flushed_stamp = commit_seq

    def after_flush(self, database: Database, seconds: float) -> None:
        _CHECKPOINT_SECONDS.observe(seconds)

    def close(self) -> None:
        """Nothing runs in the background."""
