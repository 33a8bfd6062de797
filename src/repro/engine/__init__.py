"""From-scratch in-memory relational engine.

This package is the substrate standing in for the commercial DBMSs
(Oracle, Sybase ASA, DB2, ...) the paper's SQLJ implementations targeted.
It provides a SQL lexer/parser, a catalog with tables, views, routines and
user-defined types, an iterator-model executor, session transactions, a
privilege system and a durable storage option (WAL + checkpoints + crash
recovery in :mod:`repro.engine.wal` / :mod:`repro.engine.durability`) —
everything the SQLJ layers above need to behave as the paper describes.

``Database``, ``Session`` and the other application-facing names live on
the top-level :mod:`repro` façade; engine internals are imported from
their submodules (``repro.engine.ast``, ``repro.engine.database``, ...).
"""
