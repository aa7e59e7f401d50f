"""Distributed-database substrate: storage, locking, constraints, logging.

* :mod:`repro.db.items` — data items and the item→server catalog.
* :mod:`repro.db.storage` — per-server storage engine with workspaces.
* :mod:`repro.db.locks` — strict 2PL with deadlock detection.
* :mod:`repro.db.constraints` — integrity constraints (the 2PC YES/NO vote).
* :mod:`repro.db.wal` — write-ahead log with forced-write accounting.
* :mod:`repro.db.recovery` — crash-recovery log analysis.
"""
