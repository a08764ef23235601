"""Live function migration: checkpoint/restore + connection handover.

Opt-in subsystem.  Nothing on the default path imports it: the
platform imports it on the first migration or drain, and
``tests/test_import_budget.py`` checks that the paper-figure entry
points never load it.  No migration state exists until
:meth:`ServerlessPlatform.migrate_function` (or a node drain) is
invoked, so un-migrated runs stay byte-identical.
"""

from .migrator import DEFAULT_STATE_BYTES, LiveMigrator, MigrationRecord
from .coldstart import kill_and_cold_start

__all__ = [
    "DEFAULT_STATE_BYTES",
    "LiveMigrator",
    "MigrationRecord",
    "kill_and_cold_start",
]
