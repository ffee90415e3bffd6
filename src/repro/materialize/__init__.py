"""Materialized aggregates: hot query answers as first-class views.

The third leg of the caching story (after PR 4's filtered views and
PR 5's result tier): persist hot ``(region fingerprint, predicate,
aggregates)`` answers as :class:`MaterializedView` objects that refresh
*incrementally* on ``Dataset.append`` -- delta-applying only the
appended rows' covering-cell contributions, bit-identical to a cold
rebuild -- instead of being invalidated by the version bump.  Admission
is automatic (a bounded query log on the serving path) or explicit (the
``materialize`` wire op / fluent verb), and views serialize alongside
the dataset's ``.npz`` so a restarted server is warm from disk.
"""

from repro.materialize.persist import (
    load_views,
    save_views,
    sidecar_path,
)
from repro.materialize.store import (
    DEFAULT_ADMIT_AFTER,
    DEFAULT_LOG_SIZE,
    DEFAULT_MAX_VIEWS,
    MaterializedStore,
    QueryLog,
)
from repro.materialize.view import MaterializedView, build_records, materializable

__all__ = [
    "DEFAULT_ADMIT_AFTER",
    "DEFAULT_LOG_SIZE",
    "DEFAULT_MAX_VIEWS",
    "MaterializedStore",
    "MaterializedView",
    "QueryLog",
    "build_records",
    "load_views",
    "materializable",
    "save_views",
    "sidecar_path",
]
