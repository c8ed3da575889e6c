"""Application-level services: scheduling, persistent state, logging,
and the app-kind registry that keeps the work-unit contract agnostic."""

from ..._exports import lazy_exports

_EXPORTS = {
    ".kinds": ("DEFAULT_KIND", "KIND_FIELD", "AppKind", "KindEngine",
               "KindRegistry", "ResultCheckError", "kind_of", "register_kind",
               "registry"),
    ".logging": ("LOG_APPEND", "LOG_QUERY", "LOG_RECORDS", "LoggingServer",
                 "LogRecord"),
    ".persistent": ("PST_DENIED", "PST_FETCH", "PST_KEYS", "PST_LIST",
                    "PST_MISSING", "PST_STORE", "PST_STORE_OK", "PST_VALUE",
                    "DirectoryBackend", "MemoryBackend",
                    "PersistentStateServer", "ValidationError"),
    ".scheduler": ("SCH_DIRECTIVE", "SCH_HELLO", "SCH_REPORT", "SCH_WORK",
                   "QueueWorkSource", "SchedulerServer", "SchedulerStats",
                   "WorkSource"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
