"""Persistent state managers (§3.1.2).

The paper separates persistent state into its own service for three
reasons, each of which this module implements:

1. **Footprint control** — a quota (object count and total bytes) caps
   the disk the application may consume at a site;
2. **Trusted placement** — storage is behind a backend abstraction so a
   deployment can put it on the "trusted" host (the paper used SDSC for
   its tape backups); we ship an in-memory backend and a directory-of-
   JSON-files backend;
3. **Run-time sanity checks** — every store passes through a validator
   hook; the Ramsey application installs "is this really a
   counter-example?" verification, so a buggy or malicious client cannot
   corrupt the checkpointed best result.

Protocol: ``PST_STORE`` → ``PST_STORE_OK`` | ``PST_DENIED``;
``PST_FETCH`` → ``PST_VALUE`` | ``PST_MISSING``; ``PST_LIST`` → ``PST_KEYS``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from ..component import Component, Effect, LogLine, Send
from ..linguafranca.messages import Message, _json

__all__ = [
    "PersistentStateServer",
    "PersistentStats",
    "MemoryBackend",
    "DirectoryBackend",
    "ValidationError",
    "PST_STORE",
    "PST_STORE_OK",
    "PST_DENIED",
    "PST_FETCH",
    "PST_VALUE",
    "PST_MISSING",
    "PST_LIST",
    "PST_KEYS",
]

PST_STORE = "PST_STORE"
PST_STORE_OK = "PST_STORE_OK"
PST_DENIED = "PST_DENIED"
PST_FETCH = "PST_FETCH"
PST_VALUE = "PST_VALUE"
PST_MISSING = "PST_MISSING"
PST_LIST = "PST_LIST"
PST_KEYS = "PST_KEYS"


class ValidationError(Exception):
    """Raised by validators to deny a store."""


#: A validator inspects (key, obj) and raises ValidationError to deny.
Validator = Callable[[str, dict], None]


class StorageBackend(Protocol):
    def put(self, key: str, obj: dict) -> None: ...

    def get(self, key: str) -> Optional[dict]: ...

    def keys(self) -> list[str]: ...

    def size_bytes(self) -> int: ...


class MemoryBackend:
    """Volatile backend for simulation and tests."""

    def __init__(self) -> None:
        self._data: dict[str, dict] = {}
        self._bytes = 0

    def put(self, key: str, obj: dict) -> None:
        encoded = len(_json(obj))
        old = self._data.get(key)
        if old is not None:
            self._bytes -= len(_json(old))
        self._data[key] = obj
        self._bytes += encoded

    def get(self, key: str) -> Optional[dict]:
        return self._data.get(key)

    def keys(self) -> list[str]:
        return sorted(self._data)

    def size_bytes(self) -> int:
        return self._bytes


class DirectoryBackend:
    """One JSON file per key under a root directory (real deployments).

    Keys are sanitized into file names; the backend never writes outside
    its root.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
        if not safe:
            safe = "_"
        return os.path.join(self.root, safe + ".json")

    def put(self, key: str, obj: dict) -> None:
        tmp = self._path(key) + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        os.replace(tmp, self._path(key))  # atomic publish

    def get(self, key: str) -> Optional[dict]:
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def keys(self) -> list[str]:
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def size_bytes(self) -> int:
        total = 0
        for name in os.listdir(self.root):
            if name.endswith(".json"):
                total += os.path.getsize(os.path.join(self.root, name))
        return total


@dataclass
class PersistentStats:
    stores: int = 0
    denials: int = 0
    fetches: int = 0
    misses: int = 0


class PersistentStateServer(Component):
    """A persistent state manager process."""

    def __init__(
        self,
        name: str,
        backend: Optional[StorageBackend] = None,
        max_objects: int = 10_000,
        max_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        super().__init__(name)
        self.backend: StorageBackend = backend if backend is not None else MemoryBackend()
        self.max_objects = max_objects
        self.max_bytes = max_bytes
        self._validators: list[Validator] = []
        self.stats = PersistentStats()

    def add_validator(self, validator: Validator) -> None:
        """Install a run-time sanity check applied to every store."""
        self._validators.append(validator)

    # -- messages ------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        handler = {
            PST_STORE: self._on_store,
            PST_FETCH: self._on_fetch,
            PST_LIST: self._on_list,
        }.get(message.mtype)
        if handler is None:
            return []
        return handler(message, now)

    def _deny(self, message: Message, reason: str) -> list[Effect]:
        self.stats.denials += 1
        return [
            LogLine(f"denied store from {message.sender}: {reason}", level="warning"),
            Send(message.sender, message.reply(
                PST_DENIED, sender=self.contact, body={"reason": reason})),
        ]

    def _on_store(self, message: Message, now: float) -> list[Effect]:
        key = message.body.get("key")
        obj = message.body.get("object")
        if not isinstance(key, str) or not key or not isinstance(obj, dict):
            return self._deny(message, "malformed store request")
        is_update = self.backend.get(key) is not None
        if not is_update and len(self.backend.keys()) >= self.max_objects:
            return self._deny(message, "object quota exceeded")
        if self.backend.size_bytes() >= self.max_bytes:
            return self._deny(message, "byte quota exceeded")
        for validator in self._validators:
            try:
                validator(key, obj)
            except ValidationError as exc:
                return self._deny(message, str(exc))
        self.backend.put(key, obj)
        self.stats.stores += 1
        return [Send(message.sender, message.reply(
            PST_STORE_OK, sender=self.contact, body={"key": key}))]

    def _on_fetch(self, message: Message, now: float) -> list[Effect]:
        key = message.body.get("key")
        self.stats.fetches += 1
        obj = self.backend.get(key) if isinstance(key, str) else None
        if obj is None:
            self.stats.misses += 1
            return [Send(message.sender, message.reply(
                PST_MISSING, sender=self.contact, body={"key": key}))]
        return [Send(message.sender, message.reply(
            PST_VALUE, sender=self.contact, body={"key": key, "object": obj}))]

    def _on_list(self, message: Message, now: float) -> list[Effect]:
        prefix = message.body.get("prefix", "")
        keys = [k for k in self.backend.keys() if k.startswith(prefix)]
        return [Send(message.sender, message.reply(
            PST_KEYS, sender=self.contact, body={"keys": keys}))]
