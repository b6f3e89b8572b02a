"""Service configuration: one JSON file, validated, hot-reloadable.

A deployment carries one config file describing the ops knobs of the
wire front end - admission limits, deadlines, body caps, worker
threads - plus the serving knobs it may retune at runtime (semantic
cache capacity, planner thresholds).  The running server re-reads the
file on ``SIGHUP`` or ``POST /admin/reload`` and applies the
**reloadable** subset atomically; listen address changes require a
restart and are reported as ignored rather than half-applied.

The reload contract (pinned by ``tests/test_net_faults.py``): an
unreadable, unparsable or invalid file **keeps the old config** - the
server answers the reload request with the error and keeps serving
with the configuration it already trusts.  A config that validated
once can therefore never be replaced by one that did not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.net.http import NetError
from repro.serve.planner import PlannerConfig


class ConfigError(NetError):
    """A service config file (or reload payload) failed validation."""


#: Fields a live server applies on reload; everything else needs a
#: restart (the listen socket is bound, the service is built).
RELOADABLE_FIELDS = (
    "max_inflight",
    "max_queue",
    "request_timeout",
    "read_timeout",
    "idle_timeout",
    "max_body_bytes",
    "max_header_bytes",
    "worker_threads",
    "retry_after_seconds",
    "idempotency_window",
    "cache_capacity",
    "planner",
    "access_log",
)


@dataclass(frozen=True)
class ServerConfig:
    """Every knob of the wire front end, with production-lean defaults."""

    #: Listen address (not reloadable; ``port=0`` binds an ephemeral
    #: port - the server reports the bound address after startup).
    host: str = "127.0.0.1"
    port: int = 0
    #: Admission control: at most ``max_inflight`` requests execute
    #: concurrently; up to ``max_queue`` more wait; beyond that the
    #: server answers ``429`` with ``Retry-After``.
    max_inflight: int = 8
    max_queue: int = 32
    #: Per-request execution deadline (seconds); exceeded -> ``504``.
    request_timeout: float = 30.0
    #: Slow-loris deadline: seconds a client may take to deliver one
    #: request once its first byte arrived; exceeded -> ``408``.
    read_timeout: float = 10.0
    #: Seconds a keep-alive connection may idle between requests.
    idle_timeout: float = 60.0
    max_body_bytes: int = 1_048_576
    max_header_bytes: int = 16_384
    #: Threads executing service calls (the service is thread-safe and
    #: its NumPy kernels release the GIL).
    worker_threads: int = 8
    #: ``Retry-After`` hint on ``429`` and storage-unavailable ``503``
    #: responses.
    retry_after_seconds: int = 1
    #: Idempotency dedup window: settled mutation responses remembered
    #: for replay, keyed by the client's ``Idempotency-Key`` header.
    idempotency_window: int = 1024
    #: Retune the semantic cache on reload (``None`` = leave as built).
    cache_capacity: Optional[int] = None
    #: :class:`~repro.serve.planner.PlannerConfig` overrides by field
    #: name (e.g. ``{"bitset_min_rows": 50000}``).
    planner: Dict[str, object] = field(default_factory=dict)
    #: Emit one structured JSON access-log line per request.
    access_log: bool = True

    def __post_init__(self) -> None:
        for name in ("max_inflight", "worker_threads", "idempotency_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("max_queue", "port", "retry_after_seconds"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("request_timeout", "read_timeout", "idle_timeout"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("max_body_bytes", "max_header_bytes"):
            if getattr(self, name) < 256:
                raise ConfigError(
                    f"{name} must be >= 256, got {getattr(self, name)}"
                )
        if self.cache_capacity is not None and self.cache_capacity < 0:
            raise ConfigError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if not isinstance(self.planner, dict):
            raise ConfigError(
                f"planner must be an object of PlannerConfig overrides, "
                f"got {type(self.planner).__name__}"
            )
        self.planner_config()  # validate the overrides eagerly

    def planner_config(self) -> Optional[PlannerConfig]:
        """The planner override object, or ``None`` when untouched.

        Unknown override names and out-of-range values fail here (at
        config validation time), not when the first query plans.
        """
        if not self.planner:
            return None
        valid = {f.name for f in fields(PlannerConfig)}
        unknown = sorted(set(self.planner) - valid)
        if unknown:
            raise ConfigError(
                f"unknown planner override(s) {unknown}; valid: "
                f"{sorted(valid)}"
            )
        try:
            return PlannerConfig(**self.planner)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid planner overrides: {exc}") from None

    def merged(self, other: "ServerConfig") -> Tuple["ServerConfig", List[str]]:
        """Apply ``other``'s reloadable fields onto this config.

        Returns the merged config plus the names of non-reloadable
        fields that *differed* and were ignored (the reload endpoint
        reports them so an operator knows a restart is needed).
        """
        updates = {
            name: getattr(other, name) for name in RELOADABLE_FIELDS
        }
        ignored = [
            f.name
            for f in fields(self)
            if f.name not in RELOADABLE_FIELDS
            and getattr(self, f.name) != getattr(other, f.name)
        ]
        return replace(self, **updates), ignored


def config_from_dict(data: object, *, where: str = "config") -> ServerConfig:
    """Build and validate a :class:`ServerConfig` from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError(
            f"{where} must be a JSON object, got {type(data).__name__}"
        )
    valid = {f.name for f in fields(ServerConfig)}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {where}; valid: {sorted(valid)}"
        )
    typed: Dict[str, object] = {}
    for name, value in data.items():
        expected = _FIELD_TYPES[name]
        if not _type_ok(value, expected):
            raise ConfigError(
                f"{where}.{name} has the wrong type: expected {expected}, "
                f"got {type(value).__name__} ({value!r})"
            )
        typed[name] = value
    try:
        return ServerConfig(**typed)
    except TypeError as exc:  # pragma: no cover - keys validated above
        raise ConfigError(f"invalid {where}: {exc}") from None


def load_config(path: Union[str, Path]) -> ServerConfig:
    """Read and validate a config file; any failure is a ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON: {exc}"
        ) from None
    return config_from_dict(data, where=str(path))


#: Field name -> human-readable expected type (checked structurally -
#: bools are not numbers, ints pass where floats are expected).
_FIELD_TYPES = {
    "host": "string",
    "port": "integer",
    "max_inflight": "integer",
    "max_queue": "integer",
    "request_timeout": "number",
    "read_timeout": "number",
    "idle_timeout": "number",
    "max_body_bytes": "integer",
    "max_header_bytes": "integer",
    "worker_threads": "integer",
    "retry_after_seconds": "integer",
    "idempotency_window": "integer",
    "cache_capacity": "integer or null",
    "planner": "object",
    "access_log": "boolean",
}


def _type_ok(value: object, expected: str) -> bool:
    """Structural JSON type check (bool is not a number)."""
    is_bool = isinstance(value, bool)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not is_bool
    if expected == "number":
        return isinstance(value, (int, float)) and not is_bool
    if expected == "integer or null":
        return value is None or (isinstance(value, int) and not is_bool)
    if expected == "object":
        return isinstance(value, dict)
    if expected == "boolean":
        return is_bool
    raise AssertionError(f"unhandled expected type {expected!r}")
