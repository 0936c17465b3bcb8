"""The one manifest schema every describe/catalog channel speaks.

Sessions answer ``{address}/group`` with it, the broker's catalog channel
answers with it for mounted and unmounted datasets alike, and
``attach_address`` parses it: one versioned dataclass, built by every serving
side (:meth:`SessionManifest.of`) and parsed by every attaching side.

``schema_version`` lets a newer attacher reject a manifest it cannot
interpret instead of silently mis-building a consumer; unknown keys from a
*newer* server are ignored, so the schema can grow additively without
breaking old attachers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Bumped when a field changes meaning (additive growth keeps the version).
MANIFEST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SessionManifest:
    """How an address is shaped: what an attacher needs to build a consumer.

    ``kind`` is ``"session"`` for a plain single-producer session,
    ``"group"`` for a sharded producer group, and ``"dataset"`` for a
    broker-mounted dataset (either shape, plus broker bookkeeping fields).
    """

    address: str
    kind: str = "session"
    shards: int = 1
    shard_mode: Optional[str] = None
    member_addresses: Tuple[str, ...] = ()
    #: Broker fields: the dataset's catalog name and lifecycle state
    #: (``mounted`` / ``registered`` / ``evicted``).
    dataset: Optional[str] = None
    state: Optional[str] = None
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"manifest shards must be >= 1, got {self.shards}")
        if self.kind not in ("session", "group", "dataset"):
            raise ValueError(f"unknown manifest kind {self.kind!r}")

    @classmethod
    def of(
        cls,
        address: str,
        *,
        shards: int = 1,
        shard_mode: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> "SessionManifest":
        """The manifest of a session of ``shards`` members served at ``address``.

        One member is a plain ``"session"`` (no shard mode, its one member is
        the address itself); more are a ``"group"`` with its members listed.
        A ``dataset`` name makes either a broker ``"dataset"``.
        """
        sharded = shards > 1
        manifest = cls(
            address=address,
            kind="dataset" if dataset is not None else "group" if sharded else "session",
            shards=shards,
            shard_mode=shard_mode if sharded else None,
            dataset=dataset,
        )
        if sharded:
            manifest = dataclasses.replace(manifest, member_addresses=manifest.members())
        return manifest

    def members(self) -> Tuple[str, ...]:
        """Member channel prefixes; derived from the address when not listed."""
        if self.member_addresses:
            return self.member_addresses
        if self.shards == 1:
            return (self.address,)
        return tuple(f"{self.address}/shard{rank}" for rank in range(self.shards))

    def to_dict(self) -> Dict[str, object]:
        body = dataclasses.asdict(self)
        body["member_addresses"] = list(self.member_addresses)
        return body

    @classmethod
    def from_dict(cls, body: Dict[str, object]) -> "SessionManifest":
        """Parse a wire manifest; raises ``ValueError`` on a newer schema.

        Unknown keys are dropped (additive growth); missing optional keys take
        their defaults, so a pre-schema ``{"shards": 1, "address": ...}`` reply
        still parses.
        """
        if not isinstance(body, dict):
            raise ValueError(f"manifest must be a dict, got {type(body).__name__}")
        version = int(body.get("schema_version", 1))
        if version > MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"manifest schema_version {version} is newer than supported "
                f"({MANIFEST_SCHEMA_VERSION}); upgrade this client"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        kwargs = {key: value for key, value in body.items() if key in known}
        kwargs["address"] = str(kwargs.get("address", ""))
        kwargs["shards"] = int(kwargs.get("shards", 1))
        kwargs["member_addresses"] = tuple(kwargs.get("member_addresses", ()) or ())
        kwargs["schema_version"] = version
        return cls(**kwargs)
