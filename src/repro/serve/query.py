"""Canonical, hashable planning queries.

A :class:`PlanQuery` is the cache key of the planning service: two queries
that describe the same deployment must hash identically, byte for byte,
or the memoized result cache fragments and its hit rate collapses. The
subtle part is floats — ``LinkSpec(alpha=1e-5)`` and
``LinkSpec(alpha=0.00001)`` parse to the same double, but ``-0.0 == 0.0``
while ``repr`` distinguishes them, and integers (``beta=10**9``) compare
equal to their float forms while serializing differently. Construction
therefore normalizes every numeric field through :func:`canonical_float`
(IEEE-754 double, negative zero collapsed, non-finite rejected), so the
canonical JSON form — and hence the SHA-256 cache key — is a pure
function of numeric *value*, not spelling.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.comm.cost_model import LinkSpec
from repro.comm.topology import ClusterTopology

#: Version tag stamped on every serialized query and plan. Bump on any
#: field change; readers reject documents from other versions instead of
#: silently mis-parsing them.
#: /2: added the optional ``topology`` field (two-level node topology).
SCHEMA_VERSION = "repro.plan/2"

# Methods the planner (and therefore the service) knows how to assess.
# Mirrors repro.planner._CANDIDATES; imported lazily there to keep this
# module import-light for the hot hashing path.
QUERY_METHODS = ("ssgd", "signsgd", "topk", "powersgd", "powersgd_star",
                 "acpsgd")


def canonical_float(value: float, name: str = "value") -> float:
    """Normalize a number so equal values share one representation.

    - any real number (int, bool excluded, numpy scalar, float) becomes a
      Python float;
    - ``-0.0`` collapses to ``0.0`` (they compare equal but ``repr`` and
      the raw bits differ);
    - NaN and infinities are rejected — NaN is unequal even to itself, so
      it can never be a cache key component.

    After this, ``repr`` (shortest round-trip in all supported Pythons)
    is a canonical spelling: equal floats produce equal strings.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got bool")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out!r}")
    if out == 0.0:
        return 0.0  # collapse -0.0
    return out


def _number(value, name: str, kind: type = float):
    """Wire check: a JSON number (``kind=int``: a whole one), never a bool."""
    if type(value) not in (int, float) or (kind is int and value != value // 1):
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return kind(value)


def canonical_link(link: LinkSpec) -> LinkSpec:
    """Return ``link`` with every numeric field canonicalized."""
    return LinkSpec(
        name=str(link.name),
        alpha=canonical_float(link.alpha, "alpha"),
        beta=canonical_float(link.beta, "beta"),
        nominal_gbps=canonical_float(link.nominal_gbps, "nominal_gbps"),
    )


def link_to_dict(link: LinkSpec) -> Dict[str, object]:
    """JSON-safe form of a (canonicalized) link."""
    link = canonical_link(link)
    return {
        "name": link.name,
        "alpha": link.alpha,
        "beta": link.beta,
        "nominal_gbps": link.nominal_gbps,
    }


def link_from_dict(doc: Dict[str, object]) -> LinkSpec:
    """Inverse of :func:`link_to_dict`."""
    if not isinstance(doc, dict):
        raise ValueError(f"link must be a JSON object, got {type(doc).__name__}")
    try:
        return LinkSpec(  # built canonical: what canonical_link would return
            name=str(doc["name"]),
            alpha=canonical_float(doc["alpha"], "alpha"),  # type: ignore[arg-type]
            beta=canonical_float(doc["beta"], "beta"),  # type: ignore[arg-type]
            nominal_gbps=canonical_float(doc["nominal_gbps"], "nominal_gbps"),  # type: ignore[arg-type]
        )
    except KeyError as exc:
        raise ValueError(f"missing field 'link.{exc.args[0]}'") from None
    except TypeError:  # a bool, a null, a list or an object
        raise ValueError(f"link fields must be numbers, got {doc!r}") from None


def canonical_topology(topology: ClusterTopology) -> ClusterTopology:
    """Return ``topology`` with both link levels canonicalized."""
    return ClusterTopology(
        num_nodes=int(topology.num_nodes),
        gpus_per_node=int(topology.gpus_per_node),
        intra_link=canonical_link(topology.intra_link),
        inter_link=canonical_link(topology.inter_link),
    )


def topology_to_dict(topology: ClusterTopology) -> Dict[str, object]:
    """JSON-safe form of a (canonicalized) topology."""
    topology = canonical_topology(topology)
    return {
        "num_nodes": topology.num_nodes,
        "gpus_per_node": topology.gpus_per_node,
        "intra_link": link_to_dict(topology.intra_link),
        "inter_link": link_to_dict(topology.inter_link),
    }


def topology_from_dict(doc: Dict[str, object]) -> ClusterTopology:
    """Inverse of :func:`topology_to_dict`."""
    if not isinstance(doc, dict):
        raise ValueError(f"topology must be a JSON object, got {type(doc).__name__}")
    try:
        return canonical_topology(ClusterTopology(
            num_nodes=_number(doc["num_nodes"], "topology.num_nodes", int),
            gpus_per_node=_number(doc["gpus_per_node"], "topology.gpus_per_node", int),
            intra_link=link_from_dict(doc["intra_link"]),  # type: ignore[arg-type]
            inter_link=link_from_dict(doc["inter_link"]),  # type: ignore[arg-type]
        ))
    except KeyError as exc:
        raise ValueError(f"missing field 'topology.{exc.args[0]}'") from None


def dumps_canonical(doc: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, ASCII only.

    Equal documents produce byte-identical strings — the foundation of
    both the cache key and the byte-identical-payload contract.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


@dataclass(frozen=True)
class PlanQuery:
    """One capacity-planning question, in canonical form.

    Attributes:
        model: registry model name (e.g. ``"BERT-Large"``).
        gpus: cluster size (world size of the simulated ring).
        link: the interconnect, canonicalized; either a preset or a
            calibrated :class:`LinkSpec` fitted from measurements.
        rank: low-rank compression rank; ``None`` means the paper's
            per-model default (resolved at compute time, so the *query*
            stays distinct from an explicit-rank query).
        batch_size: per-GPU batch; ``None`` = the paper's.
        methods: candidate grid the planner assesses.
        topk_ratio: Top-k keep fraction for the grid's ``topk`` entry.
        tune_buffer: run the fusion-buffer autotuner for the winner.
        topology: optional two-level node topology (canonicalized; its
            world size must equal ``gpus``). When set, the planner prices
            all-reduces by the best of the flat and hierarchical
            schedules. ``None`` (flat ``link`` only) remains a distinct
            query from any explicit topology.
    """

    model: str
    gpus: int
    link: LinkSpec
    rank: Optional[int] = None
    batch_size: Optional[int] = None
    methods: Tuple[str, ...] = QUERY_METHODS
    topk_ratio: float = 0.001
    tune_buffer: bool = True
    topology: Optional[ClusterTopology] = None

    def __post_init__(self) -> None:
        if self.gpus < 1:
            raise ValueError(f"gpus must be >= 1, got {self.gpus}")
        if self.rank is not None and self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if not 0.0 < self.topk_ratio <= 1.0:
            raise ValueError(f"topk_ratio must be in (0, 1], got {self.topk_ratio}")
        methods = tuple(str(m) for m in self.methods)
        if not methods:
            raise ValueError("need at least one candidate method")
        for method in methods:
            if method not in QUERY_METHODS:
                raise ValueError(
                    f"unknown method {method!r}; "
                    f"available: {', '.join(QUERY_METHODS)}"
                )
        # Normalize in place (frozen dataclass => object.__setattr__).
        object.__setattr__(self, "model", str(self.model))
        object.__setattr__(self, "gpus", int(self.gpus))
        object.__setattr__(self, "link", canonical_link(self.link))
        object.__setattr__(
            self, "rank", None if self.rank is None else int(self.rank)
        )
        object.__setattr__(
            self, "batch_size",
            None if self.batch_size is None else int(self.batch_size),
        )
        object.__setattr__(self, "methods", methods)
        object.__setattr__(
            self, "topk_ratio", canonical_float(self.topk_ratio, "topk_ratio")
        )
        object.__setattr__(self, "tune_buffer", bool(self.tune_buffer))
        if self.topology is not None:
            if self.topology.world_size != self.gpus:
                raise ValueError(
                    f"topology world size {self.topology.world_size} != "
                    f"gpus {self.gpus}"
                )
            object.__setattr__(
                self, "topology", canonical_topology(self.topology)
            )

    def to_dict(self) -> Dict[str, object]:
        """Versioned JSON-safe form (shared by the CLI and the service)."""
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model,
            "gpus": self.gpus,
            "link": link_to_dict(self.link),
            "rank": self.rank,
            "batch_size": self.batch_size,
            "methods": list(self.methods),
            "topk_ratio": self.topk_ratio,
            "tune_buffer": self.tune_buffer,
            "topology": (None if self.topology is None
                         else topology_to_dict(self.topology)),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "PlanQuery":
        """Inverse of :meth:`to_dict` and the wire boundary: a malformed document
        is a one-line ``ValueError``, never a silently different query."""
        if not isinstance(doc, dict):
            raise ValueError(f"query must be a JSON object, got {type(doc).__name__}")
        if not doc.keys() <= _QUERY_FIELDS:
            raise ValueError(f"unknown field {min(doc.keys() - _QUERY_FIELDS)!r}")
        schema = doc.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema {schema!r}; this build reads "
                f"{SCHEMA_VERSION!r}"
            )
        methods = doc.get("methods", QUERY_METHODS)
        if not isinstance(methods, (list, tuple)):
            raise ValueError(f"methods must be a list, got {methods!r}")
        try:
            gpus, ratio = doc["gpus"], doc.get("topk_ratio", 0.001)
            return cls(
                model=str(doc["model"]),
                gpus=gpus if type(gpus) is int else _number(gpus, "gpus", int),
                link=link_from_dict(doc["link"]),  # type: ignore[arg-type]
                rank=(None if doc.get("rank") is None
                      else _number(doc["rank"], "rank", int)),
                batch_size=(None if doc.get("batch_size") is None
                            else _number(doc["batch_size"], "batch_size", int)),
                methods=tuple(methods),
                topk_ratio=(ratio if type(ratio) is float
                            else _number(ratio, "topk_ratio")),
                tune_buffer=bool(doc.get("tune_buffer", True)),
                topology=(None if doc.get("topology") is None
                          else topology_from_dict(doc["topology"])),  # type: ignore[arg-type]
            )
        except KeyError as exc:
            raise ValueError(f"missing field {exc.args[0]!r}") from None

    def cache_key(self) -> str:
        """SHA-256 over the canonical JSON form.

        Equal queries — including ones spelled with different float
        literals — share one key; the link's *name* participates (two
        differently named links with identical alpha/beta are distinct
        deployments by declaration).
        """
        digest = hashlib.sha256(
            dumps_canonical(self.to_dict()).encode("ascii")
        )
        return digest.hexdigest()


_QUERY_FIELDS = frozenset(PlanQuery.__dataclass_fields__) | {"schema"}
