"""The planning service: batched queries over the memoized simulator.

``PlannerService`` turns :func:`repro.planner.plan` — one expensive
simulator sweep per call — into a high-throughput lookup service:

- every answer is the canonical payload of :func:`repro.serve.schema
  .plan_payload`, stored in the LRU :class:`ResultCache` keyed by
  the query's canonical SHA-256;
- concurrent identical queries are *single-flighted*: the first caller
  computes, everyone else parks on the same in-flight slot and receives
  the leader's payload — the simulator runs exactly once per unique key;
- ``submit_batch`` fans uncached queries across a thread pool (the
  simulator is pure Python, so this buys overlap rather than parallel
  speedup, and more importantly bounds the latency of a mixed batch by
  its slowest miss, not the sum of misses);
- entries carry the calibration generation
  (:data:`repro.sim.calibration.CALIBRATION_GENERATION`); re-anchoring
  the link model via :meth:`recalibrate` (or any direct
  ``fit_link_from_bucket_timings`` call) bumps it, so every older entry
  is dropped on its next lookup instead of being served stale.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.comm.cost_model import LinkSpec
from repro.serve.cache import ResultCache
from repro.serve.query import PlanQuery, canonical_link, dumps_canonical, link_to_dict
from repro.serve.schema import plan_from_dict, plan_payload
from repro.sim.calibration import (
    CALIBRATION_GENERATION,
    SIM_LINKS,
    fit_link_from_bucket_timings,
)

#: Answer provenance: a fresh simulator run, a cache hit, or a ride on
#: another caller's in-flight computation.
SOURCE_COMPUTED = "computed"
SOURCE_CACHE = "cache"
SOURCE_COALESCED = "coalesced"


@dataclass(frozen=True)
class PlanResult:
    """One answered query.

    Attributes:
        query: the canonical query.
        payload: canonical JSON of the plan (byte-identical across cache
            hits, coalesced waits, and fresh computes of the same query
            at the same calibration generation).
        source: one of ``computed`` / ``cache`` / ``coalesced``.
        generation: calibration generation the plan was priced under.
    """

    query: PlanQuery
    payload: str
    source: str
    generation: int

    @property
    def plan(self):
        """The payload parsed back into a :class:`repro.planner.Plan`."""
        import json

        return plan_from_dict(json.loads(self.payload))

    @property
    def cached(self) -> bool:
        return self.source != SOURCE_COMPUTED


class _InFlight:
    """Single-flight slot: the leader publishes, followers wait."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.payload: Optional[str] = None
        self.generation: int = 0
        self.error: Optional[BaseException] = None


def compute_plan_payload(query: PlanQuery) -> str:
    """Run the planner for one query and serialize canonically.

    This is the default compute function; tests inject counters around it
    to assert single-flight semantics.
    """
    from repro.planner import plan

    result = plan(
        query.model,
        gpus=query.gpus,
        link=query.link,
        rank=query.rank,
        batch_size=query.batch_size,
        tune_buffer=query.tune_buffer,
        methods=query.methods,
        topk_ratio=query.topk_ratio,
        topology=query.topology,
    )
    return plan_payload(result)


class PlannerService:
    """Memoized, single-flighted, batched front end of the planner.

    Args:
        cache: result cache (default: one LRU of 32 768 entries).
        max_workers: thread-pool width for batch fan-out.
        compute_fn: ``PlanQuery -> payload`` override (tests, sharding
            across processes, ...). Must be deterministic per query and
            calibration generation.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        max_workers: int = 4,
        compute_fn: Optional[Callable[[PlanQuery], str]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.cache = cache if cache is not None else ResultCache()
        self._compute = compute_fn or compute_plan_payload
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="planner"
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, _InFlight] = {}
        self._computes = 0
        self._coalesced = 0
        #: Links this service can resolve by name in JSONL queries:
        #: the network presets, the intra-node presets (for topology
        #: queries), plus anything registered by recalibrate().
        from repro.comm.topology import NVLINK2, PCIE3_X16

        self.links: Dict[str, LinkSpec] = dict(SIM_LINKS)
        self.links[NVLINK2.name] = NVLINK2
        self.links[PCIE3_X16.name] = PCIE3_X16

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "PlannerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- calibration -------------------------------------------------------

    @staticmethod
    def generation() -> int:
        """The calibration generation new answers are priced under."""
        return CALIBRATION_GENERATION.value

    def recalibrate(
        self,
        samples: Sequence[Tuple[float, float]],
        world_size: int,
        name: str = "calibrated",
        nominal_gbps: float = 0.0,
    ) -> LinkSpec:
        """Re-anchor the link model from measured bucket timings.

        Fits a :class:`LinkSpec` through
        :func:`repro.sim.calibration.fit_link_from_bucket_timings` (which
        bumps the calibration generation, invalidating every cached
        result) and registers it under ``name`` for by-name queries.
        """
        link = canonical_link(fit_link_from_bucket_timings(
            samples, world_size, name=name, nominal_gbps=nominal_gbps
        ))
        with self._lock:
            self.links[link.name] = link
        return link

    def resolve_link(self, name: str) -> LinkSpec:
        """A preset or previously calibrated link, by name."""
        with self._lock:
            link = self.links.get(name)
        if link is None:
            raise ValueError(
                f"unknown link {name!r}; known: "
                f"{', '.join(sorted(self.links))}"
            )
        return link

    # -- queries -----------------------------------------------------------

    def lookup(self, query: PlanQuery) -> Optional[PlanResult]:
        """Cache-only probe (no simulation, counts as hit/miss)."""
        generation = self.generation()
        payload = self.cache.get(query.cache_key(), generation)
        if payload is None:
            return None
        return PlanResult(query, payload, SOURCE_CACHE, generation)

    def submit(self, query: PlanQuery) -> PlanResult:
        """Answer one query: cache hit, coalesced wait, or fresh compute."""
        key = query.cache_key()
        generation = self.generation()
        payload = self.cache.get(key, generation)
        if payload is not None:
            return PlanResult(query, payload, SOURCE_CACHE, generation)
        with self._lock:
            slot = self._inflight.get(key)
            leader = slot is None
            if leader:
                slot = _InFlight()
                self._inflight[key] = slot
        if leader:
            return self._compute_as_leader(query, key, slot, generation)
        slot.done.wait()
        if slot.error is not None:
            raise slot.error
        with self._lock:
            self._coalesced += 1
        assert slot.payload is not None
        return PlanResult(
            query, slot.payload, SOURCE_COALESCED, slot.generation
        )

    def _compute_as_leader(
        self, query: PlanQuery, key: str, slot: _InFlight, generation: int
    ) -> PlanResult:
        try:
            payload = self._compute(query)
        except BaseException as exc:  # propagate to every waiter
            slot.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            slot.done.set()
            raise
        with self._lock:
            self._computes += 1
            self._inflight.pop(key, None)
        # Only memoize if calibration did not move mid-compute: a payload
        # priced under generation g must never be served as generation g+1.
        if self.generation() == generation:
            self.cache.put(key, generation, payload)
        slot.payload = payload
        slot.generation = generation
        slot.done.set()
        return PlanResult(query, payload, SOURCE_COMPUTED, generation)

    def submit_batch(
        self,
        queries: Sequence[PlanQuery],
        return_exceptions: bool = False,
    ) -> List[PlanResult]:
        """Answer a batch, preserving order.

        Cache hits are answered inline; misses fan out across the worker
        pool, and duplicates inside the batch coalesce onto one compute
        via the single-flight path. With ``return_exceptions=True`` a
        query whose compute fails (e.g. an unknown model) yields its
        exception object in that slot instead of aborting the whole
        batch — one bad query must not sink its neighbours.
        """
        pending: List[Tuple[int, "object"]] = []
        results: List[Optional[PlanResult]] = [None] * len(queries)
        for index, query in enumerate(queries):
            hit = self.lookup(query)
            if hit is not None:
                results[index] = hit
            else:
                pending.append((index, self._pool.submit(self.submit, query)))
        for index, future in pending:
            try:
                results[index] = future.result()  # type: ignore[union-attr]
            except Exception as exc:  # noqa: BLE001 — caller opted in
                if not return_exceptions:
                    raise
                results[index] = exc  # type: ignore[assignment]
        return results  # type: ignore[return-value]

    # -- warm start --------------------------------------------------------

    def warm_start(
        self,
        models: Optional[Sequence[str]] = None,
        links: Sequence[str] = ("10GbE",),
        gpus: Sequence[int] = (32,),
        tune_buffer: bool = False,
    ) -> int:
        """Precompute the grid for the registry models.

        Returns the number of fresh simulator runs (already-cached grid
        points cost nothing). The default grid skips buffer tuning — the
        expensive refinement is better spent on demand — but a service
        fronting one known cluster should warm with ``tune_buffer=True``.
        """
        from repro.models.registry import MODEL_SPECS

        model_names = tuple(models) if models is not None else MODEL_SPECS
        grid = [
            PlanQuery(
                model=model, gpus=world, link=self.resolve_link(link_name),
                tune_buffer=tune_buffer,
            )
            for model in model_names
            for link_name in links
            for world in gpus
        ]
        before = self.stats()["computes"]
        self.submit_batch(grid)
        return self.stats()["computes"] - before

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Service + cache counters."""
        with self._lock:
            computes = self._computes
            coalesced = self._coalesced
            inflight = len(self._inflight)
        return {
            "computes": computes,
            "coalesced": coalesced,
            "inflight": inflight,
            "generation": self.generation(),
            "cache": self.cache.stats(),
        }


def serve_jsonl(
    lines: Iterable[str],
    service: PlannerService,
    batch_size: int = 64,
) -> Iterable[str]:
    """The ``python -m repro serve`` loop: JSONL queries in, JSONL out.

    Each input line is a :meth:`PlanQuery.to_dict` document (a ``link``
    given as a bare string resolves against the service's named links).
    Yields one canonical JSON line per query, in input order:
    ``{"key": ..., "generation": ..., "source": ..., "plan": {...}}``.
    Malformed lines — and well-formed queries whose compute fails, e.g.
    an unknown model — yield an ``{"error": ...}`` line instead of
    killing the stream.
    """
    import json

    batch: List[PlanQuery] = []
    errors: Dict[int, str] = {}  # position in the current window -> message
    position = 0

    def flush():
        nonlocal batch, errors, position
        answered = service.submit_batch(batch, return_exceptions=True)
        answers = iter(answered)
        for slot in range(position):
            if slot in errors:
                yield dumps_canonical({"error": errors[slot]})
                continue
            result = next(answers)
            if isinstance(result, Exception):
                yield dumps_canonical(
                    {"error": f"{type(result).__name__}: {result}"}
                )
            else:
                yield dumps_canonical({
                    "key": result.query.cache_key(),
                    "generation": result.generation,
                    "source": result.source,
                    "plan": json.loads(result.payload),
                })
        batch, errors, position = [], {}, 0

    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
            # A bare-string link resolves against the registry (presets + fits).
            topology = doc.get("topology") if isinstance(doc, dict) else None
            for holder, field in ((doc, "link"), (topology, "intra_link"),
                                  (topology, "inter_link")):
                if isinstance(holder, dict) and isinstance(holder.get(field), str):
                    holder[field] = link_to_dict(service.resolve_link(holder[field]))
            batch.append(PlanQuery.from_dict(doc))
        except Exception as exc:  # noqa: BLE001 — reported per line
            errors[position] = f"{type(exc).__name__}: {exc}"
        position += 1
        if position >= batch_size:
            yield from flush()
    if position:
        yield from flush()
