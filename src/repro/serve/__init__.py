"""repro.serve: the capacity-planning service over the simulator.

The "serve millions of users" face of the project: the calibrated
performance simulator becomes the *backend* of a planning service, and
this package is its front — canonical hashable queries
(:mod:`repro.serve.query`), one versioned plan schema shared by the CLI
and the service (:mod:`repro.serve.schema`), a memoized LRU result
cache (:mod:`repro.serve.cache`), and the single-flighted batched service
itself (:mod:`repro.serve.service`).

    >>> from repro.serve import PlannerService, PlanQuery
    >>> from repro.sim.calibration import SIM_LINKS
    >>> with PlannerService() as service:
    ...     q = PlanQuery("ResNet-50", gpus=32, link=SIM_LINKS["10GbE"])
    ...     first = service.submit(q)     # simulator sweep
    ...     again = service.submit(q)     # cache hit, byte-identical
    ...     assert first.payload == again.payload

See ``docs/planner_service.md`` for the architecture, the cache-key
contract and the invalidation rules.
"""

from repro.serve.cache import ResultCache
from repro.serve.query import (
    SCHEMA_VERSION,
    PlanQuery,
    canonical_float,
    canonical_link,
    canonical_topology,
    dumps_canonical,
    link_from_dict,
    link_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.serve.schema import (
    assessment_from_dict,
    assessment_to_dict,
    plan_from_dict,
    plan_payload,
    plan_to_dict,
)
from repro.serve.service import (
    PlannerService,
    PlanResult,
    compute_plan_payload,
    serve_jsonl,
)

__all__ = [
    "SCHEMA_VERSION",
    "PlanQuery",
    "PlanResult",
    "PlannerService",
    "ResultCache",
    "assessment_from_dict",
    "assessment_to_dict",
    "canonical_float",
    "canonical_link",
    "canonical_topology",
    "compute_plan_payload",
    "dumps_canonical",
    "link_from_dict",
    "link_to_dict",
    "topology_from_dict",
    "topology_to_dict",
    "plan_from_dict",
    "plan_payload",
    "plan_to_dict",
    "serve_jsonl",
]
