"""Property tests for the cache-key contract and the JSONL loop (hypothesis).

The service's hit rate rests on one invariant: the cache key is a pure
function of query *value*. Floats are where that breaks in practice —
equal doubles with different spellings (``10.0`` vs ``1e1``), negative
zero, integer-valued floats — so these properties drive generated
:class:`LinkSpec` values through every such disguise and require the key
to be blind to all of them, and to distinguish every genuinely different
value.

The JSONL loop is the other boundary: whatever bytes arrive, ``serve_jsonl``
answers every line, in order, with a plan or a one-line message a user can
act on — and garbage between two valid queries never changes their answers.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.cost_model import LinkSpec
from repro.serve import (
    PlannerService,
    PlanQuery,
    canonical_float,
    canonical_link,
    dumps_canonical,
    serve_jsonl,
)

pytestmark = pytest.mark.serve

finite = st.floats(allow_nan=False, allow_infinity=False)
alphas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
betas = st.floats(min_value=1.0, max_value=1e12, allow_nan=False)
gbps = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


def make_query(alpha, beta, nominal):
    return PlanQuery(
        "ResNet-50", gpus=16,
        link=LinkSpec("generated", alpha, beta, nominal),
        tune_buffer=False,
    )


def disguises(value):
    """Different spellings of the same float value."""
    forms = [value, float(repr(value)), value * 1.0, value + 0.0]
    if value == 0.0:
        forms.append(-0.0)
    if value == int(value) and abs(value) < 2**53:
        forms.append(float(int(value)))
    return forms


class TestCanonicalFloatProperties:
    @given(finite)
    def test_idempotent(self, value):
        once = canonical_float(value)
        assert repr(canonical_float(once)) == repr(once)

    @given(finite)
    def test_value_preserving(self, value):
        assert canonical_float(value) == value

    @given(finite)
    def test_all_disguises_share_one_repr(self, value):
        spellings = {repr(canonical_float(form)) for form in disguises(value)}
        assert len(spellings) == 1

    @given(finite)
    def test_never_negative_zero(self, value):
        out = canonical_float(value)
        if out == 0.0:
            assert math.copysign(1.0, out) == 1.0


class TestLinkKeyProperties:
    @settings(max_examples=60)
    @given(alphas, betas, gbps)
    def test_equal_specs_equal_keys(self, alpha, beta, nominal):
        """Every disguise of the same link values yields one cache key."""
        keys = {
            make_query(a, b, g).cache_key()
            for a in disguises(alpha)
            for b in disguises(beta)
            for g in disguises(nominal)
        }
        assert len(keys) == 1

    @settings(max_examples=60)
    @given(alphas, betas, gbps, alphas, betas, gbps)
    def test_keys_equal_iff_queries_equal(self, a1, b1, g1, a2, b2, g2):
        q1, q2 = make_query(a1, b1, g1), make_query(a2, b2, g2)
        assert (q1.cache_key() == q2.cache_key()) == (q1 == q2)

    @settings(max_examples=60)
    @given(alphas, betas, gbps)
    def test_canonical_link_round_trip_stable(self, alpha, beta, nominal):
        link = canonical_link(LinkSpec("x", alpha, beta, nominal))
        again = canonical_link(link)
        assert (repr(again.alpha), repr(again.beta),
                repr(again.nominal_gbps)) == \
               (repr(link.alpha), repr(link.beta), repr(link.nominal_gbps))

    @settings(max_examples=60)
    @given(alphas, betas, gbps)
    def test_serialization_round_trip_preserves_key(self, alpha, beta,
                                                    nominal):
        query = make_query(alpha, beta, nominal)
        again = PlanQuery.from_dict(json.loads(json.dumps(query.to_dict())))
        assert again.cache_key() == query.cache_key()


def valid_line(index):
    """Distinct keys, so every valid answer is ``computed`` in any stream."""
    return json.dumps({"model": "ResNet-18", "gpus": 2 + index, "link": "10GbE",
                       "tune_buffer": False})


#: What the mutations start from: every optional field present, both link
#: spellings, and a link name no valid line uses (a mutant that stays valid
#: never shares a cache key with one).
MUTATION_BASE = {
    "schema": "repro.plan/2", "model": "ResNet-18", "gpus": 8,
    "link": {"name": "fuzz", "alpha": 1e-5, "beta": 1e9, "nominal_gbps": 10.0},
    "rank": 4, "batch_size": 32, "methods": ["ssgd", "acpsgd"],
    "topk_ratio": 0.01, "tune_buffer": False,
    "topology": {
        "num_nodes": 2, "gpus_per_node": 4, "intra_link": "NVLink2",
        "inter_link": {"name": "fuzz", "alpha": 1e-5, "beta": 1e9,
                       "nominal_gbps": 10.0},
    },
}
FIELD_PATHS = (
    [(name,) for name in MUTATION_BASE]
    + [("link", name) for name in MUTATION_BASE["link"]]
    + [("topology", name) for name in MUTATION_BASE["topology"]]
    + [("topology", "inter_link", name) for name in MUTATION_BASE["link"]]
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8,
)


@st.composite
def mutants(draw):
    """``MUTATION_BASE`` with one field deleted, replaced or added."""
    doc = copy.deepcopy(MUTATION_BASE)
    *parents, leaf = draw(st.sampled_from(FIELD_PATHS))
    holder = doc
    for name in parents:
        holder = holder[name]
    action = draw(st.sampled_from(["delete", "replace", "add"]))
    if action == "delete":
        del holder[leaf]
    elif action == "replace":
        holder[leaf] = draw(json_values)
    else:
        holder[draw(st.text(min_size=1, max_size=8))] = draw(json_values)
    return json.dumps(doc)


@st.composite
def truncated(draw):
    line = json.dumps(MUTATION_BASE)
    return line[:draw(st.integers(min_value=1, max_value=len(line) - 1))]


garbage = st.one_of(json_values.map(json.dumps), truncated(), mutants())


def fake_compute(query):
    return dumps_canonical({"model": query.model, "gpus": query.gpus})


class TestServeLoopSurvivesAnyInput:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.none() | garbage, min_size=1, max_size=12),
           st.sampled_from([1, 3, 64]))
    def test_one_answer_per_line_and_valid_answers_unmoved(self, slots,
                                                           batch_size):
        # ``None`` slots are valid queries; the rest is generated garbage.
        valid = [valid_line(i) for i in range(slots.count(None))]
        remaining = iter(valid)
        lines = [next(remaining) if slot is None else slot for slot in slots]
        with PlannerService(compute_fn=fake_compute, max_workers=2) as service:
            out = list(serve_jsonl(lines, service, batch_size=batch_size))
        with PlannerService(compute_fn=fake_compute, max_workers=2) as service:
            clean = iter(list(serve_jsonl(valid, service, batch_size=batch_size)))
        assert len(out) == len(lines)
        for slot, answer in zip(slots, out):
            assert "\n" not in answer
            if slot is None:
                assert answer == next(clean)
                assert "plan" in json.loads(answer)
            elif "error" in (doc := json.loads(answer)):
                message = doc["error"]
                assert "\n" not in message
                assert not message.startswith(
                    ("AttributeError", "KeyError", "TypeError")), message

    @pytest.mark.parametrize("line, message", [
        ("[1,2]", "ValueError: query must be a JSON object, got list"),
        ("42", "ValueError: query must be a JSON object, got int"),
        ("null", "ValueError: query must be a JSON object, got NoneType"),
        ('{"model":"ResNet-18","gpus":8}', "ValueError: missing field 'link'"),
        ('{"model":"ResNet-18","gpus":8,"link":"10GbE","topology":'
         '{"gpus_per_node":4,"intra_link":"NVLink2","inter_link":"10GbE"}}',
         "ValueError: missing field 'topology.num_nodes'"),
        ('{"model":"ResNet-18","gpus":8,"link":{"name":"x","beta":1}}',
         "ValueError: missing field 'link.alpha'"),
        ('{"model":"ResNet-18","gpus":8,"link":"nope"}',
         "ValueError: unknown link 'nope'; known: 100GbIB, 10GbE, 1GbE, "
         "NVLink2, PCIe3x16"),
    ])
    def test_error_lines_are_messages_not_python_internals(self, line, message):
        with PlannerService(compute_fn=fake_compute) as service:
            out = list(serve_jsonl([line, valid_line(0)], service))
        assert json.loads(out[0]) == {"error": message}
        assert "plan" in json.loads(out[1])


class TestWireBoundaryRejectsWhatItUsedToReinterpret:
    """Each of these used to be planned as a *different* query."""

    @pytest.mark.parametrize("field, value, message", [
        ("gpus", 8.5, "gpus must be an integer, got 8.5"),
        ("gpus", True, "gpus must be an integer, got True"),
        ("gpus", "8", "gpus must be an integer, got '8'"),
        ("rank", 4.5, "rank must be an integer, got 4.5"),
        ("rank", False, "rank must be an integer, got False"),
        ("batch_size", 32.25, "batch_size must be an integer, got 32.25"),
        ("methods", "ssgd", "methods must be a list, got 'ssgd'"),
        ("tune_bufer", False, "unknown field 'tune_bufer'"),
        ("topk_ratio", 0, r"topk_ratio must be in \(0, 1\], got 0.0"),
        ("topk_ratio", 5, r"topk_ratio must be in \(0, 1\], got 5.0"),
        ("topk_ratio", True, "topk_ratio must be a number, got True"),
    ])
    def test_from_dict_raises_one_line_value_error(self, field, value, message):
        doc = make_query(1e-5, 1e9, 10.0).to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=message) as caught:
            PlanQuery.from_dict(doc)
        assert "\n" not in str(caught.value)

    def test_integral_floats_are_the_integer_query(self):
        doc = make_query(1e-5, 1e9, 10.0).to_dict()
        expected = PlanQuery.from_dict(doc).cache_key()
        doc["gpus"] = 16.0
        assert PlanQuery.from_dict(doc).cache_key() == expected

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5, float("nan")])
    def test_plan_rejects_a_keep_fraction_no_compressor_accepts(self, ratio):
        from repro.planner import plan

        with pytest.raises(ValueError, match="topk_ratio must be in"):
            plan("ResNet-18", gpus=8, tune_buffer=False, topk_ratio=ratio)
