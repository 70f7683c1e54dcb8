"""The one fault-plan file format: round trips and strict refusals.

``FaultPlan`` and ``ServiceFaultPlan`` are read and written by one codec
(``repro.fault.plan.PlanFormat``); every malformed document is a
``ValueError`` naming the event and the offending setting, kind or field.
"""

import dataclasses
import json
import pathlib
import re

import pytest

from helpers_fault import RUN_PLAN, SERVICE_PLAN
from repro.fault.plan import FaultPlan
from repro.fault.service import ServiceFaultPlan


@pytest.mark.parametrize("plan", [RUN_PLAN, SERVICE_PLAN], ids=["run", "service"])
def test_every_kind_round_trips_with_non_default_fields(plan):
    for kind, (attr, event_cls) in plan.KINDS.items():
        events = getattr(plan, attr)
        assert events, f"no {kind} event"
        for f in dataclasses.fields(event_cls):
            if f.default is not dataclasses.MISSING:
                assert any(getattr(ev, f.name) != f.default for ev in events), (kind, f.name)
    assert type(plan).from_json(plan.to_json()) == plan


@pytest.mark.parametrize("plan", [RUN_PLAN, SERVICE_PLAN], ids=["run", "service"])
def test_file_round_trip(plan, tmp_path):
    path = str(tmp_path / "plan.json")
    plan.save(path)
    assert type(plan).load(path) == plan


def test_settings_keep_their_coercions():
    plan = FaultPlan.from_json('{"timeout": 2, "supervise": true}')
    assert plan.timeout == 2.0 and isinstance(plan.timeout, float)
    assert plan.supervise is True
    assert ServiceFaultPlan.from_json('{"events": []}') == ServiceFaultPlan()


def _events(kind, **fields) -> str:
    return json.dumps({"events": [{"kind": kind, **fields}]})


RUN_REFUSED = [
    ("[]", "JSON object"),
    ('{"timout": 2}', "unknown fault plan setting 'timout'"),
    ('{"timeout": "2"}', "setting 'timeout'"),
    ('{"supervise": 1}', "setting 'supervise'"),
    ('{"events": {}}', "'events' must be a list"),
    ('{"events": [7]}', "event #0"),
    ('{"events": [{"rank": 1}]}', "unknown fault event kind None"),
    (_events("meteor", rank=1), "event #0: unknown fault event kind 'meteor'"),
    (
        '{"events": [{"kind": "join", "rank": 3, "epoch": 1},'
        ' {"kind": "straggler", "rank": 1, "factor": 2.0, "after_tme": 1.0}]}',
        r"event #1 \(straggler\): unknown field 'after_tme'",
    ),
    (_events("crash", on_recv=1), r"event #0 \(crash\): missing field 'rank'"),
    (_events("crash", rank="2", on_recv=1), "field 'rank' has the wrong type"),
    (_events("drop", src=0, dst=1, nth=True), "field 'nth'"),
    (_events("crash", rank=0, on_recv=1), r"event #0 \(crash\): only worker"),
]
SERVICE_REFUSED = [
    ('{"timeout": 2.0}', "unknown service fault plan setting 'timeout'"),
    (_events("crash", rank=2), "unknown service fault event kind 'crash'"),
    (_events("reset", on_request=1, opp="query"), r"event #0 \(reset\): unknown field 'opp'"),
    (_events("lease"), "missing field 'on_lease'"),
    (_events("lease", on_lease=1, delay="1"), "field 'delay'"),
    (_events("persist", on_write=1, target="all"), "target must be"),
]
REFUSED = [(FaultPlan, *case) for case in RUN_REFUSED]
REFUSED += [(ServiceFaultPlan, *case) for case in SERVICE_REFUSED]


@pytest.mark.parametrize("cls,text,match", REFUSED)
def test_malformed_documents_are_refused(cls, text, match):
    with pytest.raises(ValueError, match=match):
        cls.from_json(text)


def test_invalid_json_is_a_value_error():
    with pytest.raises(ValueError):
        FaultPlan.from_json('{"events": [')


def test_rank_checks_run_when_the_pool_is_given():
    text = _events("crash", rank=4, on_recv=1)
    assert FaultPlan.from_json(text).crashes[0].rank == 4
    with pytest.raises(ValueError, match="outside worker pool"):
        FaultPlan.from_json(text, p=2)
    assert FaultPlan.from_json(text, p=2, spares=2).crashes[0].rank == 4


def _documented_plans() -> list:
    root = pathlib.Path(__file__).resolve().parents[2]
    blocks = []
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        for block in re.findall(r"^```json\n(.*?)^```", path.read_text(), re.M | re.S):
            if '"events"' in block:
                blocks.append(pytest.param(block, id=path.name))
    return blocks


@pytest.mark.parametrize("text", _documented_plans())
def test_documented_plans_are_one_kind_or_the_other(text):
    parsed = []
    for cls in (FaultPlan, ServiceFaultPlan):
        try:
            parsed.append(cls.from_json(text))
        except ValueError:
            pass
    assert len(parsed) == 1 and not parsed[0].empty
