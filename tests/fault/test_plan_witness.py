"""The committed fault plans read back to the same objects.

``tests/data/faultplan_reprs.json`` holds the ``repr`` of every plan under
``examples/faultplans/``, loaded with the plan class its entry names.  A
change to how plan files are parsed may refuse more documents; it must not
change what an accepted one means.  Regenerate (only when a plan file is
added) with

    PYTHONPATH=src python tests/fault/test_plan_witness.py > tests/data/faultplan_reprs.json
"""

import json
import pathlib

import pytest

from repro.fault.plan import FaultPlan
from repro.fault.service import ServiceFaultPlan

ROOT = pathlib.Path(__file__).resolve().parents[2]
WITNESS = ROOT / "tests" / "data" / "faultplan_reprs.json"
PLANS = ROOT / "examples" / "faultplans"
CLASSES = {cls.__name__: cls for cls in (FaultPlan, ServiceFaultPlan)}


def reprs() -> dict:
    out = {}
    for path in sorted(PLANS.glob("*.json")):
        cls = ServiceFaultPlan if path.name.startswith("service_") else FaultPlan
        out[path.name] = {"class": cls.__name__, "repr": repr(cls.load(str(path)))}
    return out


WITNESSED = json.loads(WITNESS.read_text())


def test_every_committed_plan_is_witnessed():
    assert sorted(WITNESSED) == sorted(p.name for p in PLANS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(WITNESSED))
def test_plan_loads_to_its_witnessed_repr(name):
    entry = WITNESSED[name]
    plan = CLASSES[entry["class"]].load(str(PLANS / name))
    assert repr(plan) == entry["repr"]


if __name__ == "__main__":
    print(json.dumps(reprs(), indent=2))
