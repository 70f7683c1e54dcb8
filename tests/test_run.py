"""The run front door: one reason for each refused option combination.

:mod:`repro.run` decides which front-end serves an algorithm and which
options it takes.  ``repro learn``, :class:`JobSpec` and :func:`run`
refuse a combination with the same reason.
"""

import re

import pytest

from repro.cli import main
from repro.datasets import make_dataset
from repro.fault.plan import FaultPlan
from repro.run import refusal, run
from repro.service.jobs import JobSpec

PLAN = "<plan>"

#: (refusal() options, `repro learn` argv or None, JobSpec fields or None).
REFUSED = [
    (dict(algo="mdie", fault_plan=True), ["--fault-plan", PLAN], None),
    (dict(algo="mdie", spares=1), ["--spares", "1"], None),
    (dict(algo="mdie", trace=True), ["--trace-out", "spans.jsonl"], None),
    (dict(algo="p2mdie", p=2, spares=1), ["--p", "2", "--spares", "1"], None),
    (
        dict(algo="p2mdie", p=2, fault_plan=True, spares=-1),
        ["--p", "2", "--fault-plan", PLAN, "--spares", "-1"],
        None,
    ),
    (dict(algo="p2mdie", p=0), ["--p", "0"], dict(algo="p2mdie", p=0)),
    (dict(algo="independent", p=2, max_epochs=3), None, dict(algo="independent", p=2, max_epochs=3)),
    (dict(algo="independent", p=2, checkpoint=True), None, dict(algo="independent", p=2, preemptible=True)),
    (dict(algo="no_such_algo"), None, dict(algo="no_such_algo")),
]


@pytest.mark.parametrize(
    "opts,argv,spec", REFUSED, ids=["-".join(f"{k}={v}" for k, v in o.items()) for o, _, _ in REFUSED]
)
def test_refused_combination_has_one_reason(opts, argv, spec, tmp_path, capsys):
    reason = refusal(**opts)
    assert reason
    plan_path = str(tmp_path / "plan.json")
    FaultPlan(supervise=True).save(plan_path)
    kw = {k: v for k, v in opts.items() if k in ("p", "spares", "max_epochs")}
    with pytest.raises(ValueError) as err:
        run(
            make_dataset("trains"), opts["algo"],
            fault_plan=FaultPlan(supervise=True) if opts.get("fault_plan") else None,
            record_trace=opts.get("trace", False),
            checkpoint_dir=str(tmp_path / "ck") if opts.get("checkpoint") else None,
            **kw,
        )
    assert str(err.value) == reason
    if argv is not None:
        argv = [plan_path if a == PLAN else a for a in argv]
        assert main(["learn", "trains", *argv]) == 2
        assert capsys.readouterr().err == f"repro: {reason}\n"
    if spec is not None:
        with pytest.raises(ValueError, match=re.escape(reason)):
            JobSpec("trains", **spec)

