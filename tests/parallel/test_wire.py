"""Wire-codec tests: round-trip every message type, deterministic byte
counts, pickle fallback, and end-to-end CommStats behaviour."""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.ilp.bottom import BottomClause, BottomLiteral
from repro.ilp.refinement import SearchRule
from repro.logic.clause import Clause
from repro.logic.parser import parse_clause, parse_term
from repro.logic.terms import Const, Struct, Var
from repro.obs.span import Span, SpanBatch
from repro.parallel import wire
from repro.parallel.messages import (
    AdoptWorker,
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    Ping,
    PipelineRules,
    PipelineTask,
    Pong,
    RuleStats,
    StartPipeline,
    Stop,
    UpdateRouting,
)

RULE = parse_clause("active(A) :- atom(A, B, c), bond(A, B, C, 7).")
PARENT = parse_clause("active(A) :- atom(A, B, c).")
POS = tuple(parse_term(s) for s in ("active(m1)", "active(m2)"))
NEG = (parse_term("active(m9)"),)


def make_bottom() -> BottomClause:
    a, b, c = Var("A"), Var("B"), Var("C")
    lits = [
        BottomLiteral(Struct("atom", (a, b, Const("c"))), frozenset([a]), frozenset([b])),
        BottomLiteral(Struct("bond", (a, b, c, Const(7))), frozenset([a, b]), frozenset([c])),
    ]
    return BottomClause(
        seed=parse_term("active(m1)"),
        head=Struct("active", (a,)),
        literals=lits,
        head_vars=frozenset([a]),
    )


MESSAGES = [
    LoadExamples(partition_id=3),
    StartPipeline(width=10),
    StartPipeline(width=None),
    MarkCovered(rule=RULE),
    Stop(),
    # fault-tolerance protocol (repro.fault)
    Ping(token=7),
    Pong(rank=3, token=7, cache_hits=120, cache_misses=11),
    AdoptWorker(
        virtual_rank=2,
        partition_id=2,
        epoch=3,
        completed=((RULE,), (), (PARENT, RULE)),
        current=(PARENT,),
        draw_seeds=True,
        draw_current=True,
    ),
    AdoptWorker(
        virtual_rank=5, partition_id=5, epoch=0, completed=(), current=(), draw_seeds=False
    ),
    StartPipeline(origin=1, width=10, epoch=4),
    StartPipeline(origin=3, width=None, epoch=1),
    UpdateRouting(routing=((1, 1), (2, 4), (3, 1))),
    EvaluateRequest(round=9, rules=(RULE, PARENT)),
    # telemetry (repro.obs): a rank's activity trace on its way home
    SpanBatch(rank=0),
    SpanBatch(
        rank=2,
        spans=(
            Span(2, "search(s1)", 0.25, 1.5),
            Span(2, "saturate", 1.5, 1.75, (("epoch", "3"),)),
        ),
    ),
    # the evaluation messages, under the codes that replaced 5, 6 and 18
    EvaluateRequest(rules=(RULE, PARENT)),
    EvaluateResult(rank=2, stats=(RuleStats(pos=3, neg=0),)),
    EvaluateResult(rank=1, stats=()),
    EvaluateResult(round=9, rank=2, stats=(RuleStats(pos=3, neg=1),)),
    # the pipeline messages, under the codes that replaced 3, 4, 19 and 20:
    # a task's rules as positions in its bottom clause, results as clauses
    PipelineTask(
        bottom=make_bottom(),
        step=2,
        width=5,
        rules=(SearchRule(RULE, 1), SearchRule(PARENT, 0)),
        origin=1,
    ),
    PipelineTask(bottom=None, step=1, width=None, rules=(), origin=4),
    PipelineRules(origin=2, rules=(RULE, PARENT)),
    PipelineTask(epoch=2, bottom=make_bottom(), step=2, width=5, rules=(SearchRule(RULE, 1),), origin=1),
    PipelineTask(epoch=1, bottom=None, step=1, width=None, rules=(), origin=4),
    PipelineRules(epoch=2, origin=2, rules=(RULE,)),
]

with open(os.path.join(os.path.dirname(__file__), os.pardir, "data", "wire_layouts.json")) as _f:
    _WITNESS = json.load(_f)
LAYOUTS = _WITNESS["layouts"]
#: Bytes of formats this version no longer reads (codes 1, 3-6, 8-10, 18-20, 24-27 and 29-31).
RETIRED = _WITNESS["retired"]
#: Each message's test id is its witness entry's: the class name, or for
#: a stamped layout the name its class had before the stamp folded it into
#: the plain message (``FTEvaluateRequest``, ``RestartPipeline0``...).
MESSAGE_IDS = [e["id"] for e in LAYOUTS]


class TestRoundTrip:
    @pytest.mark.parametrize("msg", MESSAGES, ids=MESSAGE_IDS)
    def test_round_trip(self, msg):
        data = wire.encode_always(msg)
        assert isinstance(data, bytes)
        assert wire.decode(data) == msg

    def test_every_message_type_covered(self):
        # Out-of-package payloads register their codecs on import: the
        # file formats — the checkpoint (code 21), the theory-registry
        # record (22), the scheduler job record (23).  The telemetry span
        # batch (28) is in MESSAGES.
        from repro.fault.checkpoint import CheckpointState
        from repro.service.jobs import JobRecord
        from repro.service.registry import RegistryRecord

        assert {type(m) for m in MESSAGES} | {
            CheckpointState,
            RegistryRecord,
            JobRecord,
        } == set(wire._ENCODERS)

    def test_every_code_is_registered_by_its_home(self):
        # decode() imports a code's home module on first sight, so the
        # table must name the module whose import registers the code.
        import repro.fault.checkpoint  # noqa: F401
        import repro.service.jobs  # noqa: F401
        import repro.service.registry  # noqa: F401

        assert set(wire._DECODERS) == set(wire._HOMES)
        assert {c: d.__module__ for c, d in wire._DECODERS.items()} == wire._HOMES

    def test_mpi_tag_table_covers_every_protocol_tag(self):
        # The MPI adapter maps string tags onto integer MPI tags; every
        # Tag member (including the fault-tolerance ping/pong/routing
        # control tags) must have its own distinct id, and the backend's
        # halt control tag must stay outside the protocol table.
        from repro.cluster.message import Tag
        from repro.backend.mpi import _TAG_IDS, HALT_TAG

        protocol_tags = {
            v for k, v in vars(Tag).items() if not k.startswith("_") and isinstance(v, str)
        }
        assert protocol_tags == set(_TAG_IDS)
        ids = list(_TAG_IDS.values())
        assert len(ids) == len(set(ids)), "duplicate MPI tag ids"
        assert HALT_TAG not in ids

    def test_exotic_constants(self):
        msg = MarkCovered(
            rule=Clause(
                parse_term("p(-3)"),
                (
                    parse_term("p(2.5)"),
                    Struct("p", (Const(True), Const(1), Const(1.0))),
                    Struct("p", (Const("it's"), Struct("f", (Const(10 ** 30),)))),
                ),
            )
        )
        dec = wire.decode(wire.encode_always(msg))
        assert dec == msg
        # bool/int/float survive as distinct constant kinds
        args = dec.rule.body[1].args
        assert [type(a.value) for a in args] == [bool, int, float]

    def test_decoded_terms_are_interned(self):
        msg = MarkCovered(rule=RULE)
        dec = wire.decode(wire.encode_always(msg))
        # Ground subterms come back pointer-equal to the local copies.
        assert dec.rule.body[0].args[2] is RULE.body[0].args[2]

    def test_smaller_than_pickle(self):
        for msg in MESSAGES:
            data = wire.encode_always(msg)
            assert len(data) < len(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))


class TestWireLayouts:
    """Every entry of ``MESSAGES`` against its committed bytes
    (``tests/data/wire_layouts.json``): a layout that moves one byte, or a
    code that changes, fails here before any golden run notices."""

    def test_one_witness_per_message(self):
        assert len(LAYOUTS) == len(MESSAGES)

    @pytest.mark.parametrize("msg,entry", zip(MESSAGES, LAYOUTS), ids=MESSAGE_IDS)
    def test_encodes_to_witness(self, msg, entry):
        data = wire.encode_always(msg)
        assert data[2] == entry["code"]
        assert data.hex() == entry["hex"]

    @pytest.mark.parametrize("entry", LAYOUTS, ids=MESSAGE_IDS)
    def test_witness_decodes_and_reencodes(self, entry):
        data = bytes.fromhex(entry["hex"])
        assert wire.encode_always(wire.decode(data)) == data


#: Every retired code and the message its format carried.
RETIRED_CODES = [
    (1, "LoadData"),
    (3, "PipelineTask"),
    (4, "PipelineRules"),
    (5, "EvaluateRequest"),
    (6, "EvaluateResult"),
    (8, "GatherExamples"),
    (9, "ExamplesReport"),
    (10, "Repartition"),
    (18, "FTEvaluateResult"),
    (19, "FTPipelineTask"),
    (20, "FTPipelineRules"),
    (24, "WireJson"),
    (25, "WireQuery"),
    (26, "WireShard"),
    (27, "WireQueryEnd"),
    (29, "CoverageCertificate"),
    (30, "SampledEvaluateRequest"),
    (31, "SampledEvaluateResult"),
]


class TestRetiredCodes:
    """Codes 1 and 8-10 (ship-data mode, per-epoch repartitioning), 5, 6
    and 18 (evaluation messages carrying candidate masks), 3, 4, 19 and 20
    (pipeline messages carrying each rule's parent), 24-27 (the service's
    wire client transport) and 29-31 (sampled coverage) stay reserved:
    their bytes fail loudly, naming the retired format, and no codec may
    take them over."""

    # The name predates codes 1, 3-6, 8-10, 18-20 and 24-27; it is kept so
    # the test id stays put.
    def test_retired_codes_are_exactly_29_to_31(self):
        codes = [code for code, _ in RETIRED_CODES]
        assert codes == [1, 3, 4, 5, 6, 8, 9, 10, 18, 19, 20, 24, 25, 26, 27, 29, 30, 31]
        assert sorted(wire._RETIRED_CODES) == codes == sorted({e["code"] for e in RETIRED})
        assert not set(wire._RETIRED_CODES) & set(wire._DECODERS)

    @pytest.mark.parametrize("entry", RETIRED, ids=[e["id"] for e in RETIRED])
    def test_retired_witness_names_its_format(self, entry):
        data = bytes.fromhex(entry["hex"])
        assert data[2] == entry["code"]
        name = entry["id"].rstrip("0123456789")
        match = f"retired message type code {entry['code']} \\({name}"
        with pytest.raises(wire.WireError, match=match):
            wire.decode(data)

    def test_an_unknown_code_is_refused_by_number(self):
        header = wire.encode_always(MESSAGES[0])[:2]
        known = set(wire._DECODERS) | set(wire._RETIRED_CODES) | set(wire._HOMES)
        unknown = min(set(range(256)) - known)
        with pytest.raises(wire.WireError, match=f"unknown message type code {unknown}$"):
            wire.decode(header + bytes([unknown]))

    @pytest.mark.parametrize("code,name", RETIRED_CODES)
    def test_any_body_behind_a_retired_code_names_its_format(self, code, name):
        """The code alone decides: no body, a stray byte, noise or another
        message's body all fail on the retired code, never on the body."""
        header = wire.encode_always(MESSAGES[0])[:2]
        for body in (b"", b"\x00", bytes(range(256)), bytes.fromhex(LAYOUTS[0]["hex"])[3:]):
            with pytest.raises(wire.WireError, match=f"retired message type code {code} \\({name},"):
                wire.decode(header + bytes([code]) + body)

    @pytest.mark.parametrize("code", [code for code, _ in RETIRED_CODES])
    def test_register_codec_refuses_retired_code(self, code):
        class Payload:
            pass

        with pytest.raises(ValueError, match=f"wire code {code} is retired"):
            wire.register_codec(Payload, code, lambda e, m: None, lambda d: Payload())
        assert Payload not in wire._ENCODERS


class TestDeterminism:
    def test_encode_is_deterministic_in_process(self):
        for msg in MESSAGES:
            assert wire.encode_always(msg) == wire.encode_always(msg)

    def test_bytes_stable_across_hash_seeds(self):
        """Byte counts must not depend on PYTHONHASHSEED (frozenset
        iteration order differs per process; the codec sorts)."""
        prog = (
            "from tests.parallel.test_wire import MESSAGES\n"
            "from repro.parallel import wire\n"
            "print(';'.join(wire.encode_always(m).hex() for m in MESSAGES))\n"
        )
        here = [wire.encode_always(m).hex() for m in MESSAGES]
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src" + os.pathsep + os.getcwd() + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            out = subprocess.run(
                [sys.executable, "-c", prog],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            )
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip().split(";") == here


class TestGatingAndFallback:
    def test_unknown_payload_is_refused(self):
        with pytest.raises(wire.WireError, match="no wire codec for payload type builtins.dict"):
            wire.encode_always({"not": "a message"})

    def test_marshal_payload_is_the_codec(self):
        """One format: a message is sized and shipped as its wire bytes,
        and a payload without a codec is refused, naming its type."""
        from repro.cluster.message import marshal_payload, payload_nbytes, unmarshal_payload

        msg = MarkCovered(rule=RULE)
        data = marshal_payload(msg)
        assert data == wire.encode_always(msg)
        assert payload_nbytes(msg) == len(data)
        assert unmarshal_payload(data) == msg

        with pytest.raises(wire.WireError, match=r"payload type builtins\.dict"):
            marshal_payload({"not": "a message", "rule": RULE})

    @pytest.mark.parametrize(
        "msg",
        [
            StartPipeline(width=3, origin=2),
            StartPipeline(width=3, epoch=2),
            PipelineTask(bottom=make_bottom(), step=2, width=5, rules=(SearchRule(RULE, 0),), origin=1),
            PipelineTask(
                bottom=make_bottom(),
                step=2,
                width=5,
                rules=(SearchRule(Clause(RULE.head, RULE.body[::-1]), 1),),
                origin=1,
            ),
            PipelineTask(
                bottom=make_bottom(),
                step=2,
                width=5,
                rules=(SearchRule(parse_clause("active(X) :- atom(X, Y, c)."), 0),),
                origin=1,
            ),
            PipelineTask(bottom=None, step=2, width=5, rules=(SearchRule(RULE, 1),), origin=1),
        ],
        ids=[
            "origin-without-epoch",
            "epoch-without-origin",
            "rule-ending-before-its-last-index",
            "rule-out-of-bottom-order",
            "rule-renamed-apart-from-its-bottom",
            "rules-without-bottom",
        ],
    )
    def test_half_stamped_message_is_refused(self, msg):
        """No layout holds these; encoding one must fail, not drop a field.
        A pipeline task's rules travel as positions in its bottom clause,
        so a rule that is no forward match of it ending at its
        ``last_index``, or rules with no bottom clause, are refused too."""
        with pytest.raises(wire.WireError):
            wire.encode_always(msg)

    def test_decode_rejects_garbage(self):
        with pytest.raises(wire.WireError):
            wire.decode(b"\x00\x01\x02")
        with pytest.raises(wire.WireError):
            wire.decode(wire.encode_always(Stop()) + b"x")


class TestEndToEnd:
    def test_commstats_deterministic_and_reduced(self, monkeypatch):
        from repro.datasets import make_dataset
        from repro.parallel import run_p2mdie

        ds = make_dataset("trains", seed=0, scale="small")
        args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
        r1 = run_p2mdie(*args, p=2, seed=0)
        r2 = run_p2mdie(*args, p=2, seed=0)
        # The reference: every payload sized by pickle, as before the codec.
        from repro.cluster import message

        monkeypatch.setattr(
            message, "marshal_payload", lambda payload: pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        )
        r3 = run_p2mdie(*args, p=2, seed=0)
        # deterministic accounting across identical runs
        assert r1.comm.bytes_total == r2.comm.bytes_total
        assert r1.comm.bytes_by_tag == r2.comm.bytes_by_tag
        # identical learning, identical message count, fewer bytes
        assert list(map(str, r1.theory)) == list(map(str, r3.theory))
        assert r1.comm.messages == r3.comm.messages
        assert r1.comm.bytes_total < r3.comm.bytes_total


def _healing_run(args):
    from repro.fault.plan import FaultPlan
    from repro.parallel import run_p2mdie

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    plan = FaultPlan.load(
        os.path.join(root, "examples", "faultplans", "crash_and_straggler.json"), p=3, spares=1
    )
    return run_p2mdie(*args, p=3, spares=1, seed=0, fault_plan=plan)


def _plain_run(front_end):
    def run(args):
        from repro import parallel

        return getattr(parallel, front_end)(*args, p=2, seed=0)

    return run


#: The learner's protocols on ``sim``: every message each one sends.
PROTOCOL_RUNS = {
    "p2mdie": _plain_run("run_p2mdie"),
    "covpar": _plain_run("run_coverage_parallel"),
    "independent": _plain_run("run_independent"),
    "p2mdie-healing": _healing_run,
}


class TestOneFormat:
    @pytest.mark.parametrize("name", PROTOCOL_RUNS)
    def test_every_payload_is_a_wire_message(self, name, monkeypatch):
        """Each send of a run is sized by one encode of a registered
        message, and the run's byte count is the sum of those encodings."""
        from repro.datasets import make_dataset

        ds = make_dataset("trains", seed=0, scale="small")
        sent = []
        real = wire.encode_always
        monkeypatch.setattr(wire, "encode_always", lambda p: sent.append(p) or real(p))
        res = PROTOCOL_RUNS[name]((ds.kb, ds.pos, ds.neg, ds.modes, ds.config))
        assert sent and len(sent) == res.comm.messages
        assert {type(p).__module__ for p in sent} == {"repro.parallel.messages"}
        assert sum(len(real(p)) for p in sent) == res.comm.bytes_total


class TestServiceWireMessages:
    """The service's payloads that still ride the wire codec: its file
    formats.  (Its client transport's codes 24-27 are retired.)"""

    def test_job_record_with_outcome_round_trip(self):
        from repro.service.jobs import JobRecord, JobSpec, OutcomeSummary

        summary = OutcomeSummary(
            rules=2, epochs=3, seconds=1.25, uncovered=0, ops=4200,
            mbytes=0.125, train_accuracy=97.5,
            theory="eastbound(A) :-\n    has_car(A, B).\n",
        )
        for outcome in (None, summary):
            rec = JobRecord(
                job_id="job-0007", seq=7,
                spec=JobSpec(dataset="trains", algo="p2mdie", p=2, seed=5),
                state="done" if outcome else "queued",
                epochs_done=3, outcome=outcome,
            )
            data = wire.encode_always(rec)
            assert wire.decode(data) == rec
