"""TheoryRegistry: versioned artifacts, promotion, diff, corruption."""

import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from repro.logic import Theory, parse_clause
from repro.parallel import wire
from repro.service import QueryEngine, RegistryError, ServiceClient, TheoryRegistry, serve
from repro.service import registry as registry_module
from repro.service.registry import RegistryRecord, theory_diff


def clause(s):
    return parse_clause(s)


@pytest.fixture
def theory_v1():
    return Theory([clause("p(X) :- q(X).")])


@pytest.fixture
def theory_v2():
    return Theory([clause("p(X) :- q(X)."), clause("p(X) :- r(X, Y), s(Y).")])


class TestPublishGet:
    def test_versions_append(self, registry, theory_v1, theory_v2):
        r1 = registry.publish("target", theory_v1, config_sig="cfg")
        r2 = registry.publish("target", theory_v2, config_sig="cfg")
        assert (r1.version, r2.version) == (1, 2)
        assert registry.versions("target") == [1, 2]
        assert registry.names() == ["target"]
        assert registry.latest_version("target") == 2

    def test_get_round_trips_theory(self, registry, theory_v2):
        registry.publish("t", theory_v2, config_sig="sig-abc",
                         provenance={"dataset": "trains", "seed": 0})
        rec = registry.get("t")
        assert rec.to_theory() == theory_v2
        assert rec.config_sig == "sig-abc"
        assert rec.provenance_dict()["dataset"] == "trains"
        # git SHA stamped automatically
        assert "git_sha" in rec.provenance_dict()

    def test_git_runs_once_per_process(self, registry, theory_v1, monkeypatch):
        registry_module._git_sha.cache_clear()
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        r1 = registry.publish("t", theory_v1)
        r2 = registry.publish("u", theory_v1)
        assert len(calls) == 1
        assert r1.provenance_dict()["git_sha"] == r2.provenance_dict()["git_sha"]

    def test_get_defaults_to_latest_then_promoted(self, registry, theory_v1, theory_v2):
        registry.publish("t", theory_v1)
        registry.publish("t", theory_v2)
        assert registry.get("t").version == 2
        registry.promote("t", 1)
        assert registry.get("t").version == 1
        assert registry.promoted_version("t") == 1
        assert registry.get("t", 2).version == 2

    def test_unknown_name_and_version(self, registry, theory_v1):
        with pytest.raises(RegistryError, match="no theory registered"):
            registry.get("missing")
        registry.publish("t", theory_v1)
        with pytest.raises(RegistryError, match="no version 9"):
            registry.get("t", 9)
        with pytest.raises(RegistryError, match="no version 9"):
            registry.promote("t", 9)

    def test_invalid_names_rejected(self, registry, theory_v1):
        for bad in ("../escape", "", ".hidden", "a/b"):
            with pytest.raises(RegistryError, match="invalid theory name"):
                registry.publish(bad, theory_v1)

    def test_names_skips_stray_entries(self, registry, theory_v1, tmp_path):
        import os

        registry.publish("real", theory_v1)
        # Stray contents a shared root accumulates: a dotdir, a non-theory
        # dir, a plain file.  The listing must skip them, not raise.
        os.makedirs(os.path.join(registry.root, ".git"))
        os.makedirs(os.path.join(registry.root, "empty-dir"))
        with open(os.path.join(registry.root, "notes.txt"), "w") as fh:
            fh.write("hi")
        assert registry.names() == ["real"]

    def test_corrupt_artifact_surfaces_as_registry_error(self, registry, theory_v1):
        registry.publish("t", theory_v1)
        path = registry._path("t", 1)
        with open(path, "wb") as fh:
            fh.write(b"\xc3garbage")
        with pytest.raises(RegistryError, match="corrupt|not a registry"):
            registry.get("t", 1)

    def test_record_bytes_deterministic(self, theory_v2):
        rec = RegistryRecord(
            format_version=1, name="t", version=3, theory=tuple(theory_v2),
            config_sig="cfg", provenance=(("a", "1"), ("b", "2")),
            epoch_summary=((1, 4, 10),),
        )
        data = wire.encode_always(rec)
        assert wire.decode(data) == rec
        assert wire.encode_always(rec) == data


class TestDiff:
    def test_diff_by_variant_key(self, registry, theory_v1, theory_v2):
        registry.publish("t", theory_v1)
        registry.publish("t", theory_v2)
        diff = registry.diff("t", 1, 2)
        assert [str(c) for c in diff["added"]] == [str(clause("p(X) :- r(X, Y), s(Y)."))]
        assert diff["removed"] == []
        assert len(diff["unchanged"]) == 1

    def test_renamed_variants_are_unchanged(self):
        old = Theory([clause("p(X) :- q(X).")])
        new = Theory([clause("p(Z) :- q(Z).")])  # renamed variant: same rule
        diff = theory_diff(old, new)
        assert diff["added"] == [] and diff["removed"] == []
        assert len(diff["unchanged"]) == 1


class TestRetentionGC:
    def publish_n(self, registry, theory, n, name="t"):
        for _ in range(n):
            registry.publish(name, theory)

    def test_gc_keeps_newest_versions(self, registry, theory_v1):
        self.publish_n(registry, theory_v1, 4)
        assert registry.gc("t", keep=2) == [1, 2]
        assert registry.versions("t") == [3, 4]
        # Surviving artifacts still load.
        assert registry.get("t", 3).to_theory() == theory_v1

    def test_gc_never_drops_promoted_version(self, registry, theory_v1):
        self.publish_n(registry, theory_v1, 4)
        registry.promote("t", 2)
        assert registry.gc("t", keep=1) == [1, 3]
        assert registry.versions("t") == [2, 4]
        # The served (promoted) theory is untouched.
        assert registry.get("t").version == 2

    def test_gc_version_numbers_never_reused(self, registry, theory_v1, theory_v2):
        self.publish_n(registry, theory_v1, 3)
        registry.gc("t", keep=1)
        record = registry.publish("t", theory_v2)
        assert record.version == 4

    def test_gc_keep_must_be_positive(self, registry, theory_v1):
        registry.publish("t", theory_v1)
        with pytest.raises(ValueError, match="keep"):
            registry.gc("t", keep=0)
        assert registry.gc("t", keep=1) == []

    def test_gc_unknown_name(self, registry):
        with pytest.raises(RegistryError, match="no theory"):
            registry.gc("ghost")


class TestOldRegistryRoot:
    """A root that sampled runs once published into holds a ``vNNNN.cert``
    beside a theory.  Nothing reads it any more: every registry call works
    as if it were not there, and leaves it as it was."""

    def test_every_call_ignores_a_stray_certificate(
        self, registry, theory_v1, theory_v2, parent_cert, opened_paths
    ):
        registry.publish("t", theory_v1)
        registry.publish("t", theory_v2)
        stray = os.path.join(registry.root, "t", "v0001.cert")
        with open(stray, "wb") as fh:
            fh.write(parent_cert)
        opened_paths.clear()
        assert registry.names() == ["t"]
        assert registry.versions("t") == [1, 2]
        assert registry.get("t", 1).to_theory() == theory_v1
        assert registry.get("t").to_theory() == theory_v2
        assert [str(c) for c in registry.diff("t", 1, 2)["added"]] == [
            str(clause("p(X) :- r(X, Y), s(Y)."))
        ]
        assert registry.gc("t", keep=1) == [1]
        assert registry.versions("t") == [2]
        assert os.path.abspath(stray) not in opened_paths
        assert sorted(os.listdir(os.path.dirname(stray))) == ["v0001.cert", "v0002.theory"]
        with open(stray, "rb") as fh:
            assert fh.read() == parent_cert

    #: One registry call each, on a root holding v1 and v2 of ``t``.
    CALLS = {
        "names": lambda reg, v1, v2: reg.names() == ["t"],
        "versions": lambda reg, v1, v2: reg.versions("t") == [1, 2],
        "get_latest": lambda reg, v1, v2: reg.get("t").to_theory() == v2,
        "get_v1": lambda reg, v1, v2: reg.get("t", 1).to_theory() == v1,
        "diff": lambda reg, v1, v2: len(reg.diff("t", 1, 2)["added"]) == 1,
        "promote": lambda reg, v1, v2: reg.promote("t", 1) == 1 and reg.get("t").version == 1,
        "publish": lambda reg, v1, v2: reg.publish("t", v1).version == 3,
        "gc": lambda reg, v1, v2: reg.gc("t", keep=1) == [1] and reg.versions("t") == [2],
    }

    @pytest.mark.parametrize("stray", ["v0001.cert", "v0001.cert.corrupt"])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_call_never_opens_a_stray_certificate(
        self, call, stray, registry, theory_v1, theory_v2, parent_cert, opened_paths
    ):
        """Each call on its own, beside an intact ``.cert`` or one that the
        old startup recovery renamed aside as damaged."""
        registry.publish("t", theory_v1)
        registry.publish("t", theory_v2)
        path = os.path.join(registry.root, "t", stray)
        body = parent_cert if stray.endswith(".cert") else parent_cert[: len(parent_cert) // 2]
        with open(path, "wb") as fh:
            fh.write(body)
        opened_paths.clear()
        assert self.CALLS[call](registry, theory_v1, theory_v2)
        assert os.path.abspath(path) not in opened_paths
        with open(path, "rb") as fh:
            assert fh.read() == body

    def test_stray_certificate_ahead_of_every_theory_takes_no_version(
        self, registry, theory_v1, parent_cert
    ):
        registry.publish("t", theory_v1)
        with open(os.path.join(registry.root, "t", "v0002.cert"), "wb") as fh:
            fh.write(parent_cert)
        assert registry.versions("t") == [1]
        assert registry.publish("t", theory_v1).version == 2
        assert registry.versions("t") == [1, 2]
        assert registry.get("t").version == 2


TRAINS = {"dataset": "trains", "seed": "0", "scale": "small"}
REPO = pathlib.Path(__file__).resolve().parents[2]


def settle(root, name="t", age=60.0):
    """Age a theory directory's mtime past the registry's settling time."""
    past = time.time() - age
    os.utime(os.path.join(root, name), (past, past))


def resolved(reg, *version):
    """``reg.resolve_version("t", *version)``, or None for a RegistryError."""
    try:
        return reg.resolve_version("t", *version)
    except RegistryError:
        return None


@pytest.fixture
def listdirs(monkeypatch):
    """Directories ``os.listdir`` is asked for during the test."""
    seen: list = []
    real = os.listdir

    def spy(path="."):
        seen.append(os.path.abspath(os.fsdecode(path)))
        return real(path)

    monkeypatch.setattr(os, "listdir", spy)
    return seen


class TestListingCache:
    """A theory's listing (versions, promoted) is kept under its directory's
    (inode, mtime, ctime) once that mtime has settled, and read again as
    soon as one ``stat`` shows the directory changed."""

    #: a write made through a second instance, and what the first must see next.
    WRITES = {
        "publish": (lambda reg, th: reg.publish("t", th), lambda reg: resolved(reg) == 3),
        "promote": (lambda reg, th: reg.promote("t", 1), lambda reg: resolved(reg) == 1),
        "gc": (lambda reg, th: reg.gc("t", keep=1), lambda reg: resolved(reg, 1) is None),
    }

    @pytest.mark.parametrize("write", list(WRITES))
    def test_a_write_from_another_instance_is_seen(
        self, write, registry, theory_v1, theory_v2, listdirs
    ):
        registry.publish("t", theory_v1)
        registry.publish("t", theory_v2)
        settle(registry.root)
        assert (resolved(registry), resolved(registry, 1)) == (2, 1)
        listdirs.clear()
        assert resolved(registry) == 2
        assert listdirs == [], "the settled listing was not cached"
        apply, seen = self.WRITES[write]
        apply(TheoryRegistry(registry.root), theory_v1)
        assert seen(registry)

    @pytest.mark.parametrize("write", list(WRITES))
    def test_a_write_from_another_instance_reaches_the_next_query(
        self, write, registry, trains, trains_theory
    ):
        examples = trains.pos + trains.neg
        full = Theory(trains_theory.theory)
        registry.publish("t", full, provenance=TRAINS)
        registry.publish("t", Theory([]), provenance=TRAINS)
        settle(registry.root)
        qe = QueryEngine(registry=registry)
        covering = qe.query("t", examples, version=1).n_covered
        assert covering > 0
        assert qe.query("t", examples).n_covered == 0
        other = TheoryRegistry(registry.root)
        if write == "publish":
            other.publish("t", full, provenance=TRAINS)
        elif write == "promote":
            other.promote("t", 1)
        else:
            other.gc("t", keep=1)
            with pytest.raises(RegistryError, match="no version 1"):
                qe.query("t", examples, version=1)
            return
        assert qe.query("t", examples).n_covered == covering

    def test_a_racy_directory_is_listed_on_every_call(
        self, registry, theory_v1, listdirs, monkeypatch
    ):
        registry.publish("t", theory_v1)
        settle(registry.root)
        d = os.path.join(registry.root, "t")
        mtime = os.stat(d).st_mtime_ns
        clock = [mtime + registry_module._SETTLED_NS]
        monkeypatch.setattr(registry_module.time, "time_ns", lambda: clock[0])
        listdirs.clear()
        for _ in range(3):
            assert registry.resolve_version("t") == 1
        assert listdirs == [d] * 3
        clock[0] += 1  # now more than the settling time after the mtime
        for _ in range(3):
            assert registry.resolve_version("t") == 1
        assert listdirs == [d] * 4

    def test_a_settled_directory_is_answered_from_one_stat(
        self, registry, theory_v1, theory_v2, listdirs, opened_paths
    ):
        registry.publish("t", theory_v1)
        registry.publish("t", theory_v2)
        registry.promote("t", 1)
        settle(registry.root)
        assert registry.resolve_version("t") == 1
        listdirs.clear()
        opened_paths.clear()
        for _ in range(5):
            assert registry.resolve_version("t") == 1
            assert registry.resolve_version("t", 2) == 2
            assert registry.versions("t") == [1, 2]
            assert registry.promoted_version("t") == 1
            assert registry.latest_version("t") == 2
        assert listdirs == []
        assert opened_paths == []

    def test_readers_racing_a_publisher_never_go_back(self, registry, theory_v1):
        # More reader threads than cores, switching as often as the
        # interpreter allows, while a second instance publishes and each new
        # version is settled at once: no reader sees a version older than
        # one it saw before, and every reader ends on the last one.
        registry.publish("t", theory_v1)
        settle(registry.root)
        other = TheoryRegistry(registry.root)
        stop = threading.Event()
        seen: dict = {}
        failures = []

        def read(k):
            last = 0
            try:
                while True:
                    done = stop.is_set()
                    v = registry.resolve_version("t")
                    if v < last:
                        failures.append((k, last, v))
                    last = v
                    if done:
                        break
            finally:
                seen[k] = last

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for t in readers:
                t.start()
            for i in range(20):
                other.publish("t", theory_v1)
                settle(registry.root, age=60.0 + i)
            stop.set()
            for t in readers:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in readers)
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert seen == {k: 21 for k in range(8)}

    def test_a_cached_listing_is_not_the_callers_to_change(self, registry, theory_v1):
        registry.publish("t", theory_v1)
        settle(registry.root)
        registry.versions("t").append(7)
        assert registry.versions("t") == [1]


class TestAcrossProcesses:
    def test_a_promote_from_the_cli_changes_the_next_served_answer(
        self, tmp_path, trains, trains_theory, listdirs
    ):
        root = str(tmp_path / "registry")
        reg = TheoryRegistry(root)
        reg.publish("t", Theory(trains_theory.theory), provenance=TRAINS)
        reg.publish("t", Theory([]), provenance=TRAINS)
        settle(root)
        ready = threading.Event()
        box = {}

        def on_ready(server):
            box["server"] = server
            ready.set()

        thread = threading.Thread(
            target=serve,
            kwargs=dict(port=0, slots=1, registry_dir=root, ready=on_ready),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10), "server did not come up"
        query = {"op": "query", "theory": "t", "examples": [str(e) for e in trains.pos]}
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        try:
            with ServiceClient(port=box["server"].port) as c:
                assert c.request(query)["n_covered"] == 0
                listdirs.clear()
                assert c.request(query)["n_covered"] == 0
                assert listdirs == [], "the served query did not use the cached listing"
                subprocess.run(
                    [sys.executable, "-m", "repro", "registry", "--registry-dir", root,
                     "promote", "t", "1"],
                    env=env, cwd=str(REPO), check=True, capture_output=True, timeout=60,
                )
                assert c.request(query)["n_covered"] == len(trains.pos)
                c.request({"op": "shutdown"})
        finally:
            thread.join(timeout=15)
        assert not thread.is_alive()
