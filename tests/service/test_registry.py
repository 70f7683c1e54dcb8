"""TheoryRegistry: versioned artifacts, promotion, diff, corruption."""

import os
import subprocess

import pytest

from repro.logic import Theory, parse_clause
from repro.parallel import wire
from repro.service import RegistryError, TheoryRegistry
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
