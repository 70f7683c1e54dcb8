"""Versioned on-disk registry of learned theories.

A registry is a directory tree::

    <root>/<name>/v0001.theory
    <root>/<name>/v0002.theory
    <root>/<name>/PROMOTED          # text file: the blessed version number

Each ``vNNNN.theory`` file is one :class:`RegistryRecord` serialized with
the compact wire codec of :mod:`repro.parallel.wire` (type code 22 —
the same append-only registry the checkpoint format uses, and the same
byte-exact, hash-seed-independent marshalling the cluster trusts for
clauses).  A record carries the theory itself plus everything needed to
trust and reproduce it:

* the ``repr`` of the :class:`~repro.ilp.config.ILPConfig` the run used
  (``config_sig`` — the guard ``repro resume`` also uses);
* free-form provenance pairs (dataset / seed / scale / algorithm /
  backend / git SHA / epochs / accuracy ...);
* the publishing epoch summary, when the producing run recorded one.

Versions are immutable and append-only; ``promote`` moves a pointer,
never rewrites an artifact.  Readers default to the promoted version,
falling back to the latest.
"""

from __future__ import annotations

import functools
import os
import re
import struct
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.logic.clause import Clause, Theory
from repro.parallel import wire
from repro.util.atomicio import atomic_write_bytes, atomic_write_text

__all__ = [
    "RegistryRecord",
    "RegistryError",
    "TheoryRegistry",
    "theory_diff",
    "validate_name",
]

#: wire type code of a registry record (append-only; 21 = checkpoint,
#: 22 = registry record, 23 = job record).
_WIRE_CODE = 22

REGISTRY_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
# 4+ digits: v%04d pads to four but grows past v9999, still listed.
_VERSION_RE = re.compile(r"^v(\d{4,})\.theory$")

#: A listing is cached only once its directory's mtime is this far behind
#: the clock: coarser than any timestamp granularity (FAT's is 2 s).
_SETTLED_NS = 2_000_000_000


class RegistryError(ValueError):
    """Unknown name/version, corrupt artifact, or invalid operation."""


def validate_name(name: str) -> str:
    """Check a theory name against the registry's naming rule.

    Callers that *accept* names for later publication (job submission's
    ``register_as``) validate here up front, so an hours-long learning
    run never fails at publish time over a typo.
    """
    if not _NAME_RE.match(name):
        raise RegistryError(
            f"invalid theory name {name!r} (want letters/digits/._- "
            "starting with a letter or digit)"
        )
    return name


@dataclass(frozen=True)
class RegistryRecord:
    """One immutable published theory version."""

    format_version: int
    name: str
    version: int
    theory: tuple[Clause, ...]
    #: ``repr`` of the producing run's ILPConfig (resume-style guard).
    config_sig: str = ""
    #: free-form provenance (dataset, seed, algo, git SHA, ...).
    provenance: tuple[tuple[str, str], ...] = ()
    #: per-epoch (epoch, bag_size, pos_covered) summary, when known.
    epoch_summary: tuple[tuple[int, int, int], ...] = ()

    def replace(self, **kw) -> "RegistryRecord":
        return replace(self, **kw)

    def provenance_dict(self) -> dict[str, str]:
        return dict(self.provenance)

    def to_theory(self) -> Theory:
        return Theory(self.theory)

    def to_dict(self) -> dict:
        """Plain-data summary (theory as Prolog text) for JSON responses."""
        from repro.logic.io import theory_to_prolog

        return {
            "name": self.name,
            "version": self.version,
            "rules": len(self.theory),
            "config_sig": self.config_sig,
            "provenance": self.provenance_dict(),
            "theory": theory_to_prolog(self.to_theory()),
        }


def _enc_registry_record(e, r: RegistryRecord) -> None:
    e.u(r.format_version)
    e.sym(r.name)
    e.u(r.version)
    e.clauses(r.theory)
    e.sym(r.config_sig)
    e.u(len(r.provenance))
    for k, v in r.provenance:
        e.sym(k)
        e.sym(v)
    e.u(len(r.epoch_summary))
    for epoch, bag_size, pos_covered in r.epoch_summary:
        e.u(epoch)
        e.u(bag_size)
        e.u(pos_covered)


def _dec_registry_record(d) -> RegistryRecord:
    format_version = d.u()
    if format_version != REGISTRY_VERSION:
        raise RegistryError(f"unsupported registry record version {format_version}")
    return RegistryRecord(
        format_version=format_version,
        name=d.sym(),
        version=d.u(),
        theory=d.clauses(),
        config_sig=d.sym(),
        provenance=tuple((d.sym(), d.sym()) for _ in range(d.u())),
        epoch_summary=tuple((d.u(), d.u(), d.u()) for _ in range(d.u())),
    )


wire.register_codec(RegistryRecord, _WIRE_CODE, _enc_registry_record, _dec_registry_record)


@functools.cache
def _git_sha() -> str:
    """Best-effort HEAD SHA of the *code* checkout producing the theory.

    Resolved from the installed package's own directory — never from the
    registry root, which routinely lives outside the repository (temp
    dirs, data volumes) or inside an unrelated one.  "unknown" when the
    code does not come from a git checkout.  Read once per process: the
    SHA returned is the checkout's HEAD at the first publish, and later
    publishes stamp that one without forking ``git`` again.
    """
    import subprocess  # only a publish needs it

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def theory_diff(old: Theory, new: Theory) -> dict[str, list[Clause]]:
    """Clause-level diff of two theories, keyed by canonical variant.

    Two clauses are "the same rule" when their
    :meth:`~repro.logic.clause.Clause.variant_key` match (renamed
    variants evaluate identically, so they are operationally one rule).
    Returns ``{"added": [...], "removed": [...], "unchanged": [...]}``
    in stable clause order.
    """
    old_keys = {c.variant_key(): c for c in old}
    new_keys = {c.variant_key(): c for c in new}
    return {
        "added": [c for k, c in new_keys.items() if k not in old_keys],
        "removed": [c for k, c in old_keys.items() if k not in new_keys],
        "unchanged": [c for k, c in new_keys.items() if k in old_keys],
    }


class TheoryRegistry:
    """Filesystem-backed registry of versioned learned theories.

    All operations are safe under concurrent publishers in one process
    (an internal lock serializes version allocation) and atomic on disk
    (tmp + fsync + rename via :mod:`repro.util.atomicio`), so a crashed
    publisher never leaves a torn artifact — at worst an unreferenced
    tmp file, which the atomic writer removes on failure anyway.

    ``fault_injector`` (chaos testing only) is a
    :class:`~repro.fault.service.ServiceFaultInjector` whose
    ``persist_hook("registry")`` fails selected writes inside the
    torn-write window.
    """

    def __init__(self, root: str, fault_injector=None):
        self.root = root
        self._injector = fault_injector
        os.makedirs(root, exist_ok=True)
        import threading

        self._lock = threading.Lock()
        #: name -> ((st_ino, st_mtime_ns, st_ctime_ns), (versions, promoted)); no
        #: lock: each listing is read after its key, so a lost race re-lists.
        self._listings: dict[str, tuple] = {}

    def _fail_hook(self):
        if self._injector is None:
            return None
        return self._injector.persist_hook("registry")

    # -- paths -------------------------------------------------------------------

    def _dir(self, name: str) -> str:
        validate_name(name)
        return os.path.join(self.root, name)

    def _path(self, name: str, version: int) -> str:
        return os.path.join(self._dir(name), f"v{version:04d}.theory")

    # -- read side ---------------------------------------------------------------

    def names(self) -> list[str]:
        """All registered theory names, sorted.

        Entries that are not theory directories — stray files, dirs with
        non-conforming names (``.git``, ``_backup``), dirs without
        version artifacts — are skipped, never errors: a listing must
        survive whatever else lives in the root.
        """
        return sorted(
            n for n in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, n))
            and _NAME_RE.match(n)
            and self.versions(n)
        )

    def _listing(self, name: str) -> tuple[tuple[int, ...], Optional[int]]:
        """``name``'s (versions, promoted), listed again only when a ``stat``
        shows its directory changed: publish, promote and gc, from any
        process, each add, replace or remove an entry of it."""
        d = self._dir(name)
        now = time.time_ns()
        try:
            st = os.stat(d)
        except OSError:
            return (), None
        key = (st.st_ino, st.st_mtime_ns, st.st_ctime_ns)
        cached = self._listings.get(name)
        if cached is not None and cached[0] == key:
            return cached[1]
        if not os.path.isdir(d):
            return (), None
        versions = sorted(int(m.group(1)) for m in map(_VERSION_RE.match, os.listdir(d)) if m)
        promoted = None
        path = os.path.join(d, "PROMOTED")
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                promoted = int(fh.read().strip())
        listing = (tuple(versions), promoted)
        if now - st.st_mtime_ns > _SETTLED_NS:
            self._listings[name] = (key, listing)
        return listing

    def versions(self, name: str) -> list[int]:
        """Published version numbers of ``name``, ascending."""
        return list(self._listing(name)[0])

    def latest_version(self, name: str) -> int:
        versions = self._listing(name)[0]
        if not versions:
            raise RegistryError(f"no theory registered under {name!r}")
        return versions[-1]

    def promoted_version(self, name: str) -> Optional[int]:
        """The promoted version of ``name``, or None if nothing promoted."""
        return self._listing(name)[1]

    def resolve_version(self, name: str, version: Optional[int] = None) -> int:
        """Explicit version, else the promoted one, else the latest."""
        versions, promoted = self._listing(name)
        if version is not None:
            if version not in versions:
                raise RegistryError(f"{name!r} has no version {version}")
            return version
        if promoted is not None:
            return promoted
        if not versions:
            raise RegistryError(f"no theory registered under {name!r}")
        return versions[-1]

    def get(self, name: str, version: Optional[int] = None) -> RegistryRecord:
        """Load one record (default: promoted version, else latest)."""
        version = self.resolve_version(name, version)
        path = self._path(name, version)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise RegistryError(f"{name} v{version}: {exc}") from exc
        try:
            record = wire.decode(data)
        except (wire.WireError, IndexError, struct.error, UnicodeDecodeError) as exc:
            raise RegistryError(f"{path}: corrupt artifact ({exc})") from exc
        if not isinstance(record, RegistryRecord):
            raise RegistryError(f"{path}: not a registry record")
        return record

    def diff(self, name: str, old_version: int, new_version: int) -> dict[str, list[Clause]]:
        """Variant-key clause diff between two versions of ``name``."""
        old = self.get(name, old_version).to_theory()
        new = self.get(name, new_version).to_theory()
        return theory_diff(old, new)

    # -- write side --------------------------------------------------------------

    def publish(
        self,
        name: str,
        theory: Theory,
        *,
        config_sig: str = "",
        provenance: Optional[dict] = None,
        epoch_summary: tuple = (),
    ) -> RegistryRecord:
        """Append the next version of ``name``; returns the stored record.

        Provenance is augmented with the repository's git SHA when not
        already supplied (``"unknown"`` outside a git checkout).
        """
        prov = dict(provenance or {})
        with self._lock:
            # Under the lock: racing first publishes still fork git once.
            prov.setdefault("git_sha", _git_sha())
            version = (self.versions(name) or [0])[-1] + 1
            record = RegistryRecord(
                format_version=REGISTRY_VERSION,
                name=name,
                version=version,
                theory=tuple(theory),
                config_sig=config_sig,
                provenance=tuple(sorted((str(k), str(v)) for k, v in prov.items())),
                epoch_summary=tuple(epoch_summary),
            )
            data = wire.encode_always(record)
            d = self._dir(name)
            os.makedirs(d, exist_ok=True)
            path = self._path(name, version)
            atomic_write_bytes(path, data, fail_hook=self._fail_hook())
            return record

    def promote(self, name: str, version: int) -> int:
        """Bless ``version`` as the default served version of ``name``."""
        with self._lock:  # concurrent promotes share one PROMOTED.tmp path
            if version not in self.versions(name):
                raise RegistryError(f"{name!r} has no version {version}")
            path = os.path.join(self._dir(name), "PROMOTED")
            atomic_write_text(
                path, f"{version}\n", encoding="ascii",
                fail_hook=self._fail_hook(),
            )
            return version

    def gc(self, name: str, keep: int = 1) -> list[int]:
        """Drop old versions of ``name``, keeping the newest ``keep``.

        Retention for long-lived registries: version artifacts are
        removed oldest-first, always keeping the newest ``keep`` (≥ 1 —
        a registered name never loses its last version) **and** the
        promoted version, whatever its age: a gc must never pull the
        served theory out from under running queries.  Version numbers
        are never reused — :meth:`publish` continues from the highest
        version ever allocated, because the newest version always
        survives.  Returns the removed version numbers, ascending.
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        with self._lock:
            versions, promoted = self._listing(name)
            if not versions:
                raise RegistryError(f"no theory registered under {name!r}")
            survivors = set(versions[-keep:])
            if promoted is not None:
                survivors.add(promoted)
            removed = []
            for v in versions:
                if v in survivors:
                    continue
                os.remove(self._path(name, v))
                removed.append(v)
            return removed
