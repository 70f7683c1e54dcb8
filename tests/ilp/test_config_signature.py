"""``ILPConfig.signature()``: the versioned string checkpoints and
registry records carry, and the rule that keeps it honest."""

import dataclasses

from repro.ilp.config import (
    SIGNATURE_EXCLUDED,
    SIGNATURE_FIELDS,
    SIGNATURE_VERSION,
    ILPConfig,
    signature_mismatches,
)


def test_every_config_field_is_signed_or_excluded_on_purpose():
    """Adding a field to ILPConfig must force a decision: list it in
    SIGNATURE_FIELDS (and bump SIGNATURE_VERSION), or in
    SIGNATURE_EXCLUDED with the reason it cannot change results."""
    declared = [f.name for f in dataclasses.fields(ILPConfig)]
    assert len(SIGNATURE_FIELDS) == len(set(SIGNATURE_FIELDS))
    assert set(SIGNATURE_FIELDS).isdisjoint(SIGNATURE_EXCLUDED)
    assert sorted(SIGNATURE_FIELDS) == sorted(set(declared) - SIGNATURE_EXCLUDED)
    assert SIGNATURE_EXCLUDED <= set(declared)
    assert SIGNATURE_EXCLUDED == {"coverage_kernel"}


def test_signature_is_versioned_explicit_and_canonical():
    sig = ILPConfig().signature()
    assert sig.startswith(f"ILPConfig.v{SIGNATURE_VERSION}(max_clause_length=4, ")
    assert sig == ILPConfig().signature()
    # explicit field order, not dataclass order or dict order
    names = [item.split("=")[0] for item in sig[sig.index("(") + 1 : -1].split(", ")]
    assert tuple(names) == SIGNATURE_FIELDS
    assert ILPConfig(noise=1).signature() != sig


def test_excluded_field_does_not_change_the_signature():
    assert ILPConfig(coverage_kernel="legacy").signature() == ILPConfig().signature()


def test_mismatches_between_current_signatures():
    a, b = ILPConfig(), ILPConfig(pipeline_width=None, heuristic="laplace")
    assert signature_mismatches(a.signature(), a.signature()) == []
    assert signature_mismatches(a.signature(), b.signature()) == [
        "pipeline_width: saved 10, current None",
        "heuristic: saved 'coverage', current 'laplace'",
    ]
    assert signature_mismatches("not a signature", a.signature()) is None
