"""docs/api.md is generated — it must never drift from the code."""

import pytest

import apidoc


def test_api_md_matches_generated_output():
    on_disk = apidoc.api_doc_path().read_text(encoding="utf-8")
    assert on_disk == apidoc.render_api_doc(), (
        "docs/api.md is stale — regenerate with "
        "`PYTHONPATH=src python tests/apidoc.py --write`"
    )


def test_check_mode_exit_codes(tmp_path, monkeypatch):
    assert apidoc.main(["--check"]) == 0
    stale = tmp_path / "api.md"
    stale.write_text("outdated\n", encoding="utf-8")
    monkeypatch.setattr(apidoc, "api_doc_path", lambda: stale)
    assert apidoc.main(["--check"]) == 1
    assert apidoc.main(["--write"]) == 0
    assert stale.read_text(encoding="utf-8") == apidoc.render_api_doc()
    assert apidoc.main(["--check"]) == 0


def test_every_cli_subcommand_documented():
    from repro.cli import build_parser

    doc = apidoc.render_api_doc()
    sub = next(
        a
        for a in build_parser()._subparsers._group_actions
        if hasattr(a, "choices")
    )
    for command in sub.choices:
        assert f"`{command}" in doc, f"CLI command {command!r} missing from api.md"
