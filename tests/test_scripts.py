"""Smoke runs of the scripts under scripts/, which import the package (and
the CLI's corpus parser) by name."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return stop.value.code, capsys.readouterr()


def test_run_equivalence_suite(monkeypatch, capsys):
    code, captured = run_script(monkeypatch, capsys, "run_equivalence_suite.py", "--corpus", "r3,r5")
    out = captured.out
    assert code == 0
    assert "== mode surjective" in out and "== mode injective" in out
    assert out.rstrip().endswith("total failures: 0")


def test_run_equivalence_suite_rejects_empty_corpus(monkeypatch, capsys):
    code, captured = run_script(monkeypatch, capsys, "run_equivalence_suite.py", "--corpus", " , ")
    assert code == 2 and "empty corpus" in captured.err


def test_run_equivalence_suite_rejects_unfaithful_corpus(monkeypatch, capsys):
    code, captured = run_script(
        monkeypatch, capsys, "run_equivalence_suite.py", "--corpus", "r3,trivial:2"
    )
    assert code == 2
    assert captured.err == "error: trivial:2: not faithful\n"


def test_run_equivalence_suite_reports_a_cap(monkeypatch, capsys):
    from quandlekit import grpgen

    monkeypatch.setattr(grpgen, "SUBSET_CAP", 0)
    code, captured = run_script(
        monkeypatch, capsys, "run_equivalence_suite.py", "--corpus", "r3", "--mode", "inj"
    )
    assert code == 2
    assert captured.err.startswith("error: star morphism search tried more than subset_cap=0")


def test_count_injective_homs(monkeypatch, capsys):
    code, captured = run_script(monkeypatch, capsys, "count_injective_homs.py")
    out = captured.out
    assert code == 0
    assert "quandle side: 18 injective maps R3 -> R9" in out
    assert "18 backwards-partial morphisms" in out
    assert "counts agree" in out
