import json
import sys

import pytest

from quandlekit import dihedral, quandle_from_text
from quandlekit.cli import load_corpus, main
from quandlekit.perm import RECURSION_MARGIN


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_make_dihedral(tmp_path, capsys):
    rc = main(["make", "dihedral", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    # table on stdout, summary on stderr so the table pipes clean
    assert quandle_from_text(captured.out).table == dihedral(3).table
    assert "faithful: yes" in captured.err
    path = tmp_path / "r3.quandle"
    rc = main(["make", "dihedral", "3", "--out", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert quandle_from_text(path.read_text()).table == dihedral(3).table
    assert "points: 3" in captured.out and "axioms: ok" in captured.out


def test_make_trivial_and_alexander(capsys):
    rc, out = run(capsys, "make", "trivial", "4")
    assert rc == 0 and out.startswith("quandle 4")
    rc, out = run(capsys, "make", "alexander", "z5", "x2")
    assert rc == 0
    assert quandle_from_text(out).n == 5
    rc, out = run(capsys, "make", "alexander", "z3xz3", "0,1;-1,0")
    assert rc == 0
    assert quandle_from_text(out).n == 9


def test_make_conj_and_genpair(tmp_path, capsys):
    rc, out = run(capsys, "make", "conj", "symmetric", "3", "all")
    assert rc == 0
    q = quandle_from_text(out)
    assert q.n == 6 and q.labels is not None
    rc, out = run(capsys, "make", "genpair", "dihedral", "9", "reflections")
    assert rc == 0
    assert out.splitlines()[-1].startswith("omega ")
    rc, out = run(capsys, "make", "conj", "symmetric", "3", "transpositions")
    assert rc == 0
    assert quandle_from_text(out).n == 3


def test_make_rejects_bad_specs(capsys):
    assert main(["make", "bogus"]) == 2
    assert main(["make", "alexander", "q5", "x2"]) == 2
    assert main(["make", "alexander", "z5", "x5"]) == 2  # 5 is 0 mod 5
    assert main(["make", "conj", "dihedral", "9", "transpositions"]) == 2
    capsys.readouterr()


def test_make_file_normalizes(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text("quandle 3\n0 2 1\n2 1 0\n1 0 2\n")
    rc, out = run(capsys, "make", "file", str(path))
    assert rc == 0
    assert quandle_from_text(out).table == dihedral(3).table


def test_check_good_and_bad(tmp_path, capsys):
    good = tmp_path / "r3.q"
    main(["make", "dihedral", "3", "--out", str(good)])
    capsys.readouterr()
    rc, out = run(capsys, "check", str(good))
    assert rc == 0
    assert "axioms: ok" in out and "faithful: yes" in out

    even = tmp_path / "r4.q"
    main(["make", "dihedral", "4", "--out", str(even)])
    capsys.readouterr()
    rc, out = run(capsys, "check", str(even))
    assert rc == 0
    assert "faithful: no" in out

    bad = tmp_path / "bad.q"
    bad.write_text("quandle 2\n1 0\n1 0\n")
    rc, out = run(capsys, "check", str(bad))
    assert rc == 1
    assert "axiom violations" in out and "Q1" in out


def test_inn_reports_and_writes_pair(tmp_path, capsys):
    r9 = tmp_path / "r9.q"
    main(["make", "dihedral", "9", "--out", str(r9)])
    pair = tmp_path / "r9.pair"
    capsys.readouterr()
    rc, out = run(capsys, "inn", str(r9), "--out", str(pair))
    assert rc == 0
    assert "inner group order: 18" in out
    assert "distinct symmetries: 9" in out
    assert "dihedral-recognized: yes, n=9" in out
    assert pair.read_text().splitlines()[0] == "perms 9"

    cs3 = tmp_path / "cs3.q"
    main(["make", "conj", "symmetric", "3", "all", "--out", str(cs3)])
    capsys.readouterr()
    rc, out = run(capsys, "inn", str(cs3))
    assert rc == 0
    assert "inner group order: 6" in out
    assert "dihedral-recognized: yes, n=3" in out  # S3 is also D6

    a5 = tmp_path / "a5.q"
    main(["make", "alexander", "z5", "x2", "--out", str(a5)])
    t5 = tmp_path / "t5.q"
    main(["make", "trivial", "5", "--out", str(t5)])
    capsys.readouterr()
    rc, out = run(capsys, "inn", str(a5))
    assert rc == 0 and "inner group order: 20" in out
    rc, out = run(capsys, "inn", str(t5))
    assert rc == 0 and "inner group order: 1" in out


def test_homs_text_and_json(tmp_path, capsys):
    r3 = tmp_path / "r3.q"
    r9 = tmp_path / "r9.q"
    main(["make", "dihedral", "3", "--out", str(r3)])
    main(["make", "dihedral", "9", "--out", str(r9)])
    capsys.readouterr()
    rc, out = run(capsys, "homs", str(r3), str(r9), "--mode", "inj")
    assert rc == 0
    assert out.splitlines()[0] == "count: 18"
    rc, out = run(capsys, "homs", str(r3), str(r9), "--mode", "inj", "--json")
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["mode"] == "injective"
    assert data["count"] == 18
    assert [0, 3, 6] in data["homs"]


def test_homs_rejects_invalid_table(tmp_path, capsys):
    bad = tmp_path / "bad.q"
    bad.write_text("quandle 2\n1 0\n1 0\n")
    r3 = tmp_path / "r3.q"
    main(["make", "dihedral", "3", "--out", str(r3)])
    assert main(["homs", str(bad), str(r3)]) == 2
    capsys.readouterr()


def test_star_homs(tmp_path, capsys):
    p3 = tmp_path / "p3.pair"
    p9 = tmp_path / "p9.pair"
    main(["make", "genpair", "dihedral", "3", "reflections", "--out", str(p3)])
    main(["make", "genpair", "dihedral", "9", "reflections", "--out", str(p9)])
    capsys.readouterr()
    rc, out = run(capsys, "star-homs", str(p3), str(p9))
    assert rc == 0
    assert out.splitlines()[0] == "count: 18"
    rc, out = run(capsys, "star-homs", str(p3), str(p9), "--json")
    data = json.loads(out)
    assert data["schema"] == 1 and data["count"] == 18
    first = data["morphisms"][0]
    assert len(first["gamma"]) == 3
    assert len(first["subgroup"]) == 6
    assert len(first["pi"]) == 6
    assert first["pi_injective"] is True


def test_verify_ok(capsys):
    rc, out = run(capsys, "verify", "--corpus", "r3,r5", "--mode", "surj")
    assert rc == 0
    assert "all checks passed" in out
    rc, out = run(capsys, "verify", "--corpus", "r3,trivial:1", "--mode", "inj")
    assert rc == 0


def test_verify_json(capsys):
    rc, out = run(capsys, "verify", "--corpus", "r3,alex:z5:x2", "--mode", "surj", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["reports"][0]["failures"] == 0


def test_verify_rejects_unfaithful_member(capsys):
    rc = main(["verify", "--corpus", "r4", "--mode", "surj"])
    assert rc == 2
    capsys.readouterr()


def test_verify_rejects_malformed_alex_token(capsys):
    assert main(["verify", "--corpus", "r3,alex:z5", "--mode", "surj"]) == 2
    err = capsys.readouterr().err
    assert "'alex:z5'" in err and "alex:FACTORS:PHI" in err


def test_homs_too_deep_for_the_stack_exits_2(tmp_path, capsys, monkeypatch):
    # the backtracker recurses once per source point; a source larger than
    # the interpreter's recursion limit allows is refused, not overflowed
    big, one = tmp_path / "t120.quandle", tmp_path / "t1.quandle"
    assert main(["make", "trivial", "120", "--out", str(big)]) == 0
    assert main(["make", "trivial", "1", "--out", str(one)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: RECURSION_MARGIN + 100)
    assert main(["homs", str(big), str(one)]) == 2
    assert "recursion limit" in capsys.readouterr().err
    assert main(["homs", str(one), str(one)]) == 0
    capsys.readouterr()


def test_verify_rejects_empty_corpus(capsys):
    assert main(["verify", "--corpus", " , "]) == 2
    capsys.readouterr()


def test_load_corpus_splits_parses_and_expands_modes():
    tokens, corpus, modes = load_corpus(" r3, ,conj:s3 ", "all")
    assert tokens == ["r3", "conj:s3"]
    assert [q.n for q in corpus] == [3, 6] and corpus[0] == dihedral(3)
    assert modes == ["surjective", "injective"]
    assert load_corpus("r5", "inj")[2] == ["injective"]
    with pytest.raises(ValueError, match="empty corpus"):
        load_corpus(" , ", "surj")


def test_argparse_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["homs", "only-one-arg"])
    assert exc.value.code == 2
