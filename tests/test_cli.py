import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest

from quandlekit import dihedral, grpgen, quandle_from_text
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


def test_star_homs_subset_cap(tmp_path, capsys, monkeypatch):
    # inn(R9) -> inn(R27) has C(27, 9) subsets of the target omega, more
    # than SUBSET_CAP, but the search assigns only a quandle generating set
    paths = {}
    for n in (3, 9, 27):
        paths[n] = tmp_path / ("p%d.pair" % n)
        main(["make", "genpair", "dihedral", str(n), "reflections", "--out", str(paths[n])])
    capsys.readouterr()
    rc, out = run(capsys, "star-homs", str(paths[9]), str(paths[27]))
    assert rc == 0
    assert out.splitlines()[0] == "count: 162"

    monkeypatch.setattr(grpgen, "SUBSET_CAP", 5)
    rc = main(["star-homs", str(paths[3]), str(paths[9])])
    captured = capsys.readouterr()
    assert rc == 2
    assert "subset_cap=5" in captured.err


# sha256 of star-homs --json on inner pairs, keyed "<source> <target>" by
# corpus token, so that any change to a listed morphism or to their order
# shows.
GOLDEN_STAR_HOMS = json.loads(Path(__file__).with_name("golden_star_homs.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN_STAR_HOMS))
def test_star_homs_json_matches_golden_digest(key, tmp_path, capsys):
    paths = []
    for token in key.split(" "):
        if token.startswith("conj:s"):
            spec = ["conj", "symmetric", token[len("conj:s"):], "all"]
        else:
            spec = ["dihedral", token[len("r"):]]
        quandle, pair = tmp_path / (token + ".quandle"), tmp_path / (token + ".pair")
        assert main(["make", *spec, "--out", str(quandle)]) == 0
        assert main(["inn", str(quandle), "--out", str(pair)]) == 0
        paths.append(str(pair))
    capsys.readouterr()
    rc, out = run(capsys, "star-homs", *paths, "--json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STAR_HOMS[key]


def test_cap_bounds_every_group_the_cli_lists(tmp_path, capsys):
    # inn(R9) has order 18: a cap of 17 refuses it wherever it is listed,
    # and 18 admits it along with every subgroup the star search closes
    p3, p9 = tmp_path / "p3.pair", tmp_path / "p9.pair"
    main(["make", "genpair", "dihedral", "3", "reflections", "--out", str(p3)])
    main(["make", "genpair", "dihedral", "9", "reflections", "--out", str(p9)])
    capsys.readouterr()
    assert main(["star-homs", str(p3), str(p9), "--cap", "17"]) == 2
    assert "cap of 17 elements" in capsys.readouterr().err
    rc, out = run(capsys, "star-homs", str(p3), str(p9), "--cap", "18")
    assert rc == 0 and out.splitlines()[0] == "count: 18"
    assert main(["verify", "--corpus", "r3,r9", "--mode", "inj", "--cap", "17"]) == 2
    assert "cap of 17 elements" in capsys.readouterr().err


def _readme_command_lines():
    """The lines of README's Command line block, comments included."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_command_line_block_runs(tmp_path, capsys, monkeypatch):
    # each line is one command as a shell would split it: no operator
    # token (an unquoted ";" would cut it in two), and it exits 0
    monkeypatch.chdir(tmp_path)
    for line in _readme_command_lines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        operators = [t for t in tokens if not t.strip(lexer.punctuation_chars)]
        assert not operators, (line, operators)
        assert tokens[0] == "quandlekit", line
        assert main(tokens[1:]) == 0, (line, capsys.readouterr().err)
    capsys.readouterr()


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


def test_verify_rejects_dihedral_and_trivial_tokens_with_extra_fields(capsys):
    assert main(["verify", "--mode", "surj", "--corpus", "dihedral:3,trivial:1"]) == 0
    capsys.readouterr()
    for token in ("dihedral:3:junk", "trivial:1:x", "dihedral:", "trivial:three"):
        assert main(["verify", "--mode", "surj", "--corpus", "r3," + token]) == 2
        err = capsys.readouterr().err
        assert repr(token) in err and "dihedral:N or trivial:N" in err


def test_homs_too_deep_for_the_stack_exits_2(tmp_path, capsys, monkeypatch):
    # the backtracker recurses once per generator, and a trivial quandle
    # needs every point as one; a source needing more generators than the
    # interpreter's recursion limit allows is refused, not overflowed
    big, one = tmp_path / "t120.quandle", tmp_path / "t1.quandle"
    assert main(["make", "trivial", "120", "--out", str(big)]) == 0
    assert main(["make", "trivial", "1", "--out", str(one)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: RECURSION_MARGIN + 100)
    assert main(["homs", str(big), str(one)]) == 2
    assert "recursion limit" in capsys.readouterr().err
    assert main(["homs", str(one), str(one)]) == 0
    capsys.readouterr()


def test_homs_recursion_depth_counts_generators_not_points(tmp_path, capsys, monkeypatch):
    # R27 has 27 points but is generated by two, so its search recurses
    # twice and fits a stack far smaller than its point count
    r27 = tmp_path / "r27.quandle"
    assert main(["make", "dihedral", "27", "--out", str(r27)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: RECURSION_MARGIN + 20)
    assert main(["homs", str(r27), str(r27), "--json"]) == 0
    # the affine maps x -> a x + b of Z/27
    assert json.loads(capsys.readouterr().out)["count"] == 27 * 27


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


# sha256 of verify --json, keyed "<mode> <corpus>", on corpora whose omegas
# hold elements of order 3 and 4, so that the order prune of the surjective
# search and the checks' generating sets meet non-involutions.
GOLDEN_VERIFY_CONJ = json.loads(Path(__file__).with_name("golden_verify_conj.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN_VERIFY_CONJ))
def test_verify_json_on_conjugation_corpora_matches_golden_digest(key, capsys):
    mode, corpus = key.split(" ")
    rc, out = run(capsys, "verify", "--corpus", corpus, "--mode", mode, "--json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_CONJ[key]
