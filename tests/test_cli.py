"""CLI exit codes, JSON determinism, verify tiers 1 and 2."""

import json

import pytest

from skewloop import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_field_info_text(capsys):
    rc, out, _ = run(capsys, "field", "info", "--field", "2^2")
    assert rc == cli.EXIT_OK
    assert "order: 4" in out
    assert "sigma_order: 2" in out


def test_skew_irreducible_json(capsys):
    rc, out, _ = run(capsys, "skew", "irreducible", "--field", "2^2",
                     "--f", "t^2 - g^1", "--format", "json")
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert data["irreducible"] is True
    assert data["admissible"] is True
    # y = t^2 acts on R/Rf by y 1 = g and y t = t g = g^2 t, so
    # chi_f = (y - g)(y - g^2) = y^2 + (g + g^2) y + g^3 = y^2 + y + 1 over F_2
    assert data["reduced_norm"] == "y^2 + y + g^0"


def test_skew_divmod_reconstructs(capsys):
    rc, out, _ = run(capsys, "skew", "divmod", "--field", "2^2",
                     "--f", "t^2 - g^1", "--g", "t^3 + t + 1", "--format", "json")
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert "quotient" in data and "remainder" in data


def test_semifield_analyze(capsys):
    rc, out, _ = run(capsys, "semifield", "analyze", "--field", "2^2",
                     "--f", "t^2 - g^1", "--format", "json")
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert data["size"] == 16
    assert data["nuclei"]["left"]["cardinality"] == 4


def test_loop_mlt_and_inn(capsys):
    rc, out, _ = run(capsys, "loop", "mlt", "--field", "2^2",
                     "--f", "t^2 - g^1", "--format", "json")
    assert rc == cli.EXIT_OK
    assert json.loads(out)["order"] == "20160"
    rc, out, _ = run(capsys, "loop", "inn", "--field", "2^2",
                     "--f", "t^2 - g^1", "--format", "json")
    assert rc == cli.EXIT_OK
    assert json.loads(out)["order"] == "1344"


def test_loop_aut_and_inner(capsys):
    rc, out, _ = run(capsys, "loop", "aut", "--field", "2^2",
                     "--f", "t^2 - g^1", "--format", "json")
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert data["hk_count"] == 3 and data["group_tag"] == "cyclic"
    rc, out, _ = run(capsys, "loop", "inner", "--field", "2^2",
                     "--f", "t^2 - g^1", "--format", "json")
    assert json.loads(out)["inner_count"] == 3


def test_loop_aut_and_inner_compute_only_their_family(capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("computed a family the command does not print")

    argv = ("--field", "2^2", "--f", "t^2 - g^1", "--format", "json")
    with monkeypatch.context() as mp:
        mp.setattr(cli.ag, "inner_automorphisms", unused)
        assert run(capsys, "loop", "aut", *argv)[0] == cli.EXIT_OK
    with monkeypatch.context() as mp:
        mp.setattr(cli.ag, "solve_aut_conditions", unused)
        assert run(capsys, "loop", "inner", *argv)[0] == cli.EXIT_OK


@pytest.mark.parametrize("argv,flag", [
    (("field", "info", "--field", "2^2"), "--seed"),
    (("semifield", "analyze", "--field", "2^2", "--f", "t^2 - g^1"), "--cap-degree"),
    (("loop", "aut", "--field", "2^2", "--f", "t^2 - g^1"), "--seed"),
    (("loop", "inner", "--field", "2^2", "--f", "t^2 - g^1"), "--cap-degree"),
    (("loop", "cyclic", "--field", "2^2", "--f", "t^2 - g^1"), "--seed"),
    (("loop", "mlt", "--field", "2^2", "--f", "t^2 - g^1"), "--seed"),
])
def test_flags_only_where_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as e:
        cli.main([*argv, flag, "1"])
    assert e.value.code == 2
    capsys.readouterr()


def test_loop_latin_writes_file(capsys, tmp_path):
    out_path = tmp_path / "sq.csv"
    rc, out, _ = run(capsys, "loop", "latin", "--field", "2^2",
                     "--f", "t^2 - g^1", "--out", str(out_path))
    assert rc == cli.EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    # header (N), legend row, then the 15 table rows
    assert lines[0] == "N,15"
    assert len(lines) == 17


def test_loop_lagrange_keys_match_library(capsys):
    from skewloop import gf, loops as lp, semifield as sfd

    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    for text, f in (("t^2 - g^1", (K.neg(K.p), 0, 1)), ("t^2 + t + 1", (1, 1, 1))):
        rc, out, _ = run(capsys, "loop", "lagrange", "--field", "2^2",
                         "--f", text, "--format", "json")
        assert rc == cli.EXIT_OK
        data = json.loads(out)
        orders, weak, strong = lp.subloops_and_lagrange(
            lp.build_loop(sfd.build_semifield(tw, f)))
        assert (data["subloop_orders"], data["weak_lagrange"],
                data["strong_lagrange"]) == (orders, weak, strong)


def test_census_count_and_bounds(capsys):
    rc, out, _ = run(capsys, "census", "count", "--q", "3", "--m", "2",
                     "--format", "json")
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert data["N"] == 3 and data["M"] == 2
    rc, out, _ = run(capsys, "census", "bounds", "--q", "5", "--n", "2",
                     "--m", "2", "--format", "json")
    assert rc == cli.EXIT_OK


def test_census_classify(capsys):
    rc, out, _ = run(capsys, "census", "classify", "--field", "3^2",
                     "--format", "json")
    assert rc == cli.EXIT_OK
    assert json.loads(out)["classes"] == 2


def test_json_byte_determinism(capsys):
    argv = ("loop", "mlt", "--field", "3^2", "--f", "t^2 - g^1",
            "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_exit_usage_on_bad_field(capsys):
    rc, _, err = run(capsys, "field", "info", "--field", "6^1")
    assert rc == cli.EXIT_USAGE
    assert "usage error" in err


def test_exit_usage_on_reducible_f(capsys):
    rc, _, err = run(capsys, "semifield", "analyze", "--field", "2^2",
                     "--f", "t^2 + t")
    assert rc == cli.EXIT_USAGE


def test_exit_cap_with_sandwich(capsys):
    rc, _, err = run(capsys, "loop", "mlt", "--field", "2^2",
                     "--f", "t^2 - g^1", "--cap-degree", "10")
    assert rc == cli.EXIT_CAP
    assert "SL/GL sandwich" in err
    assert "20160" in err  # both bounds collapse to |GL(4,2)|
    assert "900 bytes per level" in err  # one 15 x 15 int32 table


def test_verify_tier1_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--tier", "1")
    assert rc == cli.EXIT_OK
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].startswith("6/6 passed")


def test_verify_tier2_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--tier", "2")
    assert rc == cli.EXIT_OK
    assert "FAIL" not in out
    assert "|Mlt| = |GL(4,3)| = 24261120" in out
    assert "|Mlt| = |GL(4,5)| = 116064000000" in out
    assert "F_9 m=2: N(q,m) reduced-norm classes" in out
    assert "F_4 m=3: N(q,m) reduced-norm classes" in out
    assert out.strip().splitlines()[-1].startswith("26/26 passed")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["loop", "nonsense", "--field", "2^2", "--f", "t"])
    assert e.value.code == 2
    capsys.readouterr()
