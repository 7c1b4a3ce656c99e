"""CLI exit codes, JSON determinism, verify tiers 1 and 2."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from skewloop import cli
from skewloop import permgroup as pg

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def test_skew_irreducible_negative_exponent(capsys):
    # g^-1 = g^7 in F_9: the "-" after "^" is no term sign
    outs = [run(capsys, "skew", "irreducible", "--field", "3^2", "--f", f, "--format", "json")
            for f in ("t^2 - g^-1", "t^2 - g^7")]
    assert outs[0][0] == cli.EXIT_OK and outs[0] == outs[1]


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
    (("loop", "mlt", "--field", "2^2", "--f", "t^2 - g^1"), "--cap-degree"),
    (("loop", "aut", "--field", "2^2", "--f", "t^2 - g^1"), "--seed"),
    (("loop", "latin", "--field", "2^2", "--f", "t^2 - g^1", "--out", "sq.csv"), "--cap-degree"),
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
    # above the enumeration's 2^16: M by the Burnside sum, here M(2,64) = N(2,64)
    rc, out, _ = run(capsys, "census", "count", "--q", "2", "--m", "64", "--format", "json")
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert data["N"] == data["M"] == 288230376084602880
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
    # 6560 points over F_81/F_3 with m = 2, above DEGREE_CAP: the cap is
    # checked before any table is built
    rc, out, err = run(capsys, "loop", "mlt", "--field", "3^4", "--f", "t^2 - g^1")
    assert rc == cli.EXIT_CAP
    assert out == "" and "loop degree 6560 exceeds cap 5000" in err
    assert f"SL/GL sandwich: {pg.sl_order(8, 3)} <= |Mlt| <= {pg.gl_order(8, 3)}" in err
    assert "172134400 bytes per level" in err  # one 6560 x 6560 int32 table


def test_exit_cap_on_field_beyond_log_tables(capsys):
    rc, out, err = run(capsys, "field", "info", "--field", "2^21")
    assert rc == cli.EXIT_CAP
    assert out == "" and err.startswith("cap violation:")


def test_exit_cap_on_nucleus_beyond_log_tables(capsys):
    # |S| = 2^48 over F_(2^16)/F_(2^8) with m = 3: Nuc_r has 2^24 elements,
    # refused before they are listed
    rc, out, err = run(capsys, "semifield", "analyze", "--field", "2^16", "--sigma-r", "8",
                       "--f", "t^3 + g^1")
    assert rc == cli.EXIT_CAP
    assert out == "" and err.startswith("cap violation: a nucleus of order 2^24 = 16777216")
    assert "3221225472 bytes" in err                     # 2^24 x 24 int64


def test_exit_cap_before_identifying_513_automorphisms(capsys):
    # 513 maps H_(tau,k) on F_(2^18) over F_(2^9): the maps are printed, and
    # their Cayley table is refused before any product is formed
    rc, out, err = run(capsys, "loop", "aut", "--field", "2^18", "--sigma-r", "9",
                       "--f", "t^2 - g^1", "--format", "json")
    assert rc == cli.EXIT_CAP
    data = json.loads(out)
    assert sorted(data) == ["hk_count", "hk_parameters"]
    assert data["hk_count"] == len(data["hk_parameters"]) == 513
    assert err.startswith("cap violation:") and "513 maps" in err


def test_exit_invariant_names_the_class_bound_instance(capsys):
    # F_81/F_3 with m = 4: a -> -sigma^2(a) fixes the 8 elements of order 16,
    # so by Burnside the 72 admissible a form (72 + 8)/8 = 10 classes, above
    # numb_bound(3, 4) = 9; the message names that map and the sum
    rc, out, err = run(capsys, "census", "classify", "--field", "3^4")
    assert rc == cli.EXIT_INVARIANT
    assert out == "" and err == (
        "internal invariant failure: F_81/F_3: 10 classes exceed numb_bound(3, 4) = 9; "
        "x ↦ −σ²(x) fixes 8 admissible a: (72 + 8)/8 = 10\n")


def test_exit_usage_on_division_by_zero_poly(capsys):
    rc, out, err = run(capsys, "skew", "divmod", "--field", "2^2", "--f", "0", "--g", "t")
    assert rc == cli.EXIT_USAGE
    assert out == "" and err == "usage error: right division by the zero polynomial\n"


def test_exit_usage_on_sigma_r_zero(capsys):
    rc, out, err = run(capsys, "field", "info", "--field", "2^2", "--sigma-r", "0")
    assert rc == cli.EXIT_USAGE
    assert out == "" and "--sigma-r must be at least 1" in err


@pytest.mark.parametrize("n,m", [(2, 1100), (600, 2)])
def test_exit_cap_on_bounds_beyond_float_range(capsys, n, m):
    # q^m = 2^1100 overflows the float sandwich_low, q^(nm) = 2^1200 the
    # kantor_bound; the message names the bound, the input and its limit
    rc, out, err = run(capsys, "census", "bounds", "--q", "2", "--n", str(n), "--m", str(m))
    assert rc == cli.EXIT_CAP
    assert out == "" and err.startswith("cap violation:")
    if m > n:
        assert "sandwich_low" in err and "q^m = 2^1100" in err and "below 2^1024" in err
    else:
        assert "kantor_bound" in err and "q^(nm) = 2^1200" in err and "below about 2^1019" in err


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


def test_import_loads_no_sympy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, skewloop, skewloop.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True, timeout=120).stdout
    assert out == b"False\n"


def test_verify_tier2_passes_without_sympy(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)       # any import of it fails
    rc, out, _ = run(capsys, "verify", "--tier", "2")
    assert rc == cli.EXIT_OK
    assert out.strip().splitlines()[-1].startswith("26/26 passed")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["loop", "nonsense", "--field", "2^2", "--f", "t"])
    assert e.value.code == 2
    capsys.readouterr()
