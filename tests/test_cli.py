import numpy as np
import pytest

from lattrans import cli

from conftest import BCC, FCC


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_builtin_names():
    assert np.allclose(cli.parse_lattice("fcc"), FCC)
    assert np.allclose(cli.parse_lattice("bcc"), BCC)
    assert np.allclose(cli.parse_lattice("bcc:1.1"), 1.1 * BCC)
    assert np.allclose(cli.parse_lattice("bct:1.0:1.0"), BCC)


def test_parse_nine_reals_row_major():
    got = cli.parse_lattice("0 .5 .5, .5 0 .5, .5 .5 0")
    assert np.allclose(got, FCC)


def test_parse_triclinic_with_centring():
    got = cli.parse_lattice("1,1,1,90,90,90,F")
    assert np.allclose(got, FCC)


def test_parse_errors():
    with pytest.raises(cli.InputError):
        cli.parse_lattice("1 2 3 4")
    with pytest.raises(cli.InputError):
        cli.parse_lattice("bct:1.0")
    with pytest.raises(cli.InputError):
        cli.parse_lattice("fcc:9")


def test_left_handed_basis_refused_then_fixed():
    # a column swap of the fcc cell is left-handed: refuse without the flag
    basis = FCC[:, [1, 0, 2]]
    text = " ".join(str(v) for v in basis.ravel())
    with pytest.raises(cli.InputError):
        cli.parse_lattice(text)
    fixed = cli.parse_lattice(text, fix_handedness=True)
    assert np.allclose(fixed, FCC)


def test_solve_human_bain(capsys):
    code, out, err = run(["solve", "fcc", "bcc", "--r", "1"], capsys)
    assert code == 0
    assert "72 optimal correspondence(s) in 3 equivalence class(es)" in out
    assert "m_min = 0.269357345" in out


def test_solve_structured_deterministic_across_threads(capsys):
    # the search runs on the calling thread; two runs print the same bytes
    argv = ["solve", "fcc", "bcc", "--r", "1", "--format", "structured"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert '"minimizer_count": 72' in out1


def test_solve_structured_roundtrip(capsys):
    code, out, _ = run(
        ["solve", "fcc", "bcc", "--r", "1", "--format", "structured"],
        capsys,
    )
    assert code == 0
    import json

    doc = json.loads(out)
    parent = ", ".join(str(v) for row in doc["parent_basis"] for v in row)
    product = ", ".join(str(v) for row in doc["product_basis"] for v in row)
    code2, out2, _ = run(
        ["solve", parent, product, "--r", "1", "--format", "structured"],
        capsys,
    )
    assert code2 == 0
    assert out2 == out


def test_solve_triclinic_terephthalic(capsys):
    code, out, _ = run(
        [
            "solve",
            "7.730,6.443,3.749,92.75,109.15,95.95",
            "7.452,6.856,5.020,116.6,119.2,96.5",
            "--r",
            "2",
        ],
        capsys,
    )
    assert code == 0
    assert "m_min = 1.035" in out
    assert "searched k = 3" in out


def test_solve_identical_lattices(capsys):
    code, out, _ = run(["solve", "fcc", "fcc"], capsys)
    assert code == 0
    assert "m_min = 0.000000000" in out
    assert "[1 0 0; 0 1 0; 0 0 1]" in out


def test_solve_input_error_exit_code(capsys):
    code, _, err = run(["solve", "fcc", "1 2 3"], capsys)
    assert code == 2
    assert "error" in err


def test_solve_budget_exit_code(capsys):
    code, _, err = run(["solve", "fcc", "bcc", "--k", "9"], capsys)
    assert code == 3


def test_strict_tie_exit_code(monkeypatch, capsys):
    real_solve = cli.solve

    def tied(*args, **kwargs):
        report = real_solve(*args, **kwargs)
        report.tie_unresolved = True
        return report

    monkeypatch.setattr(cli, "solve", tied)
    code, _, _ = run(["solve", "fcc", "bcc", "--strict"], capsys)
    assert code == 4
    code, _, _ = run(["solve", "fcc", "bcc"], capsys)
    assert code == 0


def test_verify_commands(capsys):
    for name in ("bain-d1", "bain-d2", "bain-dm2"):
        code, out, _ = run(["verify", name], capsys)
        assert code == 0
        assert "ok" in out


def test_verify_terephthalic(capsys):
    code, out, _ = run(["verify", "terephthalic"], capsys)
    assert code == 0
    assert "terephthalic: ok" in out


def test_region_default_ranges_coarse_is_fast(tmp_path, capsys):
    import time

    start = time.perf_counter()
    code, _, _ = run(["region", "--step", "0.05", "--out", str(tmp_path / "r.csv")], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 23 * 23


def test_verify_unknown_name(capsys):
    code, _, err = run(["verify", "nope"], capsys)
    assert code == 2
    assert "unknown" in err


def test_region_command(tmp_path, capsys):
    out_path = tmp_path / "region.csv"
    code, _, _ = run(
        [
            "region",
            "--a-min", "0.9", "--a-max", "1.1",
            "--c-min", "0.9", "--c-max", "1.1",
            "--step", "0.05",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("A,C,flag_d1_sl1")
    cells = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    assert cells[("1", "1")] == ["1"] * 6


def test_solve_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        ["solve", "fcc", "bcc", "--format", "structured",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    import json

    doc = json.loads(path.read_text())
    assert doc["minimizer_count"] == 72


def test_count_sl_human(capsys):
    code, out, _ = run(["count-sl", "--k", "1"], capsys)
    assert code == 0
    assert "|SL^1| = 3480" in out


def test_count_sl_naive_agrees(capsys):
    code, out_fast, _ = run(["count-sl", "--k", "2", "--format", "structured"], capsys)
    code2, out_naive, _ = run(
        ["count-sl", "--k", "2", "--naive", "--format", "structured"], capsys
    )
    assert code == code2 == 0
    import json

    assert json.loads(out_fast)["count"] == json.loads(out_naive)["count"] == 67704


def test_count_sl_budget(capsys):
    code, _, err = run(["count-sl", "--k", "9"], capsys)
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [["count-sl", "--k", "1"], ["solve", "fcc", "bcc"], ["verify", "bain-d1"]],
    ids=["count-sl", "solve", "verify"],
)
def test_threads_option_rejected(argv, capsys):
    # the search runs on the calling thread; no command takes a thread
    # option
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_structured_output_is_valid_json(capsys):
    import json

    code, out, _ = run(
        ["solve", "fcc", "bcc:0.9", "--r", "-2", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "lattrans.solve.v1"
    assert doc["bound"]["side"] == "inverse"
    assert doc["certified"] is True
