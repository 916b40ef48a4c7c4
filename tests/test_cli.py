import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattrans import applications, cli, optimizer
from lattrans.lattice import triclinic_to_primitive

from conftest import BCC, FCC, naive_array


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


def _sheared_terephthalic_ii():
    shear = np.eye(3)
    shear[1, 2] = 1.0
    product = triclinic_to_primitive(applications.TEREPHTHALIC_II) @ shear
    return " ".join(repr(float(v)) for v in product.ravel())


@pytest.mark.parametrize("parent, product, r", [
    ("fcc", "bcc", "1"),
    # Terephthalic I -> II (I + e2 e3^T) at r = -2 takes four threshold passes
    ("7.730,6.443,3.749,92.75,109.15,95.95", _sheared_terephthalic_ii(), "-2"),
], ids=["fcc-bcc", "terephthalic-sheared"])
def test_evaluating_every_block_alone_keeps_the_document(parent, product, r, capsys,
                                                          monkeypatch):
    argv = ["solve", parent, product, "--r", r, "--format", "structured"]
    code, batched, _ = run(argv, capsys)
    monkeypatch.setattr(optimizer, "_ROWS", 1)  # flush after every det-1 block
    code_flushed, flushed, _ = run(argv, capsys)
    assert code == code_flushed == 0
    assert flushed == batched


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


def test_solve_sheared_terephthalic_parent_maps_back(capsys):
    # F' = F (I + 2 e1 e2^T) needs radius 15 in the typed basis; the search
    # runs on the reduced bases and reports mu' = mu_min U in the typed one
    import json

    from lattrans import applications
    from lattrans.lattice import triclinic_to_primitive

    u = np.eye(3, dtype=np.int64)
    u[0, 1] = 2
    parent = triclinic_to_primitive(applications.TEREPHTHALIC_I) @ u
    code, out, _ = run(
        ["solve", " ".join(repr(float(v)) for v in parent.ravel()),
         "7.452,6.856,5.020,116.6,119.2,96.5", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] and doc["minimizer_count"] == 1
    mu = np.array(doc["minimizers"][0]["mu"], dtype=np.int64)
    u_inv = np.rint(np.linalg.inv(u)).astype(np.int64)
    assert np.array_equal(mu @ u_inv, applications.TEREPHTHALIC_MU_MIN)


def test_solve_identical_lattices(capsys):
    code, out, _ = run(["solve", "fcc", "fcc"], capsys)
    assert code == 0
    assert "m_min = 0.000000000" in out
    assert "[1 0 0; 0 1 0; 0 0 1]" in out


def test_solve_input_error_exit_code(capsys):
    code, _, err = run(["solve", "fcc", "1 2 3"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["solve", "-1,0,0,0,-1,0,0,0,1", "fcc"],
    ["solve", "-1,0,0,0,-1,0,0,0,1", "fcc", "--r", "-2"],
    ["solve", "fcc", "-0.5,0.5,0.5,0.5,-0.5,0.5,0.5,0.5,-0.5", "--r=-2"],
])
def test_comma_joined_basis_with_leading_minus_is_a_lattice(argv, capsys):
    code, out, _ = run(argv, capsys)
    spaced = [a.replace(",", " ") for a in argv]
    assert code == 0
    assert run(spaced, capsys) == (0, out, "")


def test_solve_budget_exit_code(capsys):
    code, _, err = run(["solve", "fcc", "bcc", "--k", "9"], capsys)
    assert code == 3
    # a negative exponent in exponent notation is a value, not an option
    code, out, err = run(["solve", "fcc", "bcc", "--r", "-1e5"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for r in ("-inf", "-Infinity", "-INF", "-nan", "-NaN"):
        code, out, err = run(["solve", "fcc", "bcc", "--r", r], capsys)
        assert (code, out) == (2, ""), r
        assert err.startswith("error: ") and "nonzero finite real" in err, err
        assert err.count("\n") == 1, err


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


def test_region_negative_iterations_exits_2(capsys):
    code, out, err = run(["region", "--a-min", "1", "--a-max", "1.005", "--c-min", "1",
                          "--c-max", "1.005", "--iterations", "-1"], capsys)
    assert (code, out) == (2, "")
    assert "iterations must be a non-negative integer" in err


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


@pytest.mark.parametrize("argv", [
    ["solve", "fcc", "bcc", "--k", "1"],
    ["region", "--a-min", "1", "--a-max", "1", "--c-min", "1", "--c-max", "1"],
    ["count-sl", "--k", "1"],
])
def test_unwritable_out_is_an_input_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run([*argv, "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err and not path.exists()


def test_count_sl_human(capsys):
    code, out, _ = run(["count-sl", "--k", "1"], capsys)
    assert code == 0
    assert "|SL^1| = 3480" in out


def test_count_sl_naive_agrees(capsys):
    code, out_fast, _ = run(["count-sl", "--k", "2", "--format", "structured"], capsys)
    assert code == 0
    import json

    assert json.loads(out_fast)["count"] == naive_array(2).shape[0] == 67704


def test_count_sl_budget(capsys):
    code, _, err = run(["count-sl", "--k", "9"], capsys)
    assert code == 3


@pytest.mark.parametrize(
    "argv, option",
    [(["count-sl", "--k", "1"], ["--threads", "2"]), (["solve", "fcc", "bcc"], ["--threads", "2"]),
     (["verify", "bain-d1"], ["--threads", "2"]), (["solve", "fcc", "bcc"], ["--strict"]),
     (["count-sl", "--k", "1"], ["--naive"]), (["count-sl", "--k", "1"], ["--guard", "1"])],
    ids=["count-sl", "solve", "verify", "solve-strict", "count-sl-naive", "count-sl-guard"],
)
def test_threads_option_rejected(argv, option, capsys):
    # the search runs on the calling thread, so no command takes a thread
    # option; no search can report a tie, so solve takes no --strict; the
    # brute-force oracle and the counting guard are fixed, so count-sl
    # takes no --naive and no --guard
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + option)
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


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


def test_solve_fcc_bcc_negative_exponent_prints_the_closed_form(capsys):
    """fcc -> bcc at r = -2 prints m_min 0.655865033229 (earlier ...228).

    The Bain stretch has principal stretches 2**(1/6) (twice) and
    2**(-1/3), so m_min = sqrt((2**(2/3) - 1)**2 + 2 (2**(-1/3) - 1)**2)
    = 0.65586503322850014..., which rounds to ...229 at 12 digits.  The
    closed form is evaluated here in 40-digit decimals, without
    ``lattrans``.  The earlier digit came from eigenvalues of H^T H
    raised to the power -1; the search now evaluates the inverse problem
    at r = 2 as |K^T K - I|_F, which gives 0.6558650332285001.
    """
    import decimal
    import json

    with decimal.localcontext(decimal.Context(prec=40)):
        two = decimal.Decimal(2)
        a, b = two ** (decimal.Decimal(2) / 3), two ** (decimal.Decimal(-1) / 3)
        closed = ((a - 1) ** 2 + 2 * (b - 1) ** 2).sqrt()
    assert format(closed, ".12g") == "0.655865033229"
    assert str(closed).startswith("0.6558650332285001")
    code, out, _ = run(["solve", "fcc", "bcc", "--r", "-2", "--format", "structured"], capsys)
    assert code == 0
    assert json.loads(out)["m_min"] == 0.655865033229
    assert '"m_min": 0.655865033229,' in out
    argv = ["solve", "fcc", "bcc", "--r", "-2e0", "--format", "structured"]
    assert run(argv, capsys) == (0, out, "")


# Bad lattice tokens for the CLI fuzz below: each must exit 2 with one
# error line, no traceback and no warning (warnings are errors here).
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "-nan"])
_LENGTH = st.floats(0.5, 20.0).map(str)
_ANGLE = st.floats(60.0, 120.0).map(str)
_HUGE = st.floats(1e103, 1e308).map(str)


@st.composite
def _with_some(draw, fields, replacement):
    """``fields`` with a non-empty subset replaced by draws of ``replacement``."""
    fields = list(fields)
    picks = draw(st.sets(st.integers(0, len(fields) - 1), min_size=1))
    for i in picks:
        fields[i] = draw(replacement)
    return fields


@st.composite
def _non_finite_cells(draw):
    six = draw(st.tuples(_LENGTH, _LENGTH, _LENGTH, _ANGLE, _ANGLE, _ANGLE))
    fields = draw(_with_some(six, _NON_FINITE))
    return " ".join(fields + draw(st.sampled_from([[], ["P"], ["F"], ["i"]])))


@st.composite
def _non_finite_bases(draw):
    nine = [str(v) for v in (np.eye(3).ravel() + draw(
        st.lists(st.floats(-0.2, 0.2), min_size=9, max_size=9))).tolist()]
    # joined with "," alone, a first field such as "-inf" or "-0.1" must not
    # read as an option
    return draw(st.sampled_from([",", ", "])).join(draw(_with_some(nine, _NON_FINITE)))


@st.composite
def _degenerate_angles(draw):
    lengths = draw(st.tuples(_LENGTH, _LENGTH, _LENGTH))
    kind = draw(st.sampled_from(["edge", "one_too_wide", "sum_too_wide"]))
    if kind == "edge":
        angles = draw(_with_some(draw(st.tuples(_ANGLE, _ANGLE, _ANGLE)),
                                 st.sampled_from(["0", "180", "-90", "270", "0.0", "180.0"])))
    elif kind == "one_too_wide":
        # one angle wider than the other two together: the cell does not close
        x, y = draw(st.floats(1.0, 80.0)), draw(st.floats(1.0, 80.0))
        z = draw(st.floats(x + y + 1.0, 179.0))
        angles = [str(v) for v in draw(st.permutations([x, y, z]))]
    else:
        # three angles adding up to more than 360 degrees
        angles = [str(v) for v in draw(st.tuples(*[st.floats(121.0, 179.0)] * 3))]
    return " ".join(list(lengths) + list(angles))


@st.composite
def _bad_centring(draw):
    six = draw(st.tuples(_LENGTH, _LENGTH, _LENGTH, _ANGLE, _ANGLE, _ANGLE))
    letter = draw(st.text(alphabet="ABDEGHJKLMNOQRSTUVWXYZabdeghjklmnoqrstuvwxyz?*#",
                          min_size=1, max_size=3))
    return " ".join(list(six) + [letter])


@st.composite
def _bad_builtin(draw):
    bad = st.one_of(_NON_FINITE, st.floats(-10.0, 0.0).map(str))
    if draw(st.booleans()):
        return "bcc:" + draw(bad)
    fields = draw(_with_some([draw(_LENGTH), draw(_LENGTH)], bad))
    return "bct:" + ":".join(fields)


@st.composite
def _huge_cells(draw):
    kind = draw(st.sampled_from(["triclinic", "basis", "bcc", "bct"]))
    if kind == "triclinic":
        lengths = draw(_with_some(draw(st.tuples(_LENGTH, _LENGTH, _LENGTH)), _HUGE))
        return " ".join(lengths + [draw(_ANGLE) for _ in range(3)])
    if kind == "basis":
        return " ".join(draw(_with_some([str(v) for v in np.eye(3).ravel().tolist()], _HUGE)))
    if kind == "bcc":
        return "bcc:" + draw(_HUGE)
    return "bct:" + ":".join(draw(_with_some([draw(_LENGTH), draw(_LENGTH)], _HUGE)))


_BAD_LATTICES = st.one_of(_non_finite_cells(), _non_finite_bases(), _degenerate_angles(),
                          _bad_centring(), _bad_builtin(), _huge_cells())


def run_quiet(argv):
    """``run`` without the function-scoped capsys fixture, for @given tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(_BAD_LATTICES)
def test_bad_lattice_token_exits_2_with_one_error_line(token):
    code, out, err = run_quiet(["solve", token, "fcc"])
    assert code == 2, (token, err)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("token", ["bct:inf:1", "bct:1:nan", "bcc:inf"])
def test_non_finite_builtin_scale_is_an_input_error(token, capsys):
    code, _, err = run(["solve", token, "fcc"], capsys)
    assert code == 2
    assert "finite" in err


def test_overflowing_cell_is_an_input_error(capsys):
    code, _, err = run(["solve", "1e308 1e308 1e308 90 90 90", "fcc"], capsys)
    assert code == 2
    assert "overflows" in err
    assert "singular" not in err


def test_far_out_of_scale_cell_exceeds_the_budget_at_once(capsys):
    # the certified radius is about 5.5e50: the bound is computed, not
    # counted up to, and the search refuses it
    code, _, err = run(["solve", "1e50 1e50 1e50 90 90 90", "fcc"], capsys)
    assert code == 3
    assert "exceeds the practical guard" in err


_NAMES = ("--a-min", "--a-max", "--c-min", "--c-max", "--step")


@st.composite
def _region_grids(draw):
    """(argv, expected exit code): a grid of at most 7 x 7 cells, then maybe
    one range reversed or some values replaced by one the scan cannot use."""
    a, c = draw(st.floats(0.7, 1.5)), draw(st.floats(0.7, 1.5))
    values = [a, a + draw(st.floats(0.0, 0.3)), c, c + draw(st.floats(0.0, 0.3)),
              draw(st.floats(0.05, 0.3))]
    kind = draw(st.sampled_from(["valid", "reversed", "bad"]))
    if kind == "reversed":
        i = draw(st.sampled_from([0, 2]))
        values[i], values[i + 1] = values[i + 1] + 0.1, values[i]
    fields = [repr(v) for v in values]
    if kind == "bad":
        fields = draw(_with_some(fields, st.sampled_from(["nan", "inf", "-inf", "0", "-1",
                                                          "-0.05"])))
    return [f"{name}={v}" for name, v in zip(_NAMES, fields)], 0 if kind == "valid" else 2


@settings(max_examples=60, deadline=None)
@given(_region_grids())
def test_region_refuses_a_grid_it_cannot_scan_in_one_line(case):
    argv, expected = case
    code, out, err = run_quiet(["region", *argv])
    assert code == expected, (argv, err)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "" and out.startswith("A,C,") and out.count("\n") > 1


_TEREPHTHALIC = ("7.730,6.443,3.749,92.75,109.15,95.95", "7.452,6.856,5.020,116.6,119.2,96.5")


@settings(max_examples=40, deadline=None)
@given(r=st.one_of(st.floats(0.5, 3.0), st.floats(-3.0, -0.5),
                   st.sampled_from([400.0, -400.0, 1500.0, 1e5, -1e5, 1e300, -1e300]),
                   st.sampled_from(["nan", "inf", "-inf", "0", "-0"])),
       cells=st.sampled_from([("fcc", "bcc"), _TEREPHTHALIC]))
def test_solve_at_any_exponent_exits_without_a_traceback(r, cells):
    code, out, err = run_quiet(["solve", *cells, f"--r={r}", "--format", "structured"])
    assert code in (0, 2, 3), (r, err)
    assert err.count("\n") <= 1, err
    if code == 0:
        assert '"m_min": ' in out and err == ""
    else:
        assert out == "" and err.startswith("error: ")
