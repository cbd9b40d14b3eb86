"""Command-line surface: output formats and exit codes."""

import json

import pytest

from hgdensity.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_plain(capsys):
    code, out, _ = run(capsys, "density", "4/47", "18/47", "46/47")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(capsys, "density", "2/3", "2/3", "1/3")
    assert code == 0 and out.strip() == "0"


def test_density_json_round_trip(capsys):
    code, out, _ = run(capsys, "density", "1/3", "1/3", "2/3", "--json")
    assert code == 0
    assert json.loads(out) == {
        "a": "1/3",
        "b": "1/3",
        "c": "2/3",
        "m": 3,
        "B": [1],
        "phi": 2,
        "density": "1/2",
    }


def test_residues(capsys):
    code, out, _ = run(capsys, "residues", "4/47", "18/47", "46/47")
    data = json.loads(out)
    assert code == 0 and data["m"] == 47 and len(data["residues"]) == 23


def test_digits_default_and_full(capsys):
    code, out, _ = run(capsys, "digits", "8/11", "13")
    data = json.loads(out)
    assert code == 0
    assert data["digits"] == [8, 10, 11, 5, 9]
    assert data["normalized"] == ["0.6154", "0.7692", "0.8462", "0.3846", "0.6923"]
    assert data["limits"] == ["7/11", "9/11", "10/11", "5/11", "8/11"]
    assert data["period"] == 10
    code, out, _ = run(capsys, "digits", "8/11", "13", "--full-period")
    data = json.loads(out)
    assert data["digits"] == [8, 10, 11, 5, 9, 4, 2, 1, 7, 3]
    assert data["reconstructs"] is True


def test_bounded_with_empirical(capsys):
    code, out, _ = run(capsys, "bounded", "2/3", "2/3", "1/3", "5", "--empirical", "700")
    data = json.loads(out)
    assert code == 0
    assert data["digit"] == "UNBOUNDED" and data["witness"] == 1
    assert data["empirical"] == "UNBOUNDED" and data["empirical_witness"] == [260, -2]


def test_quad_subcommands(capsys):
    code, out, _ = run(capsys, "quad", "wset", "2", "11")
    assert code == 0 and json.loads(out) == [9]
    code, out, _ = run(capsys, "quad", "class-number", "23")
    assert json.loads(out) == {"p": 23, "h": 3}
    code, out, _ = run(capsys, "quad", "nonresidue", "47")
    assert out.strip() == "5"
    code, out, _ = run(capsys, "quad", "intersect", "2", "6", "11")
    assert json.loads(out) == {"nonempty": False, "witness": None}
    code, out, _ = run(capsys, "quad", "interval-sum", "1", "11")
    assert json.loads(out) == {"sum": -3, "h": 1}
    code, out, _ = run(capsys, "quad", "uset", "2", "11")
    assert json.loads(out) == [6, 7, 8, 9, 10]


def test_special(capsys):
    code, out, _ = run(capsys, "special", "47", "--max-density")
    data = json.loads(out)
    assert code == 0
    assert data["q"] == 23 and data["r"] == 1
    assert {"shape": "HALF(0)", "density": "1/2"} in data["shapes"]
    assert data["max_density"] == "12/23"


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "3")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "density,count"
    assert sum(int(x.split(",")[1]) for x in lines[1:]) == 12
    code, out, _ = run(capsys, "sweep", "3", "--drop-zero")
    assert sum(int(x.split(",")[1]) for x in out.strip().splitlines()[1:]) == 7


def test_sweep_beta_and_dry_run(capsys):
    code, out, _ = run(capsys, "sweep", "3", "--beta", "0")
    assert code == 0 and out.strip().splitlines()[1] == "0/1,3,1/3"
    code, out, _ = run(capsys, "sweep", "8", "--dry-run", "--stride", "50")
    data = json.loads(out)
    assert code == 0 and data["completed"] is True


def test_dry_run_zero_stride_is_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "8", "--dry-run", "--stride", "0")
    assert code == 2 and out == ""
    assert err.startswith("invalid arguments:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_output_file(capsys, tmp_path):
    target = tmp_path / "hist.csv"
    code, _, _ = run(capsys, "sweep", "3", "--out", str(target))
    assert code == 0
    assert target.read_text().splitlines()[0] == "density,count"


def test_exit_code_hypothesis_violation(capsys):
    # prime not exceeding the modulus
    code, _, err = run(capsys, "bounded", "1/3", "1/3", "2/3", "3")
    assert code == 1 and "hypothesis" in err
    # integral parameter difference
    code, _, err = run(capsys, "density", "1/2", "1/2", "1/2")
    assert code == 1
    # sweeps above the gate need an explicit flag
    code, _, err = run(capsys, "sweep", "32")
    assert code == 1 and "force-large" in err


def test_exit_code_usage_error(capsys):
    code, _, err = run(capsys, "quad", "class-number", "13")
    assert code == 2 or code == 1  # 13 = 1 mod 4: invalid argument
    code, _, err = run(capsys, "digits", "3/2", "13")
    assert code in (1, 2)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["digits", "8/11", "0"], 2),
        (["digits", "8/11", "4"], 1),
        (["bounded", "1/3", "1/3", "2/3", "25"], 1),
        (["bounded", "1/3", "1/3", "2/3", "7", "--empirical", "0"], 2),
    ],
)
def test_invalid_prime_or_horizon_exit_codes(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_malformed_fraction_is_usage_error(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["density", "x/y", "1/3", "2/3"])
    assert exc.value.code == 2
    capsys.readouterr()
