"""Command-line surface: output formats and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgdensity.cli import main


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
QUERIES = os.path.join(os.path.dirname(README), "perfbench", "refs", "queries.json")


def _readme_examples():
    """(argv, comment) for each `hgdensity ...` line of README "CLI examples"."""
    with open(README) as f:
        block = f.read().split("## CLI examples")[1].split("```sh\n")[1].split("```")[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        assert words[0] == "hgdensity", line
        yield words[1:], comment.strip()


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
    code, out, _ = run(capsys, "dry-run", "8", "--stride", "50")
    data = json.loads(out)
    assert code == 0 and data["completed"] is True


def test_dry_run_zero_stride_is_usage_error(capsys):
    code, out, err = run(capsys, "dry-run", "8", "--stride", "0")
    assert code == 2 and out == ""
    assert err.startswith("invalid arguments:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("state", ['{"N": 8, "stride": 100}', "[1, 2]"])
def test_dry_run_malformed_checkpoint_is_usage_error(capsys, tmp_path, state):
    ck = tmp_path / "ck.json"
    ck.write_text(state)
    code, out, err = run(capsys, "dry-run", "8", "--checkpoint", str(ck))
    assert code == 2 and out == ""
    assert err.startswith("invalid arguments:") and err.count("\n") == 1
    assert "Traceback" not in err and "ck.json" in err


@pytest.mark.parametrize("argv, ignored", [
    (["sweep", "5", "--checkpoint", "ck.json"], "--checkpoint"),
    (["sweep", "5", "--stride", "7"], "--stride"),
    (["sweep", "4", "--beta", "0", "--drop-zero"], "--drop-zero"),
    # sweep has no --dry-run: the dry run is its own command
    (["sweep", "4", "--dry-run", "--out", "o.csv"], "--dry-run"),
    (["sweep", "4", "--dry-run", "--workers", "2"], "--dry-run"),
    (["sweep", "4", "--dry-run", "--beta", "0"], "--dry-run"),
    (["sweep", "4", "--dry-run", "--drop-zero"], "--dry-run"),
    (["sweep", "4", "--dry-run", "--force-large"], "--dry-run"),
    (["dry-run", "4", "--out", "o.csv"], "--out"),
    (["dry-run", "4", "--workers", "2"], "--workers"),
    (["dry-run", "4", "--beta", "0"], "--beta"),
    (["dry-run", "4", "--drop-zero"], "--drop-zero"),
    (["dry-run", "4", "--force-large"], "--force-large"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_sweep_options_the_mode_ignores_are_usage_errors(capsys, tmp_path, monkeypatch,
                                                         argv, ignored):
    # a full sweep takes no --stride or --checkpoint, --beta no --drop-zero,
    # and a dry run only those two: each combination that once ran and
    # dropped an option is refused by argparse before any checkpoint or
    # output file is written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    last = err.splitlines()[-1]
    assert ": error: " in last and ignored in last and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    # the least strong pseudoprime to the prime bases 2..37, a composite
    (["bounded", "1/2", "1/3", "1/5", "318665857834031151167461"], 1),
    (["digits", "1/3", "318665857834031151167461"], 1),
    # at the least strong pseudoprime to the first 13 prime bases, primality
    # is no longer decided
    (["bounded", "1/2", "1/3", "1/5", "3317044064679887385961981"], 2),
    (["digits", "1/3", "3317044064679887385961981"], 2),
])
def test_primes_past_the_deterministic_range(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.count("\n") == 1 and ("not prime" if code == 1 else "too large") in err


def test_sweep_workers_print_the_same_csv(capsys, monkeypatch):
    from hgdensity import survey

    pools = []

    def spy(processes):
        pools.append(processes)
        return real_pool(processes)

    real_pool = survey.Pool
    monkeypatch.setattr(survey, "Pool", spy)
    # the pool is capped at the CPUs this process may use: allow two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    csv = {}
    try:
        for workers in ("1", "2"):
            survey._COUNT_CACHE.clear()
            code, csv[workers], _ = run(capsys, "sweep", "8", "--workers", workers)
            assert code == 0
    finally:
        survey._COUNT_CACHE.clear()
    assert pools == [2]  # the second sweep ran on a pool, not from the cache
    assert csv["2"] == csv["1"] and csv["1"].startswith("density,count")
    with pytest.raises(SystemExit) as exc:  # renamed, with no alias
        main(["sweep", "8", "--threads", "2"])
    assert exc.value.code == 2


def test_sweep_output_file(capsys, tmp_path):
    target = tmp_path / "hist.csv"
    code, _, _ = run(capsys, "sweep", "3", "--out", str(target))
    assert code == 0
    assert target.read_text().splitlines()[0] == "density,count"


def test_a_refused_sweep_leaves_its_output_file_alone(capsys, tmp_path):
    # --out was once opened, and so truncated, before the height, --beta
    # and --workers were checked
    target = tmp_path / "hist.csv"
    target.write_bytes(b"kept\n")
    for argv in (["sweep", "2"], ["sweep", "12", "--beta", "3/2"],
                 ["sweep", "12", "--workers", "0"]):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == "" and err.startswith("invalid arguments"), argv
        assert target.read_bytes() == b"kept\n", argv
    code, out, _ = run(capsys, "sweep", "12", "--out", str(target))
    assert code == 0 and out == ""
    want = "0891829e656518d4f10f226319fd1cafc01047ba5b531d6ed2a308ef875bc1cb"
    assert hashlib.sha256(target.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("argv", [
    ["sweep", "3", "--out", "{missing}/x.csv"],
    ["dry-run", "8", "--checkpoint", "{missing}/ck.json"],
])
def test_unwritable_output_path_is_usage_error(capsys, tmp_path, argv):
    missing = tmp_path / "no-such-directory"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err and "no-such-directory" in err


def test_a_bad_output_path_fails_before_the_sweep(capsys, tmp_path, monkeypatch):
    # the sweep at height 20 takes seconds; a missing directory must not wait for it
    from hgdensity import survey

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was opened")

    monkeypatch.setattr(survey, "density_histogram", no_sweep)
    monkeypatch.setattr(survey, "beta", no_sweep)
    missing = tmp_path / "no-such-directory" / "x.csv"
    for argv in (["sweep", "20"], ["sweep", "20", "--beta", "1/2"]):
        code, out, err = run(capsys, *argv, "--out", str(missing))
        assert code == 2 and out == "" and "no-such-directory" in err, argv


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


def test_force_large_gate_sits_at_the_first_height_past_a_minute(capsys, monkeypatch):
    # one serial sweep took 57.9 CPU s at height 28 and 124 s at 29
    from hgdensity import survey

    monkeypatch.setattr(survey, "density_histogram",
                        lambda N, workers, drop_zero: survey.Histogram({}, 0))
    code, out, err = run(capsys, "sweep", "29")
    assert code == 1 and out == "" and "above height 28" in err and "force-large" in err
    for argv in (["sweep", "28"], ["sweep", "29", "--force-large"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "density,count\r\n"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "above height 28" in " ".join(capsys.readouterr().out.split())


def test_sweep_and_dry_run_print_the_library_bytes(capsys, tmp_path):
    from dataclasses import asdict

    from hgdensity import survey

    want = "0891829e656518d4f10f226319fd1cafc01047ba5b531d6ed2a308ef875bc1cb"
    target = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "sweep", "12")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want
    code, out, _ = run(capsys, "sweep", "12", "--out", str(target))
    assert code == 0 and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == want
    code, out, _ = run(capsys, "sweep", "12", "--beta", "1/10")
    assert code == 0 and out.startswith("epsilon,N,beta\r\n1/10,12,") and out.endswith("\r\n")
    code, out, err = run(capsys, "dry-run", "64", "--stride", "100")
    assert code == 0 and json.loads(out) == asdict(survey.slice_dry_run(64, stride=100))
    assert err.startswith("\rsweep: ") and err.endswith("(100.0%)\n")


def test_modulus_beyond_int64_is_usage_error(capsys):
    big = "/3037000501"  # (m - 1)^2 > 2^63 - 1, far above the table limit
    for cmd in ("density", "residues"):
        code, out, err = run(capsys, cmd, "1" + big, "2" + big, "3" + big)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "too large" in err


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
        (["quad", "uset", "0", "0"], 2),
        (["quad", "intersect", "2", "3", "0"], 2),
        (["quad", "uset", "2", "9"], 1),
        (["quad", "wset", "2", "-7"], 2),
        (["quad", "class-number", "0"], 2),
        (["quad", "nonresidue", "-5"], 2),
        (["quad", "interval-sum", "2", "0"], 2),
        (["quad", "class-number", "15"], 1),
        (["quad", "nonresidue", "2"], 1),
    ],
)
def test_invalid_prime_or_horizon_exit_codes(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounded", "1/3", "1/3", "2/3", "7", "--empirical", "1000000000000000"],
        ["quad", "class-number", "1000000000039"],
        ["quad", "wset", "5", "1000000000039"],
        ["density", "1/997", "1/991", "1/983"],
        ["special", "39367", "--max-density"],  # 2 * 3^9 + 1
        # a period of about 2 * 10^16 digits
        ["bounded", "1/1000003", "1/1000033", "1/1000037", "1000073001431003777"],
        # trial division of a modulus near 10^18 or of (p - 1) / 2 near 10^17
        ["digits", "1/1000000000000000003", "5"],
        ["bounded", "1/1000000000000000003", "1/3", "1/2", "6000000000000000023"],
        ["special", "200000000000000363"],  # 2q + 1, q prime
    ],
)
def test_huge_inputs_are_refused_before_allocating(capsys, argv):
    # each would build arrays of gigabytes or more, or factor a huge number
    # by trial division; refused with one line
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "too large" in err
    if argv[0] in ("digits", "bounded") and "--empirical" not in argv:
        # the digit paths are refused by mod_order, which builds no table
        assert "phi(m), which is factored by trial division" in err
        assert "residue tables" not in err
    if argv == ["special", "200000000000000363"]:
        # recognizing 2q + 1 factors (p - 1)/2; no table is built
        assert "(p - 1)/2 is factored by trial division" in err
        assert "residue tables" not in err
    if argv == ["special", "39367", "--max-density"]:
        assert "(p - 1)^2" in err  # the sweep's residue table, the bytes of (p - 1)^2 bools
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("argv, comment",
                         [pytest.param(a, c, id=" ".join(a)) for a, c in _readme_examples()])
def test_readme_cli_examples(capsys, tmp_path, monkeypatch, argv, comment):
    # every example exits 0, and the output its comment gives is the output;
    # files it writes (hist.csv, ck.json) land in tmp_path
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if comment.startswith("->"):
        assert out.strip() == comment[2:].strip()
    elif comment.startswith(("{", "[")):
        assert json.loads(out) == json.loads(comment)


def test_readme_lists_the_cli_examples():
    examples = list(_readme_examples())
    assert len(examples) == 11
    assert sum(c.startswith(("->", "{", "[")) for _, c in examples) == 3


def test_malformed_fraction_is_usage_error(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["density", "x/y", "1/3", "2/3"])
    assert exc.value.code == 2
    capsys.readouterr()


def _argv(*parts):
    """argv lists from words, strategies for one word and strategies for lists."""
    drawn = st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts))
    return drawn.map(
        lambda ws: [x for w in ws for x in ([w] if isinstance(w, str) else w)]
    )


def _option(*parts):
    """Nothing, or the words that _argv(*parts) draws."""
    return st.one_of(st.just([]), _argv(*parts))


_FRAC = st.builds("{}/{}".format, st.integers(-2, 120), st.integers(0, 60))
_INT = st.integers(-5, 300).map(str)
_ARGV = st.one_of(
    _argv("density", _FRAC, _FRAC, _FRAC, _option("--json")),
    _argv("residues", _FRAC, _FRAC, _FRAC),
    _argv("digits", _FRAC, _INT, _option("--full-period")),
    _argv("bounded", _FRAC, _FRAC, _FRAC, _INT, _option("--empirical", _INT)),
    _argv("quad", st.sampled_from(["class-number", "nonresidue"]), _INT),
    _argv("quad", st.sampled_from(["uset", "wset", "interval-sum"]), _INT, _INT),
    _argv("quad", "intersect", _INT, _INT, _INT),
    _argv("special", st.integers(-5, 299).map(str), _option("--max-density")),
    _argv("dry-run", st.integers(-2, 12).map(str),
          _option("--stride", st.integers(-3, 500).map(str))),
)


_FUZZ_SECONDS = 30  # the slowest example, special at p < 300, takes under 1 s


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_ARGV)
@example(["special", "19", "--max-density"])
@example(["quad", "uset", "0", "0"])
@example(["quad", "intersect", "2", "3", "0"])
def test_cli_fuzz_exits_cleanly(deadline, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        # a hang fails with its argv
        with deadline(_FUZZ_SECONDS, argv), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse: usage line(s), then one error line
        assert e.code == 2, argv
        lines = err.getvalue().splitlines()
        assert lines and ": error: " in lines[-1], argv
        assert "Traceback" not in err.getvalue()
        return
    assert code in (0, 1, 2), argv
    if code:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""


def test_benchmark_query_pool_replays_byte_for_byte():
    # each row: stratum, size, argv, exit code, first 16 hex digits of the
    # stdout sha256; every stored query must still print exactly that
    with open(QUERIES) as f:
        pool = json.load(f)["full"]["pool"]
    assert len(pool) == 3000
    mismatches = []
    for _, _, argv, want_code, want_digest in pool:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv.split())
            except SystemExit as e:  # argparse usage errors
                code = e.code if isinstance(e.code, int) else 2
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        if (code, got) != (want_code, want_digest):
            mismatches.append((argv, code, want_code))
    assert not mismatches, f"{len(mismatches)} of {len(pool)}, e.g. {mismatches[:5]}"


def test_python_dash_m_runs_the_cli(capsys):
    # without an install, python -m hgdensity is the way to the command line
    import hgdensity

    argv = ["density", "1/2", "1/3", "1/5"]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hgdensity.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hgdensity", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


@pytest.mark.parametrize("argv", [["special", "163", "--max-density"], ["sweep", "12"]])
def test_a_reader_that_closes_stdout_ends_the_run_quietly(argv):
    # `hgdensity ... | head` closes the pipe while the CLI still writes: a
    # traceback from main's print and "file error: [Errno 32] Broken pipe"
    # with exit 2 were seen; the read end here is closed before the child starts
    import hgdensity

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hgdensity.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "hgdensity", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")
