import json
import os
import subprocess
import sys

import pytest

import rmlab
from rmlab.cli import (EXIT_CRITERION, EXIT_INVALID, EXIT_OK,
                       main, read_toml_subset)
from rmlab.eisenstein import KERNEL_REVISION
from rmlab.gsunits import generating_series
from rmlab.padic import PadicContext, PadicScalar
from rmlab.quadfield import NarrowClassGroup
from rmlab.siegelmeasure import phi_DR
from rmlab.winding import log_Tn_Jw


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def no_series(monkeypatch):
    """The CLI's generating_series replaced by one that fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the series was computed")

    monkeypatch.setattr(rmlab.cli, "generating_series", refuse)


def test_schema_and_envelope(capsys):
    code, rep = run(capsys, ["--p", "5", "phi-dr", "--gamma", "1,1,0,1"])
    assert code == EXIT_OK
    assert rep["schema"] == "rmlab/1"
    assert rep["command"] == "phi-dr"
    assert rep["exit_code"] == 0
    assert rep["phi_DR"] == 8 == phi_DR(((1, 1), (0, 1)), 5)


@pytest.mark.parametrize("p", ["0", "1", "-5", "4"])
def test_phi_dr_refuses_a_p_that_is_not_prime(capsys, p):
    # 20 is divisible by each: a p of 0 divided by zero, and -5 and 1
    # printed a number with exit 0
    code, rep = run(capsys, ["--p", p, "phi-dr", "--gamma", "1,0,20,1"])
    assert code == EXIT_INVALID
    assert rep["error"] == f"p = {p} is not a prime"


def _top_level_modules_after(stmt):
    """Top-level names outside the standard library in sys.modules after
    running `stmt` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rmlab.__file__)))
    code = (stmt + "; import sys; print(*{m.split('.')[0] for m in "
            "sys.modules} - set(sys.stdlib_module_names))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return {m for m in out.stdout.split() if not m.startswith("__")}


def test_cli_needs_no_third_party_package_but_sympy():
    # sympy is the one declared dependency: importing the CLI may load
    # rmlab and whatever sympy itself loads, nothing else
    extra = (_top_level_modules_after("import rmlab.cli")
             - _top_level_modules_after("import sympy"))
    assert extra == {"rmlab"}


def test_cli_loads_no_third_party_package():
    assert (_top_level_modules_after("import rmlab.cli")
            - _top_level_modules_after("pass")) == {"rmlab"}


def test_winding_matches_library(capsys):
    code, rep = run(capsys, ["--disc", "12", "--p", "5", "--prec", "10",
                             "winding", "--n", "2"])
    assert code == EXIT_OK
    group = NarrowClassGroup(12)
    ctx = PadicContext(5, 10)
    expected = log_Tn_Jw(group.rm_representative(group.identity), 2, 5, ctx)
    assert PadicScalar.from_json(rep["log_TnJw"]).equals(expected)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_winding_nonpositive_n_exits_2(capsys, n):
    code, rep = run(capsys, ["--prec", "10", "winding", f"--n={n}"])
    assert code == EXIT_INVALID
    assert rep["error"] == f"n must be a positive integer, not {n}"


def test_invalid_instance_exits_2(capsys):
    code, rep = run(capsys, ["--disc", "12", "--p", "13", "--prec", "8",
                             "--nmax", "3", "gtau"])
    assert code == EXIT_INVALID
    assert "inert" in rep["error"]


def test_prime_beyond_proven_primality_range_exits_2(capsys):
    # psi_13 is composite, yet a strong probable prime to every base 2..41
    code, rep = run(capsys, ["--p", "3317044064679887385961981", "--prec",
                             "8", "--nmax", "3", "gtau"])
    assert code == EXIT_INVALID
    assert "primality" in rep["error"]


def test_nonfundamental_disc_exits_2(capsys):
    code, rep = run(capsys, ["--disc", "11", "--p", "5", "winding"])
    assert code == EXIT_INVALID


def test_gtau_and_cache(capsys, tmp_path):
    argv = ["--disc", "12", "--p", "5", "--prec", "12", "--nmax", "4",
            "--depth", "2", "--cache-dir", str(tmp_path), "gtau"]
    code, rep = run(capsys, argv)
    assert code == EXIT_OK
    assert set(rep["coefficients"]) == {"1", "2", "3", "4"}
    assert rep["fit"]["certified"] is not None
    cache = tmp_path / "coefficients.jsonl"
    assert cache.exists()
    entries = [json.loads(line) for line in cache.read_text().splitlines()]
    assert {e["n"] for e in entries} == {1, 2, 3, 4}
    assert all(e["disc"] == 12 and e["p"] == 5 for e in entries)
    # second run hits the cache and reproduces the report exactly
    code2, rep2 = run(capsys, argv)
    assert code2 == EXIT_OK
    assert rep2["coefficients"] == rep["coefficients"]
    assert len(cache.read_text().splitlines()) == 4  # nothing re-appended


def test_gtau_trivial_field(capsys):
    code, rep = run(capsys, ["--disc", "8", "--p", "5", "--prec", "8",
                             "--nmax", "3", "gtau"])
    assert code == EXIT_OK
    zeros = [PadicScalar.from_json(c) for c in rep["coefficients"].values()]
    assert all(z.is_zero for z in zeros)


@pytest.mark.parametrize("disc, p", [(136, 7), (205, 11)])
def test_gtau_without_odd_genus_character_exits_2(capsys, disc, p):
    # Cl+ is cyclic of order 4 and no unit has norm -1: the odd characters
    # are quartic, so the series is not zero and is not supported
    code, rep = run(capsys, ["--disc", str(disc), "--p", str(p), "--prec",
                             "12", "--nmax", "4", "--depth", "2", "gtau"])
    assert code == EXIT_INVALID
    assert rep["error"] == "only narrow class number 1 or 2 supported"


def test_verify_threshold_and_exit_3(capsys):
    base = ["--disc", "12", "--p", "5", "--prec", "12", "--nmax", "4",
            "--depth", "2"]
    code, rep = run(capsys, base + ["verify", "--threshold", "6"])
    assert code == EXIT_OK and rep["passed"]
    code, rep = run(capsys, base + ["verify", "--threshold", "40"])
    assert code == EXIT_CRITERION and not rep["passed"]


def test_jdr(capsys):
    code, rep = run(capsys, ["--disc", "12", "--p", "5", "--prec", "10",
                             "jdr", "--level", "2"])
    assert code == EXIT_OK
    value = PadicScalar.from_json(rep["JDR"])
    assert value.v == 0  # principal unit representative


def test_jdr_refuses_split_prime(capsys):
    # 8 = 1 (mod 7): p = 7 splits in Q(sqrt(2))
    code, rep = run(capsys, ["--disc", "8", "--p", "7", "--prec", "10",
                             "jdr", "--level", "2"])
    assert code == EXIT_INVALID
    assert "inert" in rep["error"]


@pytest.mark.parametrize("level", ["0", "-1"])
def test_jdr_rejects_level_below_1(capsys, level):
    code, rep = run(capsys, ["--disc", "12", "--p", "5", "--prec", "10",
                             "jdr", "--level", level])
    assert code == EXIT_INVALID
    assert rep["error"] == "level must be >= 1"


def _zero_unit(x: PadicScalar) -> dict:
    """x's JSON with every unit digit set to 0."""
    obj = x.to_json()
    obj["unit"] = [[0] * obj["N"], [0] * obj["N"]]
    return obj


BAD_COEFFICIENT = {
    # coefficient 2 under --p 5 --prec 10
    "other-prime": PadicContext(7, 10).from_int(3).to_json(),
    "other-prec": PadicContext(5, 12).from_int(3).to_json(),
    "zero-unit": _zero_unit(PadicContext(5, 10).from_int(3)),
    "negative-slack": dict(PadicContext(5, 10).from_int(3).to_json(),
                           slack=-3),
}


@pytest.mark.parametrize("source", ["list", "gtau", "neither", "malformed"]
                         + list(BAD_COEFFICIENT))
def test_fit_from_file(capsys, tmp_path, source):
    # a coefficient list, a gtau report (coefficients keyed by n, no a_0),
    # and invalid inputs: a file that is neither, a list with an entry that
    # is not a scalar object, and lists with one scalar of another prime or
    # precision, with an all-zero unit part, or with a negative slack
    from rmlab.modforms import e2p_series
    ctx = PadicContext(5, 10)
    series = e2p_series(5, 8)
    listed = [None] + [ctx.from_int(3 * series.coeffs[n]).to_json()
                       for n in range(1, 9)]
    path = tmp_path / "series.json"
    prec = "12" if source == "gtau" else "10"
    if source == "gtau":
        assert main(["--disc", "12", "--p", "5", "--nmax", "6", "--depth",
                     "2", "--prec", prec, "gtau", "--out", str(path)]) \
            == EXIT_OK
    else:
        coeffs = {"list": listed, "neither": listed[1],
                  "malformed": [None, "x"],
                  **{bad: listed[:2] + [c] + listed[3:]
                     for bad, c in BAD_COEFFICIENT.items()}}[source]
        path.write_text(json.dumps({"coefficients": coeffs}))
    code, rep = run(capsys, ["--p", "5", "--prec", prec,
                             "fit", "--series", str(path)])
    if source == "neither":
        assert code == EXIT_INVALID and "error" in rep
    elif source == "malformed":
        assert code == EXIT_INVALID and "coefficient 1 " in rep["error"]
    elif source in BAD_COEFFICIENT:
        assert code == EXIT_INVALID and "coefficient 2 " in rep["error"]
    elif source == "gtau":
        assert code == EXIT_OK
        assert rep["fit"] == json.loads(path.read_text())["fit"]
    else:
        assert code == EXIT_OK
        a0 = PadicScalar.from_json(rep["fit"]["a0"])
        assert a0.equals(ctx.from_int(12))  # 3 * (p - 1)
        assert rep["fit"]["certified"]


@pytest.mark.parametrize("command, flag, name", [
    ("fit", "--series", "none.json"), ("fit", "--series", "."),
    ("gtau", "--out", "none/g.json"), ("gtau", "--cache-dir", "file")])
def test_bad_path_exits_2_naming_it(capsys, no_series, tmp_path, command,
                                    flag, name):
    # a path that cannot be read or written is bad input, not a traceback:
    # a missing file, a directory, a file in a missing directory, and a
    # file where a directory must be; each is refused before the series
    (tmp_path / "file").write_text("")
    path = tmp_path / name
    code, rep = run(capsys, ["--disc", "12", "--p", "5", "--prec", "8",
                             "--nmax", "3", "--depth", "2", command, flag,
                             str(path)])
    assert code == rep["exit_code"] == EXIT_INVALID
    assert str(path) in rep["error"]


def test_closed_stdout_exits_2_without_a_second_write(monkeypatch):
    # `rmlab gtau | head -1`: the reader has gone, so the report's write
    # fails once, and nothing else is written or raised
    writes = []

    class ClosedPipe:
        def write(self, text):
            writes.append(text)
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["--p", "5", "phi-dr", "--gamma", "1,1,0,1"]) == EXIT_INVALID
    assert len(writes) == 1 and '"phi_DR": 8' in writes[0]


def test_algdep_command(capsys):
    code, rep = run(capsys, ["--p", "5", "--prec", "24",
                             "algdep", "--value", "7,0,0",
                             "--degree", "2", "--budget", "16"])
    assert code == EXIT_OK
    assert rep["polynomial"] == [-7, 1]
    # 5^9 at precision 8: a valuation past the precision is kept whole
    code, rep = run(capsys, ["--p", "5", "--prec", "8", "algdep", "--value",
                             "1953125,0,0", "--degree", "2", "--budget", "4"])
    assert code == EXIT_OK
    assert rep["value"]["v"] == 9
    assert rep["polynomial"] == [0, 1]


@pytest.mark.parametrize("argv, flag", [
    (["algdep", "--value", "1,2"], "--value"),
    (["algdep", "--value", "1,2,3,4"], "--value"),
    (["algdep", "--value", "1,x,0"], "--value"),
    (["phi-dr", "--gamma", "1,1,0"], "--gamma"),
    (["phi-dr", "--gamma", "1,1,0,1.5"], "--gamma"),
    (["winding", "--form", "1,2"], "--form"),
])
def test_integer_list_flags_name_the_flag(capsys, argv, flag):
    # --form, --gamma and --value share one parser, which checks the count
    # and the integers and names the flag in its message
    code, rep = run(capsys, ["--p", "5"] + argv)
    assert code == EXIT_INVALID == 2
    assert rep["error"].startswith(f"{flag} must be ")


@pytest.mark.parametrize("budget", ["0", "-2"])
def test_algdep_budget_below_one_exits_2(capsys, budget):
    # at budget 0 the constant polynomial 1 would pass as a relation
    code, rep = run(capsys, ["--p", "5", "algdep", "--value", "1,0,0",
                             "--budget", budget])
    assert code == EXIT_INVALID
    assert rep["error"] == "budget must be at least 1"


def test_algdep_infinite_margin_is_null(capsys):
    # the two shortest rows' length ratio passes the float range; JSON has
    # no token for infinity, so the report says null
    code = main(["--p", "7", "--prec", "400", "algdep", "--value", "3,0,0",
                 "--degree", "1", "--budget", "380"])
    out = capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    rep = json.loads(out, parse_constant=reject)
    assert code == EXIT_OK
    assert rep["polynomial"] == [-3, 1]
    assert rep["margin"] is None


def test_config_defaults_and_flag_priority(capsys, tmp_path):
    conf = tmp_path / "conf.toml"
    conf.write_text("# instance\ndisc = 8\np = 5\nprec = 8\nnmax = 3\n")
    code, rep = run(capsys, ["--config", str(conf), "gtau"])
    assert code == EXIT_OK and rep["disc"] == 8
    # explicit flag beats the config value
    code, rep = run(capsys, ["--config", str(conf), "--disc", "12",
                             "--depth", "2", "gtau"])
    assert code == EXIT_OK and rep["disc"] == 12


@pytest.mark.parametrize("line", ['prec = "x"', "nmax = abc",
                                  "cache-dir = 5"])
def test_config_value_of_wrong_type_exits_2(capsys, tmp_path, line):
    conf = tmp_path / "conf.toml"
    conf.write_text(f"disc = 8\np = 5\n{line}\n")
    code, rep = run(capsys, ["--config", str(conf), "gtau"])
    assert code == EXIT_INVALID
    assert " must be " in rep["error"]


def test_config_unknown_key_exits_2(capsys, tmp_path):
    # a misspelled key is named, not ignored; threads is accepted and
    # ignored, as the README documents
    conf = tmp_path / "conf.toml"
    conf.write_text("disc = 8\np = 5\npresc = 12\nthreads = 2\n")
    code, rep = run(capsys, ["--config", str(conf), "gtau"])
    assert code == EXIT_INVALID
    assert rep["error"] == "unknown config key: presc"
    conf.write_text("disc = 8\np = 5\nprec = 8\nnmax = 3\nthreads = 2\n")
    code, rep = run(capsys, ["--config", str(conf), "gtau"])
    assert code == EXIT_OK and rep["prec"] == 8


def test_read_toml_subset(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text('[run]\nname = "x"\nn = 3  # comment\n')
    assert read_toml_subset(str(path)) == {"name": "x", "n": 3}
    bad = tmp_path / "bad.toml"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_toml_subset(str(bad))


def test_read_toml_subset_keeps_a_hash_inside_quotes(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text('out = "/tmp/a#b.json"  # where the report goes\n'
                    'name = "#x" # "quoted" comment\n')
    assert read_toml_subset(str(path)) == {"out": "/tmp/a#b.json",
                                           "name": "#x"}


def test_recognize_unit_flagship_small(capsys):
    code, rep = run(capsys, ["--disc", "12", "--p", "5", "--prec", "20",
                             "--nmax", "4", "--depth", "3",
                             "recognize-unit", "--budget", "12"])
    assert code == EXIT_OK
    assert rep["recognized"]
    assert rep["polynomial"] == [5, -6, 5]
    assert rep["predicted_valuations"] == {"0": [-1, 12], "1": [1, 12]}


def test_recognize_unit_budget_held_below_certificates(capsys):
    # at prec 24 the default --budget 20 is capped at prec - 6 = 18, below
    # the certified precision of a_0
    code, rep = run(capsys, ["--prec", "24", "recognize-unit"])
    assert code == EXIT_OK
    assert rep["recognized"]
    assert rep["polynomial"] == [5, -6, 5]


def test_recognize_unit_at_p_11_defaults(capsys):
    # (21, 11) at the defaults: span size 22 at prec 32 gives a_0 enough
    # digits for the unit of Q(sqrt(21)) at twist 36
    code, rep = run(capsys, ["--disc", "21", "--p", "11", "recognize-unit"])
    assert code == EXIT_OK
    assert rep["polynomial"] == [121, -206, 121]
    assert rep["twist"] == 36
    assert rep["split_fraction"] >= 0.95
    pairs = [(t, tuple(c)) for t, c in rep["matches"]]
    assert len(pairs) == len(set(pairs))


def test_recognize_unit_degree_0_exits_2(capsys, no_series):
    # refused before the series, which at the defaults takes seconds, as is
    # a recognition budget below 1 that --budget or --prec sets
    for flags, error in (
            (["--degree", "0"], "degree must be at least 1"),
            (["--budget", "0"], "--budget 0 leaves a recognition budget of "
                                "0; it must be at least 1"),
            (["--prec", "6"], "--prec 6 leaves a recognition budget of 0; "
                              "it must be at least 1")):
        code, rep = run(capsys, ["recognize-unit"] + flags)
        assert code == EXIT_INVALID
        assert rep["error"] == error


def test_recognize_unit_refuses_a_field_with_a_unit_of_norm_minus_one(
        capsys, no_series):
    # Q(sqrt(13)) has no odd character, so its series is 0 and there is no
    # unit to recognize: an invalid instance, not a computational failure
    code, rep = run(capsys, ["--disc", "13", "--nmax", "4", "--depth", "2",
                             "recognize-unit"])
    assert code == EXIT_INVALID
    assert rep["error"] == ("Q(sqrt(13)) has a unit of norm -1 and so no "
                            "odd character")


def test_corrupt_cache_line_is_recomputed(capsys, tmp_path):
    argv = ["--disc", "12", "--p", "5", "--prec", "12", "--nmax", "4",
            "--depth", "2", "--cache-dir", str(tmp_path), "gtau"]
    code, cold = run(capsys, argv)
    assert code == EXIT_OK
    cache = tmp_path / "coefficients.jsonl"
    text = cache.read_text()
    torn = text[:text.rindex("\n", 0, -1) + 1 + 40]   # an interrupted append
    cache.write_text(torn)
    code, rep = run(capsys, argv)
    assert code == EXIT_OK
    assert rep["coefficients"] == cold["coefficients"]
    assert list(rep["stabilized_at"]) == ["4"]     # only the torn entry
    entries = []
    for line in cache.read_text().splitlines():
        try:
            entries.append(json.loads(line))
        except ValueError:
            pass
    assert sorted(e["n"] for e in entries) == [1, 2, 3, 4]


@pytest.mark.parametrize("bad", ["list", "empty", "zero-unit", "other-prec",
                                 "bool-n", "negative-slack", "bool-slack"])
def test_cache_line_that_is_not_an_entry_is_recomputed(capsys, tmp_path,
                                                       bad):
    # a line that parses but is not an entry (an "n" of true would stand for
    # a_1), or an entry of the instance's key whose value is not a scalar of
    # its context (a negative slack would claim more digits than computed),
    # is a miss
    argv = ["--disc", "12", "--p", "5", "--prec", "12", "--nmax", "4",
            "--depth", "2", "--cache-dir", str(tmp_path), "gtau"]
    code, cold = run(capsys, argv)
    assert code == EXIT_OK
    cache = tmp_path / "coefficients.jsonl"
    entries = [json.loads(line) for line in cache.read_text().splitlines()]
    last = entries[-1]
    value = PadicScalar.from_json(last["value"])
    line = {"list": [1, 2], "empty": {},
            "zero-unit": dict(last, value=_zero_unit(value)),
            "other-prec": dict(last, value=PadicContext(5, 10).from_int(
                3).to_json()),
            "bool-n": dict(last, n=True),
            "negative-slack": dict(last, value=dict(last["value"], slack=-3)),
            "bool-slack": dict(last, value=dict(last["value"], slack=True)),
            }[bad]
    cache.write_text("".join(json.dumps(e) + "\n" for e in entries[:-1])
                     + json.dumps(line) + "\n")
    code, rep = run(capsys, argv)
    assert code == EXIT_OK
    assert rep["coefficients"] == cold["coefficients"]
    assert rep["fit"] == cold["fit"]
    # the damaged entry is recomputed and appended; the other three are read
    assert list(rep["stabilized_at"]) == [str(last["n"])]
    assert json.loads(cache.read_text().splitlines()[-1]) == last


def test_threads_flag(capsys):
    # --threads is accepted for compatibility and changes nothing
    base = ["--disc", "12", "--p", "5", "--prec", "10", "--nmax", "6",
            "--depth", "2"]
    reports = [run(capsys, base + flag + ["gtau"])
               for flag in ([], ["--threads", "2"])]
    assert [code for code, _ in reports] == [EXIT_OK, EXIT_OK]
    plain, threaded = (rep for _, rep in reports)
    assert threaded == plain
    group = NarrowClassGroup(12)
    ctx = PadicContext(5, 10)
    res = generating_series(group.rm_representative(group.identity), 5, 6,
                            ctx, m_max=2, group=group)
    assert plain["coefficients"] == {str(n): res.series.coeffs[n].to_json()
                                     for n in range(1, 7)}
    # the other narrow class: the same values with the opposite sign
    other = group.representative(1 - group.identity)
    form = "--form=" + ",".join(map(str, other))   # may start with "-"
    code, rep = run(capsys, base + [form, "gtau"])
    assert code == EXIT_OK
    assert rep["coefficients"] == {str(n): (-res.series.coeffs[n]).to_json()
                                   for n in range(1, 7)}


def test_cache_of_another_kernel_revision_is_recomputed(capsys, tmp_path):
    argv = ["--disc", "12", "--p", "5", "--prec", "12", "--nmax", "4",
            "--depth", "2", "--cache-dir", str(tmp_path), "gtau"]
    code, cold = run(capsys, argv)
    assert code == EXIT_OK
    cache = tmp_path / "coefficients.jsonl"
    entries = [json.loads(line) for line in cache.read_text().splitlines()]
    assert all(e["kernel"] == KERNEL_REVISION for e in entries)
    # entries written before the kernel revision joined the key, and of an
    # older revision, each holding a wrong value that must not be read
    wrong = entries[0]["value"]
    stale = []
    for e in entries:
        old = {k: v for k, v in e.items() if k != "kernel"}
        stale.append(dict(old, value=wrong if e["n"] != 1 else
                          entries[1]["value"]))
        stale.append(dict(old, kernel=KERNEL_REVISION - 1, value=wrong))
    cache.write_text("".join(json.dumps(e) + "\n" for e in stale))
    code, rep = run(capsys, argv)
    assert code == EXIT_OK
    assert rep["coefficients"] == cold["coefficients"]
    assert sorted(rep["stabilized_at"]) == ["1", "2", "3", "4"]
    fresh = [json.loads(line) for line in cache.read_text().splitlines()]
    assert fresh[:len(stale)] == stale
    assert [(e["n"], e["kernel"], e["value"]) for e in fresh[len(stale):]] \
        == [(e["n"], KERNEL_REVISION, e["value"]) for e in entries]
