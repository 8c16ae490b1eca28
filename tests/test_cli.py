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


def test_schema_and_envelope(capsys):
    code, rep = run(capsys, ["--p", "5", "phi-dr", "--gamma", "1,1,0,1"])
    assert code == EXIT_OK
    assert rep["schema"] == "rmlab/1"
    assert rep["command"] == "phi-dr"
    assert rep["exit_code"] == 0
    assert rep["phi_DR"] == 8 == phi_DR(((1, 1), (0, 1)), 5)


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


def test_winding_matches_library(capsys):
    code, rep = run(capsys, ["--disc", "12", "--p", "5", "--prec", "10",
                             "winding", "--n", "2"])
    assert code == EXIT_OK
    group = NarrowClassGroup(12)
    ctx = PadicContext(5, 10)
    expected = log_Tn_Jw(group.rm_representative(group.identity), 2, 5, ctx)
    assert PadicScalar.from_json(rep["log_TnJw"]).equals(expected)


def test_invalid_instance_exits_2(capsys):
    code, rep = run(capsys, ["--disc", "12", "--p", "13", "--prec", "8",
                             "--nmax", "3", "gtau"])
    assert code == EXIT_INVALID
    assert "inert" in rep["error"]


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


@pytest.mark.parametrize("source", ["list", "gtau", "neither", "malformed"])
def test_fit_from_file(capsys, tmp_path, source):
    # a coefficient list, a gtau report (coefficients keyed by n, no a_0),
    # and two invalid inputs: a file that is neither, and a list with an
    # entry that is not a scalar object
    from rmlab.modforms import e2p_series
    ctx = PadicContext(5, 10)
    series = e2p_series(5, 8).scale(3)
    listed = [None] + [ctx.from_int(series.coeffs[n]).to_json()
                       for n in range(1, 9)]
    path = tmp_path / "series.json"
    prec = "12" if source == "gtau" else "10"
    if source == "gtau":
        assert main(["--disc", "12", "--p", "5", "--nmax", "6", "--depth",
                     "2", "--prec", prec, "gtau", "--out", str(path)]) \
            == EXIT_OK
    else:
        coeffs = {"list": listed, "neither": listed[1],
                  "malformed": [None, "x"]}[source]
        path.write_text(json.dumps({"coefficients": coeffs}))
    code, rep = run(capsys, ["--p", "5", "--prec", prec,
                             "fit", "--series", str(path)])
    if source == "neither":
        assert code == EXIT_INVALID and "error" in rep
    elif source == "malformed":
        assert code == EXIT_INVALID and "coefficient 1 " in rep["error"]
    elif source == "gtau":
        assert code == EXIT_OK
        assert rep["fit"] == json.loads(path.read_text())["fit"]
    else:
        assert code == EXIT_OK
        a0 = PadicScalar.from_json(rep["fit"]["a0"])
        assert a0.equals(ctx.from_int(12))  # 3 * (p - 1)
        assert rep["fit"]["certified"]


def test_algdep_command(capsys):
    code, rep = run(capsys, ["--p", "5", "--prec", "24",
                             "algdep", "--value", "7,0,0",
                             "--degree", "2", "--budget", "16"])
    assert code == EXIT_OK
    assert rep["polynomial"] == [-7, 1]


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


def test_read_toml_subset(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text('[run]\nname = "x"\nn = 3  # comment\n')
    assert read_toml_subset(str(path)) == {"name": "x", "n": 3}
    bad = tmp_path / "bad.toml"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_toml_subset(str(bad))


def test_recognize_unit_flagship_small(capsys):
    code, rep = run(capsys, ["--disc", "12", "--p", "5", "--prec", "20",
                             "--nmax", "4", "--depth", "3",
                             "recognize-unit", "--budget", "12"])
    assert code == EXIT_OK
    assert rep["recognized"]
    assert rep["polynomial"] == [5, -6, 5]
    assert rep["predicted_valuations"] == {"0": [-1, 12], "1": [1, 12]}


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


def test_threads_flag(capsys):
    base = ["--disc", "12", "--p", "5", "--prec", "10", "--nmax", "6",
            "--depth", "2"]
    reports = [run(capsys, base + ["--threads", t, "gtau"])
               for t in ("1", "2")]
    assert [code for code, _ in reports] == [EXIT_OK, EXIT_OK]
    serial, pooled = (rep["coefficients"] for _, rep in reports)
    assert pooled == serial
    group = NarrowClassGroup(12)
    ctx = PadicContext(5, 10)
    res = generating_series(group.rm_representative(group.identity), 5, 6,
                            ctx, m_max=2, group=group)
    assert serial == {str(n): res.series.coeffs[n].to_json()
                      for n in range(1, 7)}
    # the other narrow class: the same values with the opposite sign
    other = group.representative(1 - group.identity)
    form = "--form=" + ",".join(map(str, other))   # may start with "-"
    code, rep = run(capsys, base + ["--threads", "2", form, "gtau"])
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
