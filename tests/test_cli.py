import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hoermander_kit
from hoermander_kit import bench, cli, interp, spectra, traces
from hoermander_kit.cli import main
from hoermander_kit.errors import (
    HoermanderKitError,
    InvalidConfig,
    NonFiniteData,
    UnknownConfigKey,
)


def test_norm_command(tmp_path):
    lat = spectra.Lattice(sizes=(16, 16), periods=(2 * np.pi, 2 * np.pi))
    field = spectra.SpectralField.single_mode(lat, (3, 5))
    path = tmp_path / "field.bin"
    spectra.save_field(field, path)
    rc = main(["norm", "--field", str(path), "--s", "2.0",
               "--out", str(tmp_path / "rep")])
    assert rc == 0
    payload = json.loads((tmp_path / "rep" / "norm.json").read_text())
    assert payload["norm"] == pytest.approx(15.0, rel=1e-12)


def test_interp_check_command(tmp_path, capsys):
    rc = main(["interp-check", "--resolutions", "8", "--trials", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "interp-check.json").read_text())
    assert payload["passed"]


def test_compat_check_command(tmp_path):
    rc = main(["compat-check", "--nx", "32", "--nt", "32", "--s", "3.0",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "compat-check.json").read_text())
    assert payload["passed"] and payload["count"] == 1
    assert payload["count_above"] >= payload["count"] and payload["tol"] == 1e-8
    assert set(payload) >= {"s", "at_jump", "residuals", "residual_orders", "trace_accuracy"}


@pytest.mark.parametrize("argv", [["--nx", "128", "--nt", "128", "--s", "4.0"], []],
                         ids=["readme", "defaults"])
def test_compat_check_readme_example_passes(tmp_path, argv):
    # compatible data by construction: at s = 4 both conditions hold within tol
    rc = main(["compat-check", *argv, "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "compat-check.json").read_text())
    assert rc == 0 and payload["passed"] and payload["count"] == 2, payload["residuals"]


def test_compat_check_config(tmp_path):
    cfg = {
        "geometry": {"kind": "interval", "nx": 32},
        "tau": 1.0,
        "s": 3.0,
        "a": {"2": "1"},
        "boundary": {"kind": "dirichlet"},
    }
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["compat-check", "--config", str(cfg_path), "--nt", "32"])
    assert rc == 0


def test_compat_check_config_rejects_a_misspelt_key(tmp_path):
    # s is the command's own key; a misspelt problem key is an error, not tau = 1
    cfg = {"geometry": {"kind": "interval", "nx": 32}, "tua": 2.0, "s": 3.0, "a": {"2": "1"}}
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(UnknownConfigKey, match=r"\['tua'\]"):
        main(["compat-check", "--config", str(cfg_path), "--nt", "32"])


@pytest.mark.parametrize("cfg_s, message", [("abc", "'abc'"), (1.5, "1.5")],
                         ids=["not-a-number", "not-above-two"])
def test_compat_check_config_rejects_a_bad_s(tmp_path, monkeypatch, cfg_s, message):
    # s is read before the problem is built or any datum drawn
    drawn = []
    monkeypatch.setattr(bench, "synthesize_trial", lambda *a, **kw: drawn.append(a))
    cfg = {"geometry": {"kind": "interval", "nx": 32}, "s": cfg_s, "a": {"2": "1"}}
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(InvalidConfig, match=f"compat-check s: bad value {message}"):
        main(["compat-check", "--config", str(cfg_path), "--nt", "32"])
    assert drawn == []


def test_compat_check_config_rejects_a_coefficient_infinite_on_the_grid(tmp_path):
    # 1/x reads (no variable-free part is infinite) but is infinite at x = 0:
    # an error naming the key, not a report with NaN residuals
    cfg = {"geometry": {"kind": "interval", "nx": 64}, "s": 3.0, "a": {"2": "1/x"}}
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(NonFiniteData, match=r"a\['2'\] = 1/x"):
        main(["compat-check", "--config", str(cfg_path), "--nt", "64", "--out", str(tmp_path)])
    assert not (tmp_path / "compat-check.json").exists()


@pytest.mark.parametrize("command, values, module, entry", [
    ("jump-study", "16,48", bench, "jump_study"),
    ("jump-study", "2", bench, "jump_study"),
    ("interp-check", "12", interp, "verify_prop_interpolation"),
    ("interp-check", "8,x", interp, "verify_prop_interpolation"),
    # the criteria of both compare the two finest resolutions: one would pass vacuously
    ("jump-study", "16", bench, "jump_study"),
    ("iso-bench", "16", bench, "estimate_isomorphism"),
], ids=["jump-study-48", "jump-study-2", "interp-check-12", "interp-check-not-a-number",
        "jump-study-one", "iso-bench-one"])
def test_resolutions_flag_is_checked_before_any_work(monkeypatch, command, values, module,
                                                     entry):
    called = []
    monkeypatch.setattr(module, entry, lambda *a, **kw: called.append(a))
    with pytest.raises(InvalidConfig, match=f"{command} --resolutions: bad value"):
        main([command, "--resolutions", values])
    assert called == []


# the first step of each command's work, reached only once every input has been read
_ENTRY = {"norm": (spectra, "load_field"), "interp-check": (interp, "verify_prop_interpolation"),
          "compat-check": (bench, "synthesize_trial"), "trace-check": (traces.CauchyData, "random"),
          "iso-bench": (bench, "estimate_isomorphism"), "jump-study": (bench, "jump_study")}
# per table input: a value that does not read, and the message of a library type's check
# where that check is the input's (None: the input's own "<command> --<flag>: bad value")
_BAD_INPUTS = {
    ("norm", "s"): ("nan", None),
    ("norm", "phi"): ('{"kind": "Nope"}', None), ("norm", "anisotropy"): ("elliptic", None),
    ("interp-check", "seed"): ("x", None), ("interp-check", "resolutions"): ("8,12", None),
    ("interp-check", "trials"): ("0", None),
    ("compat-check", "seed"): ("x", None), ("compat-check", "s"): ("2", None),
    ("compat-check", "nx"): ("12", None), ("compat-check", "nt"): ("12", None),
    ("trace-check", "seed"): ("x", None), ("trace-check", "trials"): ("0", None),
    ("iso-bench", "seed"): ("x", None), ("iso-bench", "geometry"): ("disk", "geometry 'disk'"),
    ("iso-bench", "boundary"): ("robin", "boundary 'robin'"), ("iso-bench", "s_grid"): ("3,x", None),
    ("iso-bench", "phi"): ("x", None), ("iso-bench", "trials"): ("30.5", None),
    ("iso-bench", "resolutions"): ("32,x", None), ("iso-bench", "ny"): ("1.5", None),
    ("iso-bench", "band"): ("x", None),
    ("jump-study", "seed"): ("x", None), ("jump-study", "s_star"): ("x", None),
    ("jump-study", "eps1"): ("nan", None), ("jump-study", "eps2"): ("inf", None),
    ("jump-study", "resolutions"): ("16,2", None), ("jump-study", "trials"): ("0", None),
}


@pytest.mark.parametrize("command, name", [(command, name) for command, inputs in cli._INPUTS.items()
                                           for name in inputs])
def test_every_input_is_checked_before_any_work(tmp_path, monkeypatch, command, name):
    # a flag, or a --config key where the input is only that, fails naming itself
    called = []
    monkeypatch.setattr(*_ENTRY[command], lambda *a, **kw: called.append(a))
    bad, message = _BAD_INPUTS[command, name]
    argv = [command, "--field", "f.bin", "--s", "2"] if command == "norm" else [command]
    if cli._INPUTS[command][name][2:] == ("key",):
        cfg_path = tmp_path / "case.json"
        cfg_path.write_text(json.dumps({name: bad}))
        argv += ["--config", str(cfg_path)]
        where = f"{command} {name}"
    else:
        flag = "--" + name.replace("_", "-")
        argv += [flag, bad]
        where = f"{command} {flag}"
    with pytest.raises(InvalidConfig, match=message or f"{where}: bad value"):
        main(argv)
    assert called == []


def test_norm_rejects_a_misspelt_phi_key(monkeypatch):
    # a misspelt exponent is an error, not the plain Sobolev case phi = 1
    called = []
    monkeypatch.setattr(spectra, "load_field", lambda *a, **kw: called.append(a))
    with pytest.raises(UnknownConfigKey, match=r"norm --phi: LogPower phi: unknown keys \['thet'\]"):
        main(["norm", "--field", "f.bin", "--s", "2", "--phi", '{"kind": "LogPower", "thet": [1]}'])
    assert called == []


def test_trace_check_command(tmp_path):
    rc = main(["trace-check", "--trials", "3", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "trace-check.json").read_text())
    assert payload["max_identity_error"] <= 1e-9


def test_iso_bench_command(tmp_path, capsys):
    rc = main([
        "iso-bench", "--geometry", "interval", "--s-grid", "3.0",
        "--resolutions", "16,32", "--trials", "30", "--csv",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    csv_text = (tmp_path / "iso-bench.csv").read_text()
    assert "condition" in csv_text.splitlines()[0]


def test_jump_study_command(tmp_path):
    rc = main([
        "jump-study", "--resolutions", "16,32", "--trials", "30",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "jump-study.json").read_text())
    assert len(payload["rows"]) == 2


def test_iso_bench_and_jump_study_write_their_reports(tmp_path, monkeypatch, capsys):
    reports = []
    for name in ("estimate_isomorphism", "jump_study"):
        real = getattr(bench, name)
        monkeypatch.setattr(bench, name,
                            lambda *a, real=real, **kw: reports.append(real(*a, **kw)) or reports[-1])
    assert main(["iso-bench", "--s-grid", "3.0", "--resolutions", "16,32", "--csv",
                 "--out", str(tmp_path)]) == 0
    iso_out = capsys.readouterr().out
    assert main(["jump-study", "--resolutions", "16,32", "--out", str(tmp_path)]) == 0
    jump_out = capsys.readouterr().out
    iso, jump = reports
    assert (tmp_path / "iso-bench.json").read_text() == json.dumps(iso.to_dict(), indent=2)
    assert (tmp_path / "iso-bench.csv").read_text() == iso.to_csv()
    assert (tmp_path / "jump-study.json").read_text() == json.dumps(jump.to_dict(), indent=2)
    assert iso_out == iso.to_csv() + "\ndrift check: PASS\n"
    assert jump_out == json.dumps(jump.to_dict(), indent=2) + "\njump study: PASS\n"


def test_iso_bench_config(tmp_path):
    cfg = {
        "geometry": "interval",
        "s_grid": [3.0],
        "phi": [{"kind": "Constant", "value": 1.0}],
        "trials": 30,
        "resolutions": [16, 32],
        "seed": 2,
    }
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["iso-bench", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "iso-bench.json").read_text())
    assert payload["case"]["s_grid"] == [3.0]


def test_iso_bench_config_passes_boundary(tmp_path, monkeypatch):
    seen = []
    real = bench.estimate_isomorphism
    monkeypatch.setattr(bench, "estimate_isomorphism",
                        lambda case, **kw: seen.append(case) or real(case, **kw))
    cfg = {"geometry": "interval", "boundary": "neumann", "s_grid": [3.0],
           "trials": 30, "resolutions": [16, 32], "seed": 2}
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps(cfg))
    main(["iso-bench", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert seen[0].boundary == "neumann"
    payload = json.loads((tmp_path / "iso-bench.json").read_text())
    assert payload["case"]["boundary"] == "neumann"


class _CaseSeen(Exception):
    pass


def _iso_bench_case(monkeypatch, argv):
    """The BenchCase that ``iso-bench`` with ``argv`` builds, captured before it runs."""
    seen = []

    def capture(case, **kw):
        seen.append(case)
        raise _CaseSeen

    monkeypatch.setattr(bench, "estimate_isomorphism", capture)
    with pytest.raises(_CaseSeen):
        main(["iso-bench", *argv])
    return seen[0]


def test_iso_bench_config_keys_override_the_flags(tmp_path, monkeypatch):
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps({"geometry": "interval"}))
    from_flags = _iso_bench_case(monkeypatch, [])
    assert len(from_flags.phi_list) == 3
    assert _iso_bench_case(monkeypatch, ["--config", str(cfg_path)]) == from_flags
    # a flag takes effect wherever the config is silent
    case = _iso_bench_case(monkeypatch, ["--config", str(cfg_path), "--s-grid", "3"])
    assert case.s_grid == (3.0,)
    cfg_path.write_text(json.dumps({"geometry": "strip", "s_grid": [2.6]}))
    case = _iso_bench_case(monkeypatch, ["--config", str(cfg_path), "--s-grid", "3",
                                         "--geometry", "interval", "--ny", "8"])
    assert (case.geometry_kind, case.s_grid, case.ny) == ("strip", (2.6,), 8)


def test_iso_bench_config_rejects_unknown_keys(tmp_path):
    cfg = {"geometry": "interval", "s_grid": [3.0], "trails": 30, "resolution": [16],
           "tau": 0.5}
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(UnknownConfigKey, match=r"\['resolution', 'tau', 'trails'\]") as err:
        main(["iso-bench", "--config", str(cfg_path)])
    assert isinstance(err.value, HoermanderKitError)


def test_iso_bench_rejects_a_negative_band(tmp_path, monkeypatch):
    # from the flag or from a config, the case fails before any work
    cases = []
    monkeypatch.setattr(bench, "estimate_isomorphism", lambda case, **kw: cases.append(case))
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps({"geometry": "interval", "band": -1}))
    for argv in (["--band", "-1"], ["--config", str(cfg_path)]):
        with pytest.raises(ValueError, match="band"):
            main(["iso-bench", *argv])
    assert cases == []
    src = str(Path(hoermander_kit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "hoermander_kit.cli", "iso-bench", "--band", "-1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert "band must be >= 0" in proc.stderr


@pytest.mark.parametrize("cfg, message", [
    ({"geometry": "disk"}, "geometry 'disk'"),
    ({"boundary": "robin"}, "boundary 'robin'"),
    ({"seed": 1.7}, "iso-bench seed"),
    ({"band": 2.5}, "iso-bench band"),
    ({"trials": 30.5}, "iso-bench trials"),
    ({"ny": True}, "iso-bench ny"),
    ({"resolutions": [32, 48]}, "resolutions"),
    ({"resolutions": [32]}, r"iso-bench resolutions: bad value \[32\] \(fewer than 2 items\)"),
    ({"resolutions": [32.5]}, "iso-bench resolutions"),
    ({"s_grid": "3,4"}, "iso-bench s_grid"),
    ({"phi": "x"}, "iso-bench phi"),
    ({"phi": [{"kind": "Nope"}]}, "iso-bench phi"),
    ({"phi": [{"theta": [1.0]}]}, "iso-bench phi"),
], ids=["geometry", "boundary", "seed", "band", "trials", "ny", "resolution-48",
        "one-resolution", "resolution-fraction", "s-grid-string", "phi-string", "phi-unknown-kind",
        "phi-without-kind"])
def test_iso_bench_rejects_a_bad_config(tmp_path, monkeypatch, cfg, message):
    # a case that cannot run, or a number that does not read as one, fails before any work
    cases = []
    monkeypatch.setattr(bench, "estimate_isomorphism", lambda case, **kw: cases.append(case))
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(InvalidConfig, match=message):
        main(["iso-bench", "--config", str(cfg_path)])
    assert cases == []


@pytest.mark.parametrize("text, message", [
    ("{nope", r"bad value '\{nope' \(Expecting"),
    ('["seed"]', r"""bad value '\["seed"\]' \(not a JSON object\)"""),
], ids=["not-json", "a-list"])
@pytest.mark.parametrize("command", ["iso-bench", "compat-check"])
def test_a_config_that_is_not_a_json_object_fails_naming_the_file(tmp_path, monkeypatch,
                                                                  command, text, message):
    called = []
    monkeypatch.setattr(*_ENTRY[command], lambda *a, **kw: called.append(a))
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(text)
    with pytest.raises(InvalidConfig, match=r"case\.json: " + message):
        main([command, "--config", str(cfg_path)])
    assert called == []


def test_iso_bench_rejects_true_in_its_s_grid(tmp_path, monkeypatch):
    cases = []
    monkeypatch.setattr(bench, "estimate_isomorphism", lambda case, **kw: cases.append(case))
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps({"s_grid": [3.0, True]}))
    with pytest.raises(InvalidConfig, match="iso-bench s_grid: bad value"):
        main(["iso-bench", "--config", str(cfg_path)])
    assert cases == []


@pytest.mark.parametrize("argv", [
    ["norm", "--field", "f.bin", "--s", "2.0", "--seed", "7"],
    ["iso-bench", "--json"],
], ids=["norm-seed", "iso-bench-json"])
def test_flags_that_did_nothing_are_gone(monkeypatch, capsys, argv):
    called = []
    monkeypatch.setattr(*_ENTRY[argv[0]], lambda *a, **kw: called.append(a))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert called == []
