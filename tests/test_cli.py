import json
import tomllib
from dataclasses import replace
from pathlib import Path

import pytest

from spincas import colour, report, spectra, ybe
from spincas.cli import main
from spincas.records import VerificationRecord
from spincas.scalar import Rat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_command(capsys):
    code, out, err = run(capsys, "gamma", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["summary"]["fail"] == 0
    assert "wall time" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(record["ok"] for record in payload["records"])


@pytest.mark.parametrize(
    "command, fmt",
    # spectra --format csv writes the eigenvalue tables instead
    [(c, f) for c in ("gamma", "oracle", "invariants") for f in ("json", "csv")] + [("spectra", "json")],
)
def test_suite_command_is_the_report_of_its_suite(capsys, command, fmt):
    code, out, _ = run(capsys, command, "--r", "2", "--format", fmt)
    assert (code, out) == run(capsys, "report", "--r", "2", "--suites", command, "--format", fmt)[:2]


def test_oracle_csv_holds_a_row_per_check(capsys):
    code, out, _ = run(capsys, "oracle", "--r", "2", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "suite,r,record,check,status,witness"
    records = [row.split(",")[2] for row in rows]
    assert list(dict.fromkeys(records)) == [
        '"so-algebra-integrity N=4"',
        '"defining-representation N=4"',
        '"c2-closed-form-vs-weights r=2"',
    ]
    assert all(row.startswith("oracle,2,") and ",pass," in row for row in rows)


def test_report_keeps_its_suites_in_run_order(capsys):
    # the config lists each suite once, in the order the suites run
    code, out, _ = run(capsys, "report", "--r", "2", "--suites", "ybe,gamma,gamma")
    assert code == 0
    assert json.loads(out)["config"]["suites"] == ["gamma", "ybe"]
    assert out == run(capsys, "report", "--r", "2", "--suites", "gamma,ybe")[1]
    assert report.SuiteConfig(suites=("ybe", "gamma", "gamma")) == report.SuiteConfig(suites=("gamma", "ybe"))


def test_report_runs_the_oracle_suite(capsys):
    code, out, _ = run(capsys, "report", "--r", "2", "--suites", "oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["config"]["suites"] == ["oracle"]
    assert {entry["suite"] for entry in payload["records"]} == {"oracle"}
    assert [entry["name"] for entry in payload["records"]] == [
        "so-algebra-integrity N=4",
        "defining-representation N=4",
        "c2-closed-form-vs-weights r=2",
    ]


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--r", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_spectra_tables_csv(capsys):
    code, out, _ = run(capsys, "spectra", "--r", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sector,k,eigenvalue,multiplicity"
    assert "pp,0,-7/12,1" in lines
    assert "pm,1,-7/24,8" in lines
    assert "rho,4,1/12,70" in lines
    # sorted by (sector, k)
    assert lines[1:] == sorted(lines[1:], key=lambda s: (s.split(",")[0], int(s.split(",")[1])))


def test_spectra_tables_known_rows(capsys):
    _, out, _ = run(capsys, "spectra", "--r", "5", "--format", "csv")
    assert "rho,5,5/64,252" in out
    _, out, _ = run(capsys, "spectra", "--r", "2", "--format", "csv")
    assert "pm,1,0,4" in out


def test_spectra_tables_show_the_verified_rank(capsys, monkeypatch):
    real = spectra.sector_spectral

    def served(rank, sector):
        # one rank off by one, in a copy; the cached spectrum is not touched
        data = real(rank, sector)
        if sector != "+-":
            return data
        (k, eigenvalue, mult), *rest = data.spectrum.entries
        return replace(data, spectrum=spectra.Spectrum(entries=((k, eigenvalue, mult + 1), *rest)))

    monkeypatch.setattr(spectra, "sector_spectral", served)
    code, out, _ = run(capsys, "spectra", "--r", "3", "--format", "csv")
    assert code == 1
    lines = out.splitlines()
    assert "pm,0,-15/32,2" in lines and "mp,0,-15/32,1" in lines
    assert "rho,0,-15/32,3" in lines
    monkeypatch.undo()
    assert real(3, "+-").spectrum.entries[0] == (0, Rat(-15, 32), 1)
    code, out, _ = run(capsys, "spectra", "--r", "3", "--format", "csv")
    assert code == 0 and "rho,0,-15/32,2" in out.splitlines()


def test_colour_command(capsys):
    code, out, _ = run(
        capsys, "colour", "--r", "2", "--L", "2", "--sector", "pp", "--closure", "full"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "3/16"
    assert payload["cross_check"] is True


def test_colour_partial(capsys):
    code, out, _ = run(
        capsys, "colour", "--r", "2", "--L", "2", "--sector", "pp", "--closure", "partial"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "3/32"
    assert payload["is_identity_multiple"] is True


def test_colour_partial_not_scalar_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(colour, "ladder_partial_trace", lambda spec, ladder: (Rat(3, 32), False))
    code, out, err = run(
        capsys, "colour", "--r", "2", "--L", "2", "--sector", "pp", "--closure", "partial"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["cross_check"] is True
    assert payload["is_identity_multiple"] is False
    assert "Traceback" not in err


def test_ybe_single_point(capsys):
    code, out, _ = run(capsys, "ybe", "--r", "2", "--u", "2/3", "--v", "5/7")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == [{"u": "2/3", "v": "5/7", "pass": True}]
    assert payload["failures"] == []


def test_ybe_full_mode(capsys):
    code, out, _ = run(
        capsys, "ybe", "--r", "2", "--mode", "full", "--u", "1/3", "--v", "1/7"
    )
    assert code == 0
    assert json.loads(out)["failures"] == []


@pytest.mark.parametrize("point", [["--u", "1/3", "--v", "1/7"], []])
def test_ybe_full_mode_plain_form_is_refused_before_work(capsys, monkeypatch, point):
    # the full series is verified in braid form only
    _no_ybe_work(monkeypatch)
    code, out, err = run(capsys, "ybe", "--r", "2", "--mode", "full", "--form", "plain", *point)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--form plain" in err


def test_ybe_full_mode_without_form_writes_braid(capsys):
    code, out, _ = run(capsys, "ybe", "--r", "2", "--mode", "full", "--u", "1/3", "--v", "1/7")
    assert code == 0
    assert json.loads(out)["form"] == "braid"


def test_ybe_full_mode_grid_matches_the_record(capsys):
    code, out, _ = run(capsys, "ybe", "--r", "2", "--mode", "full")
    assert code == 0
    record = ybe.full_ybe_check(2)
    points = json.loads(out)["points"]
    assert len(points) == len(record.checks) == 49
    assert [f"point-u{p['u']}-v{p['v']}" for p in points] == [c.check_id for c in record.checks]


def _patch_work(monkeypatch, module, name, fn):
    """Replace module.name by fn, and a suite runner also in the table that
    report.run_suite calls it through.
    """
    real = getattr(module, name)
    monkeypatch.setattr(module, name, fn)
    for suite, runner in report._SUITE_RUNNERS.items():
        if runner is real:
            monkeypatch.setitem(report._SUITE_RUNNERS, suite, fn)


def _no_ybe_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a refused point")

    for name in (
        "ybe_check",
        "ybe_point",
        "plain_ybe_spot_check",
        "full_ybe_check",
    ):
        monkeypatch.setattr(ybe, name, no_work)


@pytest.mark.parametrize(
    "u, v",
    [("1/0", "1/2"), ("1/2", "0/0"), ("abc", "1/2"), ("1/2", "1/2/3"), ("0.5", "1/2"), ("", "1")],
)
@pytest.mark.parametrize("mode", ["sector", "full"])
def test_ybe_bad_spectral_parameter_is_usage_error(capsys, monkeypatch, u, v, mode):
    _no_ybe_work(monkeypatch)
    code, out, err = run(capsys, "ybe", "--r", "2", "--mode", mode, f"--u={u}", f"--v={v}")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "spectral parameter" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("form", ["braid", "plain"])
@pytest.mark.parametrize("u, v", [("-1", "1"), ("1", "-1"), ("-1/2", "-1/2"), ("5", "-6")])
def test_ybe_sector_pole_is_refused_before_work(capsys, monkeypatch, form, u, v):
    # the only pole of the r=2 family is -1, here at u, v or u + v
    _no_ybe_work(monkeypatch)
    code, out, err = run(capsys, "ybe", "--r", "2", "--form", form, f"--u={u}", f"--v={v}")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "pole" in err


def test_ybe_negative_point_off_the_poles_is_verified(capsys):
    code, out, _ = run(capsys, "ybe", "--r", "3", "--u=-1/2", "--v=-2/3")
    assert code == 0
    assert json.loads(out)["points"] == [{"u": "-1/2", "v": "-2/3", "pass": True}]


NEGATIVE_POINTS = [("-1/2", "5/7"), ("2/3", "-5/7"), ("-1/2", "-2/3"), ("-7/2", "1/3")]


@pytest.mark.parametrize("u, v", NEGATIVE_POINTS)
def test_ybe_negative_fraction_after_the_option(capsys, monkeypatch, u, v):
    seen = []

    def fake_check(r, eps, points):
        seen.append((r, eps, points))
        record = VerificationRecord(name="fake")
        for pu, pv in points:
            record.add(f"point-u{pu}-v{pv}", True)
        return record

    monkeypatch.setattr(ybe, "ybe_check", fake_check)
    code, out, err = run(capsys, "ybe", "--r", "3", "--u", u, "--v", v)
    assert code == 0, err
    assert seen == [(3, "+", [(Rat(u), Rat(v))])]
    assert json.loads(out)["points"] == [{"u": u, "v": v, "pass": True}]


@pytest.mark.parametrize("u, v", NEGATIVE_POINTS)
def test_ybe_full_mode_negative_fraction_after_the_option(capsys, monkeypatch, u, v):
    seen = []

    def fake_check(r, points):
        seen.append((r, points))
        record = VerificationRecord(name="fake")
        for pu, pv in points:
            record.add(f"point-u{pu}-v{pv}", True)
        return record

    monkeypatch.setattr(ybe, "full_ybe_check", fake_check)
    code, out, err = run(capsys, "ybe", "--r", "3", "--mode", "full", "--u", u, "--v", v)
    assert code == 0, err
    assert seen == [(3, [(Rat(u), Rat(v))])]
    assert json.loads(out)["points"] == [{"u": u, "v": v, "pass": True}]


@pytest.mark.parametrize(
    "u, message", [("-1/0", "spectral parameter"), ("-0/0", "spectral parameter"), ("-1/2/3", "expected one argument")]
)
def test_ybe_bad_negative_parameter_after_the_option(capsys, monkeypatch, u, message):
    _no_ybe_work(monkeypatch)
    code, out, err = run(capsys, "ybe", "--r", "3", "--u", u, "--v", "1/2")
    assert code == 2
    assert out == ""
    assert "usage error" in err and message in err


@pytest.mark.parametrize("mode", ["sector", "full"])
@pytest.mark.parametrize("point", [["--u", "2/3", "--v", "5/7"], ["--u", "2/3"], ["--v", "5/7"]])
def test_ybe_grid_with_a_point_is_refused_before_work(capsys, monkeypatch, mode, point):
    # --grid is no option: the grid runs when no point is given
    _no_ybe_work(monkeypatch)
    code, out, err = run(capsys, "ybe", "--r", "2", "--mode", mode, "--grid", *point)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--grid" in err


def test_ybe_missing_v_is_usage_error(capsys):
    code, _, err = run(capsys, "ybe", "--r", "2", "--u", "2/3")
    assert code == 2
    assert "usage error" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "definitely-not-a-command")
    assert code == 2


def test_bad_rank_is_usage_error(capsys):
    code, _, err = run(capsys, "report", "--r", "9")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--r", "1"),
        ("oracle", "--r", "7"),
        ("ybe", "--r", "9", "--mode", "full"),
        ("report", "--r", "2", "--r-max", "7"),
        ("gamma", "--r", "two"),
    ],
)
def test_rank_outside_range_is_refused_before_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for an out-of-range rank")

    for module, name in (
        (report, "oracle_suite"),
        (report, "run_suite"),
        (ybe, "admissible_grid"),
        (ybe, "full_ybe_check"),
    ):
        _patch_work(monkeypatch, module, name, no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "2..6" in err


def test_io_error_exit_code(capsys, tmp_path):
    missing_dir = tmp_path / "does" / "not" / "exist" / "report.json"
    code, _, err = run(capsys, "gamma", "--r", "2", "--out", str(missing_dir))
    assert code == 3
    assert "i/o error" in err


def test_out_file_and_env_dir(capsys, tmp_path, monkeypatch):
    target = tmp_path / "direct.json"
    code, out, _ = run(capsys, "gamma", "--r", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ok"] is True

    # --out is the one way to write a file: SPINCAS_OUT names no directory
    target.unlink()
    monkeypatch.setenv("SPINCAS_OUT", str(tmp_path))
    code, out, _ = run(capsys, "spectra", "--r", "2", "--format", "csv")
    assert code == 0
    assert out.startswith("sector,k,")
    code, out, _ = run(capsys, "report", "--r", "2", "--r-max", "3", "--suites", "gamma")
    assert code == 0
    assert json.loads(out)["config"]["r_max"] == 3
    assert list(tmp_path.iterdir()) == []


def test_report_determinism(capsys):
    """Identical invocations produce byte-identical artifacts."""
    _, first, _ = run(capsys, "report", "--r", "2", "--suites", "gamma,spectra")
    _, second, _ = run(capsys, "report", "--r", "2", "--suites", "gamma,spectra")
    assert first == second
    assert "wall time" not in first


def test_report_csv_format(capsys):
    code, out, _ = run(
        capsys, "report", "--r", "2", "--suites", "gamma", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,r,record,check,status,witness"
    assert all(line.startswith("gamma,2,") for line in lines[1:])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("gamma", "--r", "2", "--jobs", "4"), "--jobs"),
        (("ybe", "--r", "2", "--grid"), "--grid"),
        (("spectra", "--r", "2", "--tables"), "--tables"),
    ],
    ids=["jobs", "grid", "tables"],
)
def test_removed_switches_are_refused_before_work(capsys, monkeypatch, argv, flag):
    # each selected nothing that another way to ask did not already select
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a removed switch")

    _no_ybe_work(monkeypatch)
    for module, name in ((report, "run_suite"), (report, "emit_tables"), (ybe, "grid_points")):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage error: unrecognized arguments: " + flag in err


def test_empty_suites_report(capsys, monkeypatch):
    # a report that selects no suite verifies nothing, so it is refused
    def no_work(*args, **kwargs):
        raise AssertionError("work started for an empty suite list")

    monkeypatch.setattr(report, "run_suite", no_work)
    for suites in ("", ",", ",,"):
        code, out, err = run(capsys, "report", "--r", "2", "--suites", suites)
        assert code == 2
        assert out == ""
        assert "usage error: no suite selected" in err
    with pytest.raises(ValueError, match="no suite selected"):
        report.SuiteConfig(suites=())


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (("colour", "--r", "2", "--L", "2"), colour, "colour_report"),
        (("ybe", "--r", "2", "--u", "2/3", "--v", "5/7"), ybe, "ybe_check"),
    ],
    ids=["colour", "ybe"],
)
def test_csv_format_is_refused_where_only_json_is_written(capsys, monkeypatch, tmp_path, argv, module, name):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a refused format")

    monkeypatch.setattr(module, name, no_work)
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--format", "csv", "--out", str(target))
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--format" in err and "'csv'" in err
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    code, _, _ = run(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--r", "2", "--suites", "foo"),
        ("report", "--r", "2", "--suites", "gamma,foo"),
        ("report", "--r", "4", "--r-max", "3"),
        ("colour", "--r", "2", "--L", "99"),
        ("colour", "--r", "2", "--L", "-1"),
    ],
)
def test_bad_report_or_colour_arguments_are_refused_before_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for refused arguments")

    for module, name in ((report, "run_suite"), (colour, "colour_report")):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "exc", [ValueError("bad value"), RuntimeError("bad state"), RecursionError("too deep")]
)
@pytest.mark.parametrize(
    "argv, module, name",
    [
        (("report", "--r", "2", "--suites", "gamma"), report, "run_suite"),
        (("oracle", "--r", "2"), report, "oracle_suite"),
        (("ybe", "--r", "2", "--u", "2/3", "--v", "5/7"), ybe, "ybe_check"),
    ],
)
def test_an_exception_in_the_work_is_an_internal_error(capsys, monkeypatch, exc, argv, module, name):
    def broken(*args, **kwargs):
        raise exc

    _patch_work(monkeypatch, module, name, broken)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith(f"internal error: {type(exc).__name__}: {exc}")
    assert "usage error" not in err and "i/o error" not in err


def test_version_has_one_source():
    # the package version, stamped into every artifact, is the one pyproject reads
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        config = tomllib.load(f)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "spincas.__version__"}
