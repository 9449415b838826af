"""End-to-end tests of the command-line interface.

Everything runs in-process through main(argv) so exit codes and stdout can
be asserted without subprocess overhead; file outputs land in tmp dirs.
"""

import json

import pytest

from covergap.cli import main


def test_selberg_table_end_to_end(tmp_path, capsys):
    rc = main([
        "selberg-table", "--out", str(tmp_path),
        "--t-list", "1.0", "--real-r-list", "0", "--imag-a-list", "0,0.5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "selberg_table.csv" in out
    assert (tmp_path / "selberg_table.csv").exists()
    assert (tmp_path / "selberg_table_meta.json").exists()


def test_every_config_flag_reaches_the_config(tmp_path, capsys):
    # flag, text, value read back from the sidecar's config
    flags = {
        "seed": ("--seed", "7", 7),
        "output_dir": ("--out", str(tmp_path), str(tmp_path)),
        "format": ("--format", "json", "json"),
        "t": ("--t", "0.75", 0.75),
        "grid_m": ("--grid-m", "60", 60),
        "genus": ("--genus", "2", 2),
        "n_list": ("--n-list", "3,5", [3, 5]),
        "samples_per_n": ("--samples-per-n", "3", 3),
        "truncation_r_list": ("--truncation-r-list", "2,8", [2, 8]),
        "epsilon_list": ("--eps-list", "0.05", [0.05]),
        "t_list": ("--t-list", "0.5", [0.5]),
        "real_r_list": ("--real-r-list", "0,1.5", [0.0, 1.5]),
        "imag_a_list": ("--imag-a-list", "0.25", [0.25]),
        "radius_list": ("--radius-list", "1,3", [1.0, 3.0]),
        "n_max": ("--n-max", "3", 3),
        "gof_draws": ("--gof-draws", "5000", 5000),
        "require_transitive": ("--require-transitive", None, True),
    }
    argv = ["selberg-table"]
    for flag, text, _ in flags.values():
        argv += [flag] if text is None else [flag, text]
    assert main(argv) == 0
    config = json.loads((tmp_path / "selberg_table_meta.json").read_text())["config"]
    assert set(config) - set(flags) == {"gof_alpha"}  # the one file-only key
    assert {key: config[key] for key in flags} == {
        key: value for key, (_, _, value) in flags.items()}


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "t_list": [1.0], "real_r_list": [0.0], "imag_a_list": [],
        "output_dir": str(tmp_path),
    }))
    rc = main(["selberg-table", "--config", str(cfgfile), "--t-list", "0.5"])
    assert rc == 0
    rows = (tmp_path / "selberg_table.csv").read_bytes().decode().split("\r\n")
    assert rows[1].startswith("0.5,")  # flag value, not the file's 1.0


def test_usage_error_exit_code(tmp_path, capsys):
    rc = main(["gap-sweep", "--grid-m", "10", "--out", str(tmp_path)])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": 100}))
    rc = main(["lattice-count", "--config", str(cfgfile)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_config_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("not json at all {")
    rc = main(["lattice-count", "--config", str(cfgfile)])
    assert rc == 2


@pytest.mark.parametrize("body, code", [
    ({"n_list": 4}, 2),
    ({"n_list": "4,8"}, 2),
    ({"t": "abc"}, 2),
    ({"samples_per_n": "3"}, 2),
    ({"require_transitive": "no"}, 2),
    ({"seed": "x"}, 2),
    ({"grid_m": 400.5}, 2),
    ({"seed": True}, 2),
    ({"t": 1}, 0),  # an int is a valid float
])
def test_config_value_types_exit_code(tmp_path, capsys, body, code):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(body))
    rc = main(["selberg-table", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == code
    assert ("usage error" in capsys.readouterr().err) == (code == 2)


def test_radius_above_enumeration_cap_exit_code(tmp_path, capsys):
    rc = main(["lattice-count", "--out", str(tmp_path), "--radius-list", "0,13"])
    assert rc == 2
    assert "enumeration cap" in capsys.readouterr().err


def test_t_list_past_enumeration_cap_exit_code(tmp_path, capsys):
    # support_set would search out to about 4.9 + 8 > 12
    rc = main(["lattice-count", "--out", str(tmp_path), "--t-list", "8"])
    assert rc == 2
    assert "enumeration cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["lattice-count", "--t-list", ""], "t_list must be nonempty"),
    (["selberg-table", "--t-list", ""], "t_list must be nonempty"),
    (["gap-sweep", "--n-list", "2,2", "--samples-per-n", "2"],
     "n_list must be nonempty and strictly ascending"),
    # would write four identical rows
    (["selberg-table", "--t-list", "1,1", "--real-r-list", "0,0",
      "--imag-a-list", ""], "t_list must be nonempty with distinct"),
    (["selberg-table", "--real-r-list", "0,0"], "must be distinct"),
    (["selberg-table", "--real-r-list", "", "--imag-a-list", ""],
     "must not both be empty"),
    # would write a header-only table
    (["strong-convergence", "--eps-list", ""], "epsilon_list must be nonempty"),
    (["strong-convergence", "--eps-list", "0.1,0.1"],
     "epsilon_list must be nonempty with distinct"),
    # would write a row of nan, or never return: cosh(nan) disables pruning
    (["selberg-table", "--t-list", "nan"], "t_list entries must be finite"),
    (["strong-convergence", "--eps-list", "0.1,inf"],
     "epsilon_list entries must be finite"),
    (["selberg-table", "--t-list", "1", "--real-r-list", "nan",
      "--imag-a-list", ""], "real_r_list entries must be finite"),
    (["selberg-table", "--real-r-list", "0,inf"], "real_r_list entries must be finite"),
    (["lattice-count", "--radius-list", "nan", "--t-list", "1"],
     "radius_list entries must be finite"),
    (["lattice-count", "--radius-list", "1,inf"], "radius_list entries must be finite"),
])
def test_bad_list_exit_code(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_numerical_failure_exit_code(tmp_path, capsys):
    # statistical failure path: alpha so close to 1 that the sampler's
    # chi-square p-value cannot clear it
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"gof_alpha": 0.999999}))
    rc = main([
        "sampler-validate", "--config", str(cfgfile), "--out", str(tmp_path),
        "--n-max", "2", "--gof-draws", "2000",
    ])
    assert rc == 1
    assert "numerical failure" in capsys.readouterr().err
    assert json.loads((tmp_path / "sampler_validate.json").read_text())["pass"] is False


def test_gap_sweep_rejects_threads_and_repeats_byte_identical(tmp_path, capsys):
    argv = ["gap-sweep", "--seed", "9", "--grid-m", "50", "--n-list", "2,3",
            "--samples-per-n", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x"), "--threads", "2"])
    assert exc.value.code == 2
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(argv + ["--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "gap_sweep.csv").read_bytes() == (b / "gap_sweep.csv").read_bytes()
    assert (a / "gap_sweep_summary.json").read_bytes() == \
        (b / "gap_sweep_summary.json").read_bytes()


def test_json_format_output(tmp_path, capsys):
    rc = main([
        "lattice-count", "--out", str(tmp_path), "--format", "json",
        "--radius-list", "0,4", "--t-list", "1.0",
    ])
    assert rc == 0
    recs = json.loads((tmp_path / "lattice_count.json").read_text())
    assert isinstance(recs, list) and recs
    assert {"kind", "parameter", "count", "C_hat"} <= set(recs[0])


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
