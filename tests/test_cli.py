"""End-to-end tests of the command-line interface.

Everything runs in-process through main(argv) so exit codes and stdout can
be asserted without subprocess overhead; file outputs land in tmp dirs. The
one exception is the import-cost check, which needs a fresh interpreter.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covergap.experiments as experiments
from covergap.cli import main
from covergap.symmetric_group import MAX_N, evaluate_word


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
    # the second is valid JSON, but Python's json refuses integers of more
    # than 4300 digits; the third nests arrays past the parser's stack
    for text in ("not json at all {", '{"seed": 1' + "0" * 5000 + "}",
                 "[" * 100000 + "]" * 100000):
        cfgfile.write_text(text)
        rc = main(["lattice-count", "--config", str(cfgfile)])
        assert rc == 2
        assert "usage error: cannot parse config file" in capsys.readouterr().err


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
    ({"t": 10 ** 400}, 2),  # but not one too large for a float
    ({"t": None}, 2),  # a file value of null is not the default
    ({"real_r_list": None}, 2),
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


@pytest.mark.parametrize("command", ["gap-sweep", "truncation-study"])
def test_grid_m_above_cap_exit_code(tmp_path, capsys, monkeypatch, command):
    # one above the documented cap of 10000; the cap is checked before any
    # set-up work, so neither runs
    def forbidden(*args, **kwargs):
        raise RuntimeError("set-up must not start")

    monkeypatch.setattr(experiments, "support_set", forbidden)
    monkeypatch.setattr(experiments, "build_grid", forbidden)
    assert main([command, "--out", str(tmp_path), "--grid-m", "10001"]) == 2


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


@pytest.mark.parametrize("command", ["selberg-table", "gap-sweep"])
def test_unusable_output_dir_exit_code(tmp_path, capsys, monkeypatch, command):
    # rejected before any work: the sweep draws no tuple
    draws = []
    sample = experiments.sample_uniform_hom

    def counted(*args, **kwargs):
        draws.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample_uniform_hom", counted)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main([command, "--grid-m", "50", "--n-list", "2", "--samples-per-n", "1",
               "--out", str(blocker / "sub")])
    assert rc == 2
    assert "usage error: cannot use output directory" in capsys.readouterr().err
    assert draws == []
    assert blocker.read_text() == ""


def test_unwritable_output_file_exit_code(tmp_path, capsys):
    # a directory where the data file goes: exit 2 with one line, as for
    # an unusable --out, not a traceback
    (tmp_path / "selberg_table.csv").mkdir()
    rc = main(["selberg-table", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write ")
    assert "selberg_table.csv" in err and err.count("\n") == 1


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
    with open(tmp_path / "sampler_validate.csv", newline="") as f:
        assert [row["pass"] for row in csv.DictReader(f)] == ["False"]


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


def test_gap_sweep_above_the_old_degree_cap(tmp_path, capsys, monkeypatch):
    # n = 20 and MAX_N = 24 draw, build and solve end to end; n = 25 is a
    # usage error before any work
    drawn = []
    sample = experiments.sample_uniform_hom

    def recorded(*args, **kwargs):
        drawn.append(sample(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(experiments, "sample_uniform_hom", recorded)
    rc = main(["gap-sweep", "--n-list", f"20,{MAX_N}", "--grid-m", "50",
               "--samples-per-n", "1", "--require-transitive", "--out", str(tmp_path)])
    assert rc == 0 and MAX_N == 24
    assert {t.n for t in drawn} == {20, 24}
    relator = (1, 2, -1, -2, 3, 4, -3, -4)
    assert all(t.relation_ok and evaluate_word(t, relator).is_identity() for t in drawn)
    with open(tmp_path / "gap_sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["n"], r["transitive"]) for r in rows] == [("20", "True"), ("24", "True")]
    for r in rows:
        for key in ("op_norm", "lambda_lower_bound", "krylov_residual"):
            assert math.isfinite(float(r[key]))
    capsys.readouterr()
    rc = main(["gap-sweep", "--n-list", f"{MAX_N + 1}", "--grid-m", "50",
               "--samples-per-n", "1", "--out", str(tmp_path / "over")])
    assert rc == 2
    assert "cover degree 25 outside [2, 24]" in capsys.readouterr().err


def test_negative_seed_exit_code(tmp_path, capsys):
    # rejected before any set-up; the seed would reach default_rng
    rc = main(["truncation-study", "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_strong_convergence_writes_both_tables(tmp_path, capsys):
    rc = main(["strong-convergence", "--grid-m", "50", "--n-list", "2",
               "--samples-per-n", "2", "--out", str(tmp_path)])
    assert rc == 0
    wrote = [line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()]
    names = ["gap_sweep.csv", "gap_sweep_summary.json", "gap_sweep_meta.json",
             "strong_convergence.csv", "strong_convergence_meta.json"]
    assert wrote == [str(tmp_path / name) for name in names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_json_format_output(tmp_path, capsys):
    rc = main([
        "lattice-count", "--out", str(tmp_path), "--format", "json",
        "--radius-list", "0,4", "--t-list", "1.0",
    ])
    assert rc == 0
    recs = json.loads((tmp_path / "lattice_count.json").read_text())
    assert isinstance(recs, list) and recs
    assert {"kind", "parameter", "count", "C_hat"} <= set(recs[0])


def test_every_table_follows_format(tmp_path):
    # every table, sampler-validate's included, is one file in the
    # requested format, and its JSON rows hold the CSV's cells as values
    flags = {
        "selberg-table": ["--t-list", "1.0", "--real-r-list", "0,1",
                          "--imag-a-list", "0.25"],
        "lattice-count": ["--radius-list", "0,4", "--t-list", "1.0"],
        "sampler-validate": ["--n-max", "2", "--gof-draws", "1000"],
    }
    for command, extra in flags.items():
        name = command.replace("-", "_")
        tables = {}
        for fmt in ("csv", "json"):
            out = tmp_path / command / fmt
            assert main([command, "--out", str(out), "--format", fmt, *extra]) == 0
            assert sorted(p.name for p in out.iterdir()) == [f"{name}.{fmt}",
                                                             f"{name}_meta.json"]
            tables[fmt] = out / f"{name}.{fmt}"
        with open(tables["csv"], newline="") as f:
            csv_rows = list(csv.DictReader(f))
        json_rows = json.loads(tables["json"].read_text())
        assert csv_rows
        assert [{k: str(v) for k, v in row.items()} for row in json_rows] == csv_rows


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats alone costs about a third of the CLI's import memory and
    # half its import time; other tests load it into this process, so only
    # a fresh interpreter can tell
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, covergap.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
