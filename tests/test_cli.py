"""Command-line interface: artifacts, exit codes, overrides."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from infoot import load_spec, spec_from_dict
from infoot.cli import _COMMANDS, _build_parser, main

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
SPECS = ["adaptation", "imbalance", "outliers", "retrieval", "single_point",
         "two_cluster_rotated"]


# The real-valued settings of the solver and generator sections.
_SOLVER_REALS = ("lam", "eps", "bandwidth", "outer_tol", "inner_tol")
_GENERATOR_REALS = ("rotation", "spread", "separation", "outlier_scale")


def _write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _spec_data(**over):
    data = {
        "generator": {"sizes": [5, 5], "seed": 3, "rotation": 0.4},
        "solver": {"lam": 10.0, "eps": 1.0, "bandwidth": 0.5,
                   "outer_iters": 20, "inner_max_iter": 2000,
                   "inner_tol": 1e-8},
        "projection": {"mode": "conditional"},
    }
    data.update(over)
    return data


def test_generate_writes_points_and_report(tmp_path):
    spec = _write_spec(tmp_path, _spec_data())
    out = tmp_path / "run"
    assert main(["generate", spec, "--out", str(out)]) == 0
    for name in ("points_source.csv", "points_target.csv",
                 "plot_points.csv", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"] == {}
    assert report["config"]["generator"]["seed"] == 3
    header = (out / "plot_points.csv").read_text().splitlines()[0]
    assert header == "domain,index,cluster,x0,x1,proj_x0,proj_x1"


@pytest.mark.parametrize("name", SPECS)
def test_report_config_reproduces_the_spec(tmp_path, name):
    path = SPEC_DIR / f"{name}.json"
    out = tmp_path / "run"
    assert main(["generate", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert spec_from_dict(report["config"]) == replace(load_spec(path),
                                                       out=str(out))


def test_help_lists_the_command_table(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    listed = lines[lines.index("commands:") + 1:]
    assert listed == [f"  {name:<20}{text}"
                      for name, (text, _) in _COMMANDS.items()]
    assert len(listed) == 6
    (command,) = [a for a in _build_parser()._actions if a.dest == "command"]
    assert list(command.choices) == list(_COMMANDS)


# The exit code and the start of the first stderr line of every shipped
# spec under every command that does not exit 0 with nothing on stderr.
_NOT_CLEAN = {
    # Without the class cost, 50 outer steps are too few at these settings.
    ("imbalance", "solve"):
        (2, "warning: fit did not converge: 50 outer steps, "),
    ("imbalance", "project"):
        (2, "warning: fit did not converge: 50 outer steps, "),
    ("single_point", "adapt"):
        (1, "error: adapt needs at least two target samples: it holds out a "
            "tenth of them to score the label transfer; the spec generates 1"),
    ("single_point", "retrieve"):
        (1, "error: retrieve needs at least two source samples: it holds out "
            "a tenth of them as queries; the spec generates 1"),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("name", SPECS)
def test_every_spec_under_every_command(tmp_path, capsys, name, command):
    code = main([command, str(SPEC_DIR / f"{name}.json"),
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.splitlines()
    want_code, want_first = _NOT_CLEAN.get((name, command), (0, None))
    assert code == want_code
    if want_first is None:
        assert err == []
    else:
        assert err[0].startswith(want_first)


def test_solve_writes_coupling(tmp_path, capsys):
    spec = _write_spec(tmp_path, _spec_data())
    out = tmp_path / "run"
    assert main(["solve", spec, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    coupling = np.loadtxt(out / "coupling.csv", delimiter=",")
    assert coupling.shape == (10, 10)
    assert abs(coupling.sum() - 1.0) < 1e-9
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["converged"] == 1.0


def test_project_writes_projection(tmp_path):
    spec = _write_spec(tmp_path, _spec_data())
    out = tmp_path / "run"
    assert main(["project", spec, "--out", str(out)]) == 0
    lines = (out / "projection.csv").read_text().splitlines()
    assert lines[0] == "query_id,x0,x1"
    assert len(lines) == 11
    assert lines[1].split(",")[0] == "0"


def test_single_point_coupling_is_scalar_one(tmp_path):
    data = _spec_data(generator={"sizes": [1], "seed": 0, "spread": 0.0})
    spec = _write_spec(tmp_path, data)
    out = tmp_path / "run"
    assert main(["solve", spec, "--out", str(out)]) == 0
    assert (out / "coupling.csv").read_text() == "1.0\n"


def test_adapt_and_retrieve_artifacts(tmp_path):
    adapt_data = _spec_data(
        generator={"sizes": [10, 10], "seed": 4, "identity": True},
        solver={"lam": 100.0, "bandwidth": 0.5, "outer_iters": 20,
                "inner_max_iter": 2000, "inner_tol": 1e-8},
        class_penalty=5000.0)
    adapt = _write_spec(tmp_path, adapt_data, name="adapt.json")
    out_a = tmp_path / "adapt"
    assert main(["adapt", adapt, "--out", str(out_a)]) == 0
    report = json.loads((out_a / "report.json").read_text())
    assert report["metrics"]["accuracy"] == 1.0
    assert (out_a / "projection.csv").exists()

    # A null class penalty is the plain source cost, as an omitted one is.
    plain = {k: v for k, v in adapt_data.items() if k != "class_penalty"}
    outs = {}
    for name, data in (("null", plain | {"class_penalty": None}),
                       ("omitted", plain)):
        spec = _write_spec(tmp_path, data, name=f"{name}.json")
        outs[name] = tmp_path / name
        assert main(["adapt", spec, "--out", str(outs[name])]) == 0
    report = json.loads((outs["null"] / "report.json").read_text())
    assert report["config"]["class_penalty"] is None
    for artifact in ("coupling.csv", "projection.csv"):
        assert (outs["null"] / artifact).read_bytes() == \
            (outs["omitted"] / artifact).read_bytes()

    retrieve = _write_spec(tmp_path, _spec_data(
        generator={"sizes": [12, 12], "seed": 6, "rotation": 0.3,
                   "spread": 0.25},
        solver={"lam": 100.0, "bandwidth": 0.5, "outer_iters": 20,
                "inner_max_iter": 2000, "inner_tol": 1e-8},
    ), name="retrieve.json")
    out_r = tmp_path / "retrieve"
    assert main(["retrieve", retrieve, "--out", str(out_r)]) == 0
    scores = np.loadtxt(out_r / "scores.csv", delimiter=",")
    assert scores.shape == (2, 24)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-10)


def test_exit_1_on_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "class_penalty": oops\n}\n')
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "bad.json:2" in err

    unknown = _write_spec(tmp_path, _spec_data(mystery=1), name="unk.json")
    assert main(["solve", unknown, "--out", str(tmp_path / "o")]) == 1
    assert "unknown spec keys" in capsys.readouterr().err

    negative = _write_spec(tmp_path, _spec_data(solver={"seed": -1}),
                           name="neg.json")
    assert main(["solve", negative, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed must be at least 0, got -1"]

    missing = str(tmp_path / "nope.json")
    assert main(["solve", missing, "--out", str(tmp_path / "o")]) == 1


def test_exit_1_without_out_dir(tmp_path, capsys):
    spec = _write_spec(tmp_path, _spec_data())
    assert main(["solve", spec]) == 1
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--epsilon", "nan", "eps must be positive", id="epsilon-nan"),
    pytest.param("--epsilon", "inf", "eps must be positive", id="epsilon-inf"),
    pytest.param("--lambda", "inf", "lam must be nonnegative", id="lambda-inf"),
    pytest.param("--bandwidth", "inf", "bandwidth must be positive",
                 id="bandwidth-inf"),
    pytest.param("--seed", "-1", "seed must be at least 0, got -1",
                 id="seed-negative"),
])
def test_exit_1_on_nan_override(tmp_path, capsys, flag, value, message):
    spec = _write_spec(tmp_path, _spec_data())
    out = tmp_path / "run"
    assert main(["solve", spec, flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("over", [
    {"generator": {"sizes": 5, "seed": 3}},
    {"solver": {"lam": "x"}},
    {"generator": {"sizes": [5, 5], "seed": "a"}},
    {"generator": {"sizes": [5, 5], "seed": 1.5}},
    {"generator": 5},
    {"solver": None},
    {"solver": {"outer_iters": 2.5}},
    {"solver": {"inner_max_iter": 2.5}},
    {"solver": {"outer_iters": True}},
    {"generator": {"sizes": [2.5, 3], "seed": 3}},
    {"generator": {"sizes": [5, 5], "seed": 3, "target_sizes": [5, 2.5]}},
    {"generator": {"sizes": [5, 5], "seed": 3, "outliers": 2.5}},
    {"generator": {"sizes": [5, 5], "seed": 3, "outliers": True}},
    {"generator": {"sizes": [5, 5], "seed": 3, "rotation": "x"}},
    *({"generator": {"sizes": [5, 5], "seed": 3, "identity": bad}}
      for bad in ("false", 1, None)),
    *({"solver": {"seed": bad}} for bad in ("x", 1.5, True)),
    *({"solver": {name: bad}} for name in _SOLVER_REALS for bad in (True, "1")),
    *({"generator": {"sizes": [5, 5], "seed": 3, name: bad}}
      for name in _GENERATOR_REALS for bad in (True, "1")),
    {"projection": {"bandwidth": True}},
    {"projection": {"bandwidth": "0.5"}},
    {"bandwidth_grid": ["0.5"]},
    {"bandwidth_grid": [0.5, True]},
    {"class_penalty": "5000"},
    {"class_penalty": True},
    {"out": 3},
])
def test_exit_1_on_value_of_wrong_type(tmp_path, capsys, over):
    spec = _write_spec(tmp_path, _spec_data(**over))
    assert main(["solve", spec, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    # A top-level key is a value of the spec section itself.
    key = next(iter(over))
    section = key if key in ("generator", "solver", "projection") else "spec"
    assert len(err) == 1 and err[0].startswith(f"error: invalid {section} ")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [
    *(("solver", name) for name in _SOLVER_REALS),
    *(("generator", name) for name in _GENERATOR_REALS),
    ("projection", "bandwidth"), ("spec", "bandwidth_grid"),
    ("spec", "class_penalty")], ids=lambda field: ".".join(field))
def test_exit_1_on_non_finite_spec_value(tmp_path, capsys, field, bad):
    # JSON written by Python may carry NaN and Infinity; no real setting
    # takes them, and the one error line names the field.
    section, name = field
    data = _spec_data()
    value = [0.5, bad] if name == "bandwidth_grid" else bad
    if section == "spec":
        data[name] = value
    else:
        data[section] = data[section] | {name: value}
    spec = _write_spec(tmp_path, data)
    assert main(["solve", spec, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert name in err[0] and "finite" in err[0]
    assert not (tmp_path / "o").exists()


def test_every_command_writes_lf_csvs_that_round_trip(tmp_path,
                                                      monkeypatch):
    import infoot.cli

    returned = {}

    def recorded(name, original):
        def wrapper(spec):
            returned[name] = original(spec)
            return returned[name]
        return wrapper

    for name in ("solve_pipeline", "project_pipeline",
                 "adaptation_pipeline", "retrieval_pipeline"):
        monkeypatch.setattr(infoot.cli, name,
                            recorded(name, getattr(infoot.cli, name)))
    # 16 targets: retrieval scores precision at k up to 15.
    spec = _write_spec(tmp_path, _spec_data(
        generator={"sizes": [8, 8], "seed": 3, "rotation": 0.4},
        bandwidth_grid=[0.5]))
    outs = {}
    for command in ("generate", "solve", "project", "adapt", "retrieve",
                    "validate-bandwidth"):
        outs[command] = tmp_path / command
        assert main([command, spec, "--out", str(outs[command])]) == 0
    written = sorted(tmp_path.glob("*/*.csv"))
    assert {p.name for p in written} == {
        "points_source.csv", "points_target.csv", "plot_points.csv",
        "coupling.csv", "projection.csv", "scores.csv"}
    for path in written:
        assert b"\r" not in path.read_bytes(), path

    def read(command, name, **kwargs):
        return np.loadtxt(outs[command] / name, delimiter=",", ndmin=2,
                          **kwargs)

    for command, name in (("solve", "solve_pipeline"),
                          ("project", "project_pipeline"),
                          ("adapt", "adaptation_pipeline"),
                          ("retrieve", "retrieval_pipeline")):
        fit = returned[name][1]
        assert np.array_equal(read(command, "coupling.csv"),
                              fit.result.coupling.values)
    for command, name in (("project", "project_pipeline"),
                          ("adapt", "adaptation_pipeline")):
        projection = read(command, "projection.csv", skiprows=1)
        assert np.array_equal(projection[:, 0],
                              np.arange(projection.shape[0]))
        assert np.array_equal(projection[:, 1:], returned[name][3])
    assert np.array_equal(read("retrieve", "scores.csv"),
                          returned["retrieval_pipeline"][3].values)


def test_exit_2_on_nonconvergence_still_writes(tmp_path, capsys):
    # one outer iteration with a starved inner budget cannot converge
    data = _spec_data(solver={"lam": 100.0, "bandwidth": 0.5,
                              "outer_iters": 1, "inner_max_iter": 2,
                              "inner_tol": 1e-12})
    spec = _write_spec(tmp_path, data)
    out = tmp_path / "run"
    assert main(["solve", spec, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["converged"] == 0.0
    assert (out / "coupling.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning:")
    assert "1 outer steps" in err[0]
    assert "inner solves did not all converge" in err[0]


def test_overrides_change_resolved_config(tmp_path):
    spec = _write_spec(tmp_path, _spec_data())
    out = tmp_path / "run"
    assert main(["solve", spec, "--out", str(out), "--lambda", "0",
                 "--epsilon", "0.5", "--bandwidth", "0.7",
                 "--seed", "11"]) == 0
    cfg = json.loads((out / "report.json").read_text())["config"]
    assert cfg["solver"]["lam"] == 0.0
    assert cfg["solver"]["eps"] == 0.5
    assert cfg["solver"]["bandwidth"] == 0.7
    assert cfg["generator"]["seed"] == 11
    assert cfg["solver"]["seed"] == 11
    assert cfg["out"] == str(out)


def test_mode_override_switches_projection(tmp_path):
    spec = _write_spec(tmp_path, _spec_data())
    out_c = tmp_path / "cond"
    out_b = tmp_path / "bary"
    assert main(["project", spec, "--out", str(out_c)]) == 0
    assert main(["project", spec, "--out", str(out_b),
                 "--mode", "barycentric"]) == 0
    cond = np.loadtxt(out_c / "projection.csv", delimiter=",", skiprows=1)
    bary = np.loadtxt(out_b / "projection.csv", delimiter=",", skiprows=1)
    assert cond.shape == bary.shape
    assert np.abs(cond[:, 1:] - bary[:, 1:]).max() > 1e-12


def test_spec_out_key_used_when_no_flag(tmp_path):
    out = tmp_path / "from_spec"
    spec = _write_spec(tmp_path, _spec_data(out=str(out)))
    assert main(["generate", spec]) == 0
    assert (out / "report.json").exists()


def test_import_loads_no_scipy():
    code = ("import sys, infoot, infoot.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "infoot.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate-bandwidth" in proc.stdout
    script = subprocess.run(["infoot", "--help"], capture_output=True,
                            text=True)
    assert script.returncode == 0
    assert "solve" in script.stdout
