"""End-to-end command line runs against temp directories.

Everything goes through ``main(argv)`` in-process so exit codes and
stdout are observable; one subprocess smoke test covers the installed
console script.  Artifact determinism is asserted at the byte level.
"""

import json
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import mfgstop.cli
import mfgstop.mfg
import mfgstop.obstacle
from mfgstop import Iterate, complementarity_report, evaluate_reward, solve_vi
from mfgstop.cli import (
    MC_SUBSTEPS,
    build_instance,
    grid_csv_text,
    load_config,
    main,
    read_grid_csv,
)
from mfgstop.errors import VerificationFailure
from conftest import (
    per_value_grid_csv_text,
    src_env,
    substepped_totals,
    whole_grid_stop_region_integral,
)

DECOUPLED = """\
[grid]
T = 1.0
a = 0.0
b = 1.0
K = 8
J = 6

[model]
mu.kind = constant
mu.params = 0.0
sigma.kind = constant
sigma.params = 0.5

[initial]
kind = uniform

[reward]
term1.fbar.kind = linear
term1.fbar.params = 0.7 0.0
term1.g.kind = affine
term1.g.params = 0.3 0.5

[algorithm]
eps_tol = 1e-9
"""

STOP_NOW = """\
[grid]
T = 1.0
a = 0.0
b = 1.0
K = 6
J = 5

[model]
mu.kind = constant
mu.params = 0.0
sigma.kind = constant
sigma.params = 0.5

[initial]
kind = uniform

[reward]
h.kind = constant
h.params = -1.0
"""

NEVER_STOP = STOP_NOW.replace("h.params = -1.0", "h.params = 1.0").replace(
    "kind = uniform", "kind = atom(0.41)")

BUMP = """\
[grid]
T = 1.0
a = -3.0
b = 3.0
K = 60
J = 59

[model]
mu.kind = constant
mu.params = 0.0
sigma.kind = constant
sigma.params = 0.5

[initial]
kind = tabulated(masses.txt)

[reward]
h.kind = polynomial
h.params = 1.44 0.0 -1.0

[mc]
n_paths = 2000
seed = 0
"""


def _cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _run(args, capsys=None):
    code = main(args)
    if capsys is None:
        return code, ""
    return code, capsys.readouterr().out


def _grid(cfg):
    """The grid of the config file at cfg."""
    return build_instance(load_config(cfg), str(pathlib.Path(cfg).parent)).grid


def _bump_cfg(tmp_path):
    x = np.linspace(-3.0, 3.0, 61)[1:-1]
    w = np.exp(-0.5 * (x / 0.5) ** 2)
    np.savetxt(tmp_path / "masses.txt", w / w.sum())
    return _cfg(tmp_path, BUMP, "bump.ini")


# ----------------------------------------------------------------------
# solve-mfg


def test_solve_mfg_decoupled_run(tmp_path, capsys):
    cfg = _cfg(tmp_path, DECOUPLED)
    out = tmp_path / "out"
    code, text = _run(["solve-mfg", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    assert "converged after 1 iterations" in text

    for name in ("value.csv", "measure.csv", "trace.csv", "moment.csv",
                 "ledger.json", "summary.json"):
        assert (out / name).exists()

    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 1
    assert summary["exploitability"] == 0.0
    assert summary["duality_gap"] <= 1e-12

    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,F,eps,rho"
    assert len(trace_lines) == 2

    moment_lines = (out / "moment.csv").read_text().splitlines()
    assert moment_lines[0] == "t,y1"
    assert len(moment_lines) == 1 + 9


def test_solve_mfg_is_byte_deterministic(tmp_path):
    cfg = _cfg(tmp_path, DECOUPLED)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve-mfg", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["solve-mfg", "--config", cfg, "--out", str(b), "--quiet"]) == 0
    for name in ("value.csv", "measure.csv", "trace.csv", "moment.csv",
                 "ledger.json", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_measure_csv_round_trips_bitwise(tmp_path):
    cfg = _cfg(tmp_path, DECOUPLED)
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    path = out / "measure.csv"
    from mfgstop import build_grid
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=8, J=6)
    masses = read_grid_csv(str(path), grid)
    assert grid_csv_text(grid, masses) == path.read_text()


def test_grid_csv_text_matches_the_per_value_formatter():
    from mfgstop import build_grid
    grid = build_grid(T=2.0, a=-1.0, b=3.0, K=7, J=9)
    values = np.random.default_rng(3).standard_normal((8, 9)) * 10.0 ** np.arange(-4, 5)
    values[1, :6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308]
    values[2] = 0.0
    values[3, :3] = [1 / 3, -2.5e-300, 123456789012345678.0]
    text = grid_csv_text(grid, values)
    assert text == per_value_grid_csv_text(grid, values)
    cells = [line.split(",")[2] for line in text.splitlines()[1 + 9:1 + 9 + 6]]
    assert cells == ["-0", "nan", "inf", "-inf", "4.9406564584124654e-324",
                     "1e+308"]


def _layout_changes(text, at):
    """Copies of a grid CSV's text that read back as the same values but
    differ in bytes; a blank line goes in after line `at`."""
    lines = text.splitlines()
    return {
        "crlf": "\r\n".join(lines) + "\r\n",
        "no_final_newline": "\n".join(lines),
        "blank_line": "\n".join(lines[:at] + [""] + lines[at:]) + "\n",
        "extra_final_newline": text + "\n",
    }


def test_grid_csv_is_written_and_compared_a_block_at_a_time(tmp_path):
    # K = 300, J = 60 makes two blocks of slices, 272 and 29 of them
    from mfgstop import build_grid
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=300, J=60)
    values = np.random.default_rng(5).standard_normal(grid.shape)
    path = tmp_path / "measure.csv"
    mfgstop.cli._write_grid_csv(str(path), grid, values)
    text = grid_csv_text(grid, values)
    assert path.read_bytes() == text.encode("utf-8")
    assert mfgstop.cli._grid_csv_round_trips(str(path), grid, values)

    last = text.splitlines()[-1].split(",")
    changed = _layout_changes(text, 1 + 272 * grid.J)
    changed["last_value"] = text[:-len(last[2]) - 1] + f"{-values[-1, -1]!r}\n"
    for name, bad in changed.items():
        path.write_bytes(bad.encode("utf-8"))
        assert not mfgstop.cli._grid_csv_round_trips(str(path), grid, values), name


def test_grid_csv_io_memory_stays_within_a_block(tmp_path):
    # At J=K=300 a grid CSV is 5.3 MB (random values, 17 digits each),
    # written in blocks of 48 slices.  Writing value.csv and measure.csv
    # peaked at 1.73 MiB, and the round-trip at 2.56 MiB; as whole-file
    # strings they peaked at 10.6 and 15.9 MiB.
    from mfgstop import build_grid
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=300, J=300)
    values = np.random.default_rng(6).random(grid.shape) / grid.J
    path = str(tmp_path / "measure.csv")
    tracemalloc.start()
    try:
        mfgstop.cli._write_grid_csv(str(tmp_path / "value.csv"), grid, values)
        mfgstop.cli._write_grid_csv(path, grid, values)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        same = mfgstop.cli._grid_csv_round_trips(path, grid, values)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same
    assert write_peak < 2 * 2 ** 20
    assert read_peak < 3 * 2 ** 20


def test_grid_csv_reader_memory_stays_within_a_block(tmp_path):
    # At J=K=300 the read peaked at 1.43 MiB of Python allocations: the
    # (K+1)xJ result (0.69 MiB) and one block of parsed rows.  Parsing
    # the whole file and copying the values out peaked at 3.44 MiB.
    from mfgstop import build_grid
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=300, J=300)
    values = np.random.default_rng(6).random(grid.shape) / grid.J
    path = str(tmp_path / "measure.csv")
    mfgstop.cli._write_grid_csv(path, grid, values)
    tracemalloc.start()
    try:
        got = read_grid_csv(path, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, values)
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert peak < 2 * 2 ** 20


def test_solve_mfg_all_continue_init_agrees(tmp_path):
    cfg_a = _cfg(tmp_path, DECOUPLED, "a.ini")
    cfg_b = _cfg(tmp_path, DECOUPLED + "m_init = all_continue\n", "b.ini")
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    assert main(["solve-mfg", "--config", cfg_a, "--out", str(out_a), "--quiet"]) == 0
    assert main(["solve-mfg", "--config", cfg_b, "--out", str(out_b), "--quiet"]) == 0
    va = json.loads((out_a / "summary.json").read_text())["value"]
    vb = json.loads((out_b / "summary.json").read_text())["value"]
    assert va == pytest.approx(vb, abs=1e-12)


# ----------------------------------------------------------------------
# solve-stop


def test_solve_stop_all_negative_reward(tmp_path):
    cfg = _cfg(tmp_path, STOP_NOW)
    out = tmp_path / "out"
    assert main(["solve-stop", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["value"] == 0.0
    assert summary["stopped_mass"] == pytest.approx(1.0, abs=1e-12)
    masses = read_grid_csv(str(out / "measure.csv"), _grid(cfg))
    np.testing.assert_array_equal(masses, np.zeros((7, 5)))
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["conservation_gap"] <= 1e-12


def test_solve_stop_runs_one_backward_sweep(tmp_path, monkeypatch):
    # the value grid and the stop rule of the pushed family come from one
    # obstacle solve; counted in every namespace that looks solve_vi up
    calls = []
    real = mfgstop.obstacle.solve_vi

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (mfgstop.obstacle, mfgstop.mfg, mfgstop.cli):
        monkeypatch.setattr(module, "solve_vi", counted)
    cfg = _bump_cfg(tmp_path)
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert len(calls) == 1


def test_solve_stop_atom_start_never_stopping(tmp_path):
    cfg = _cfg(tmp_path, NEVER_STOP)
    out = tmp_path / "out"
    assert main(["solve-stop", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    masses = read_grid_csv(str(out / "measure.csv"), _grid(cfg))
    row0 = masses[0]
    assert np.count_nonzero(row0) == 1
    assert row0.sum() == 1.0


# ----------------------------------------------------------------------
# verify


def test_verify_passes_after_solve_mfg(tmp_path, capsys):
    cfg = _cfg(tmp_path, DECOUPLED)
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    code, text = _run(["verify", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    for name in ("round-trip", "admissibility", "duality", "value-agreement",
                 "complementarity", "fp-residual", "audit"):
        assert f"PASS {name}" in text
    assert "FAIL" not in text
    assert "verify: all checks passed" in text


def test_verify_passes_after_solve_stop(tmp_path):
    cfg = _bump_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve-stop", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0


def test_verify_accepts_seed_override(tmp_path):
    cfg = _cfg(tmp_path, DECOUPLED)
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--seed", "5", "--quiet"]) == 0


def test_verify_holds_only_the_family_while_it_audits(tmp_path, monkeypatch):
    # The audit reads the family read from measure.csv, m0 and the
    # operator.  Keeping f, v, the pushed family and the last test
    # function besides measured 5.14 (K+1)xJ grids live at its entry at
    # J=K=300; dropping them, 1.02.
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    cfg = _cfg(tmp_path, text.replace("K = 100", "K = 300").replace("J = 100", "J = 300"))
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    inst = build_instance(load_config(cfg), str(tmp_path))
    live = []

    class Entered(Exception):
        pass

    def entry(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        raise Entered

    monkeypatch.setattr(mfgstop.cli, "test_function_audit", entry)
    tracemalloc.start()
    try:
        with pytest.raises(Entered):
            mfgstop.cli.run_verify(inst, str(out), 0, True)
    finally:
        tracemalloc.stop()
    grid_bytes = (inst.grid.K + 1) * inst.grid.J * 8
    assert live[0] < 2 * grid_bytes


def test_verify_detects_tampered_measure(tmp_path, capsys):
    cfg = _cfg(tmp_path, DECOUPLED)
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    path = out / "measure.csv"
    lines = path.read_text().splitlines()
    t, x, _ = lines[1].split(",")
    lines[1] = f"{t},{x},0.5"
    path.write_text("\n".join(lines) + "\n")
    code, text = _run(["verify", "--config", cfg, "--out", str(out)], capsys)
    assert code == 5
    assert "FAIL" in text


def _malformed(lines):
    """Each malformed variant of a measure CSV, given its lines."""
    head, body = lines[0], lines[1:]
    t, x, _ = body[0].split(",")
    J = next(i for i, row in enumerate(body) if not row.startswith(t + ","))

    def changed(i, col, value):
        row = body[i].split(",")
        row[col] = value
        return "\n".join([head] + body[:i] + [",".join(row)] + body[i + 1:]) + "\n"

    return {
        "empty": "",
        "header_only": head + "\n",
        "wrong_header": "\n".join(["t,x,val"] + body) + "\n",
        "short_row": "\n".join([head, f"{t},{x}"] + body[1:]) + "\n",
        "all_rows_short": "\n".join([head] + [r.rsplit(",", 1)[0] for r in body]) + "\n",
        "long_row": "\n".join([head, body[0] + ",0"] + body[1:]) + "\n",
        "non_numeric": "\n".join([head, f"{t},{x},abc"] + body[1:]) + "\n",
        "ragged_blocks": "\n".join([head, body[0]] + body[2:]) + "\n",
        "hash_line": "\n".join([head, "# comment"] + body) + "\n",
        # row J+5, in the second block, repeats its neighbour's x
        "wrong_x": changed(J + 4, 1, body[J + 3].split(",")[1]),
        # the second row of the third block has the first block's t
        "wrong_t_in_block": changed(2 * J + 1, 0, t),
    }


@pytest.fixture(scope="module")
def decoupled_artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("decoupled")
    cfg = _cfg(tmp_path, DECOUPLED)
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return cfg, out


@pytest.mark.parametrize("case", ["empty", "header_only", "wrong_header", "short_row",
                                  "all_rows_short", "long_row", "non_numeric",
                                  "ragged_blocks", "hash_line", "wrong_x",
                                  "wrong_t_in_block"])
def test_malformed_measure_csv_fails_verification(stop_now_game, tmp_path, case):
    # the intact copy passes both checks, so each exit 5 below is the CSV's doing
    cfg, out = stop_now_game
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("trace.csv", "summary.json", "measure.csv"):
        (bad / name).write_bytes((out / name).read_bytes())
    for command in ("verify", "mc-check"):
        assert main([command, "--config", cfg, "--out", str(bad), "--quiet"]) == 0
    path = bad / "measure.csv"
    lines = path.read_text().splitlines()
    path.write_text(_malformed(lines)[case], encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VerificationFailure):
            read_grid_csv(str(path), _grid(cfg))
    for command in ("verify", "mc-check"):
        assert main([command, "--config", cfg, "--out", str(bad), "--quiet"]) == 5


def test_measure_csv_with_rows_after_the_grid_fails_verification(stop_now_game, tmp_path):
    # every slice of the config's grid is intact, and one more row follows
    cfg, out = stop_now_game
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("trace.csv", "summary.json", "measure.csv"):
        (bad / name).write_bytes((out / name).read_bytes())
    path = bad / "measure.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text + text.splitlines()[-1] + "\n", encoding="utf-8")
    with pytest.raises(VerificationFailure, match="after the config grid's last slice"):
        read_grid_csv(str(path), _grid(cfg))
    for command in ("verify", "mc-check"):
        assert main([command, "--config", cfg, "--out", str(bad), "--quiet"]) == 5


@pytest.mark.parametrize("mass", ["nan", "inf", "1e6", "-1e6"])
def test_non_finite_mass_fails_verification(decoupled_artifacts, tmp_path, mass):
    # a corrupted artifact is a verification failure (exit 5), not a
    # solver failure in the reward or value function it would feed, nor
    # (for a finite mass far out of range) the reward's moment bound
    cfg, out = decoupled_artifacts
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("trace.csv", "summary.json", "measure.csv"):
        (bad / name).write_bytes((out / name).read_bytes())
    lines = (bad / "measure.csv").read_text().splitlines()
    t, x, _ = lines[20].split(",")
    lines[20] = f"{t},{x},{mass}"
    (bad / "measure.csv").write_text("\n".join(lines) + "\n")
    for command in ("verify", "mc-check"):
        assert main([command, "--config", cfg, "--out", str(bad), "--quiet"]) == 5


@pytest.mark.parametrize("variant", ["blank_line", "crlf", "no_final_newline",
                                     "extra_final_newline"])
def test_measure_csv_reader_tolerates_layout(decoupled_artifacts, tmp_path, variant):
    cfg, out = decoupled_artifacts
    text = (out / "measure.csv").read_text()
    want = read_grid_csv(str(out / "measure.csv"), _grid(cfg))
    changed = _layout_changes(text, 3)[variant]
    path = tmp_path / "measure.csv"
    path.write_bytes(changed.encode("utf-8"))
    np.testing.assert_array_equal(read_grid_csv(str(path), _grid(cfg)), want)


@pytest.mark.parametrize("variant", ["crlf", "no_final_newline", "blank_line",
                                     "extra_final_newline"])
def test_verify_round_trip_fails_on_layout_only_changes(decoupled_artifacts, tmp_path,
                                                        capsys, variant):
    # read_grid_csv reads each copy back bit for bit (see above), so the
    # byte comparison is the only check that fails
    cfg, out = decoupled_artifacts
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("trace.csv", "summary.json"):
        (bad / name).write_bytes((out / name).read_bytes())
    text = (out / "measure.csv").read_text()
    (bad / "measure.csv").write_bytes(_layout_changes(text, 3)[variant].encode("utf-8"))
    code, printed = _run(["verify", "--config", cfg, "--out", str(bad), "--quiet"], capsys)
    assert code == 5
    assert printed.splitlines() == ["FAIL round-trip (bytes differ)"]


def test_verify_missing_artifacts_fails(tmp_path):
    cfg = _cfg(tmp_path, DECOUPLED)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "none")]) == 5


def test_quiet_suppresses_output(tmp_path, capsys):
    cfg = _cfg(tmp_path, DECOUPLED)
    out = tmp_path / "out"
    code, text = _run(["solve-mfg", "--config", cfg, "--out", str(out),
                       "--quiet"], capsys)
    assert code == 0 and text == ""
    code, text = _run(["verify", "--config", cfg, "--out", str(out),
                       "--quiet"], capsys)
    assert code == 0 and text == ""


# ----------------------------------------------------------------------
# mc-check


def test_mc_check_statistical_agreement(tmp_path, capsys):
    cfg = _bump_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve-stop", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    code, text = _run(["mc-check", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    assert "within 3 standard errors" in text
    report = (out / "mc_report.csv").read_text().splitlines()
    assert report[0] == "k,t,exact,mc,se,z"
    assert len(report) == 1 + 61


def test_mc_check_degenerate_all_stop(tmp_path):
    cfg = _cfg(tmp_path, STOP_NOW)
    out = tmp_path / "out"
    assert main(["solve-stop", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["mc-check", "--config", cfg, "--out", str(out), "--quiet"]) == 0


def test_mc_check_holds_only_the_value_function_while_it_simulates(tmp_path, monkeypatch):
    # At J=K=300 the live memory at simulate_paths' entry measured 1.15
    # (K+1)xJ grids: v's values and stop mask.  Keeping the crowd read
    # from measure.csv and its reward besides measured 3.14.
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    cfg = _cfg(tmp_path, text.replace("K = 100", "K = 300").replace("J = 100", "J = 300"))
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    inst = build_instance(load_config(cfg), str(tmp_path))
    live = []

    class Entered(Exception):
        pass

    def entry(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        raise Entered

    monkeypatch.setattr(mfgstop.cli, "simulate_paths", entry)
    tracemalloc.start()
    try:
        with pytest.raises(Entered):
            mfgstop.cli.run_mc_check(inst, str(out), None, True)
    finally:
        tracemalloc.stop()
    grid_bytes = (inst.grid.K + 1) * inst.grid.J * 8
    assert live[0] < 2 * grid_bytes


def test_mc_check_flags_systematic_bias(tmp_path, capsys):
    # atom sitting on the stop frontier: the one-step laws differ too
    # much for agreement at this sample size, and the check must say so
    text = """\
[grid]
T = 1.0
a = -2.0
b = 2.0
K = 40
J = 39

[model]
mu.kind = constant
mu.params = 0.0
sigma.kind = constant
sigma.params = 0.5

[initial]
kind = atom(0.0)

[reward]
h.kind = affine
h.params = -0.2 -1.0

[mc]
n_paths = 20000
seed = 0
"""
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve-stop", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    code, _ = _run(["mc-check", "--config", cfg, "--out", str(out), "--quiet"],
                   capsys)
    assert code == 5


@pytest.mark.parametrize("sigma_time", ["", "sigma.time.kind = affine\n"
                                           "sigma.time.params = 1.0 0.5\n"],
                         ids=["time-constant", "time-dependent-sigma"])
def test_mc_reference_matches_substep_loop(tmp_path, sigma_time):
    # h < 0 for |x| > 1.2 puts stop nodes inside the domain
    _bump_cfg(tmp_path)
    cfg = _cfg(tmp_path, BUMP.replace("sigma.params = 0.5\n",
                                      "sigma.params = 0.5\n" + sigma_time), "bump.ini")
    out = tmp_path / "out"
    assert main(["solve-stop", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["mc-check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    exact = np.loadtxt(out / "mc_report.csv", delimiter=",", skiprows=1)[:, 2]

    inst = build_instance(load_config(cfg), str(tmp_path))
    assert inst.model.time_constant == (sigma_time == "")
    v = solve_vi(evaluate_reward(inst.spec, Iterate.of(inst.spec, inst.zero_family()).ys),
                 inst.transition)
    inner = v.stop_mask[:-1, 1:-1]
    assert inner.any() and not inner.all()
    np.testing.assert_array_equal(
        exact, substepped_totals(inst.model, inst.transition, inst.m0, v, MC_SUBSTEPS))


# ----------------------------------------------------------------------
# discount folding


def test_discount_folds_terminal_payoff(tmp_path):
    base = """\
[grid]
T = 1.0
a = 0.0
b = 1.0
K = 6
J = 5

[model]
mu.kind = constant
mu.params = 0.0
sigma.kind = constant
sigma.params = 1.0

[initial]
kind = uniform
"""
    folded = base + """\
[discount]
rho = 0.5
terminal.kind = polynomial
terminal.params = 0.0 0.0 0.5
"""
    # same running reward written out by hand: e^{-rho t} (sigma^2/2 - rho x^2/2),
    # with the time factor tabulated exactly at the grid's own time nodes
    from mfgstop import build_grid
    t = build_grid(T=1.0, a=0.0, b=1.0, K=6, J=5).t
    disc = np.exp(-0.5 * t)
    explicit = base + (
        "[reward]\n"
        "h.kind = polynomial\n"
        "h.params = 0.5 0.0 -0.25\n"
        "h.time.kind = tabulated\n"
        f"h.time.nodes = {' '.join(f'{v:.17g}' for v in t)}\n"
        f"h.time.values = {' '.join(f'{v:.17g}' for v in disc)}\n"
    )
    cfg_f = _cfg(tmp_path, folded, "folded.ini")
    cfg_e = _cfg(tmp_path, explicit, "explicit.ini")
    out_f, out_e = tmp_path / "f", tmp_path / "e"
    assert main(["solve-stop", "--config", cfg_f, "--out", str(out_f), "--quiet"]) == 0
    assert main(["solve-stop", "--config", cfg_e, "--out", str(out_e), "--quiet"]) == 0
    vf = read_grid_csv(str(out_f / "value.csv"), _grid(cfg_f))
    ve = read_grid_csv(str(out_e / "value.csv"), _grid(cfg_e))
    np.testing.assert_allclose(vf, ve, atol=1e-14)


def test_discount_with_coupled_term_runs(tmp_path):
    cfg = _cfg(tmp_path, DECOUPLED + """\

[discount]
rho = 0.3
""")
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exploitability"] <= 1e-9


# ----------------------------------------------------------------------
# failure exits


def test_missing_config_exits_2(tmp_path):
    assert main(["solve-stop", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2


def test_malformed_config_exits_2(tmp_path):
    cfg = _cfg(tmp_path, "this is not an ini file [[[")
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_section_exits_2(tmp_path):
    cfg = _cfg(tmp_path, "[grid]\nT = 1\na = 0\nb = 1\nK = 4\nJ = 4\n")
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_zero_horizon_exits_3(tmp_path):
    cfg = _cfg(tmp_path, STOP_NOW.replace("T = 1.0", "T = 0.0"))
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("old, new, name", [("a = 0.0\nb = 1.0", "a = -inf\nb = inf", "domain"),
                                           ("T = 1.0", "T = inf", "horizon")],
                         ids=["infinite-domain", "infinite-horizon"])
def test_infinite_grid_exits_3(tmp_path, capsys, old, new, name):
    cfg = _cfg(tmp_path, STOP_NOW.replace(old, new))
    capsys.readouterr()
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert name in capsys.readouterr().err


def test_tabulated_initial_of_the_wrong_length_exits_3(tmp_path, capsys):
    (tmp_path / "m3.txt").write_text("0.2 0.3 0.5\n", encoding="utf-8")
    cfg = _cfg(tmp_path, STOP_NOW.replace("kind = uniform", "kind = tabulated(m3.txt)"))
    capsys.readouterr()
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "m3.txt" in err and "3 values" in err and "J=5" in err


def test_unknown_coefficient_kind_exits_3(tmp_path):
    cfg = _cfg(tmp_path, STOP_NOW.replace("mu.kind = constant",
                                          "mu.kind = quartic"))
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_unknown_initial_kind_exits_3(tmp_path):
    cfg = _cfg(tmp_path, STOP_NOW.replace("kind = uniform", "kind = spread"))
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("kind, masses", [("atom(abc)", None),
                                          ("tabulated(masses.txt)", "0.2 0.2 abc 0.2 0.2")],
                         ids=["atom", "tabulated"])
def test_non_numeric_initial_exits_2(tmp_path, capsys, kind, masses):
    if masses is not None:
        (tmp_path / "masses.txt").write_text(masses + "\n", encoding="utf-8")
    cfg = _cfg(tmp_path, STOP_NOW.replace("kind = uniform", f"kind = {kind}"))
    capsys.readouterr()
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "abc" in err


@pytest.mark.parametrize("extra, unread", [
    ("term3.fbar.kind = linear\nterm3.fbar.params = 5.0, 0.0\n"
     "term3.g.kind = constant\nterm3.g.params = 1.0\n",
     "term3.fbar.kind, term3.fbar.params, term3.g.kind, term3.g.params"),
    ("term1.theta.kinds = constant\nterm1.theta.params = 2.0\n",
     "term1.theta.kinds, term1.theta.params"),
], ids=["term-after-a-gap", "misspelled-sub-key"])
def test_unread_reward_key_exits_2(tmp_path, capsys, extra, unread):
    # both configs once solved as congestion.ini alone, value 0.486150600546
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    cfg = _cfg(tmp_path, text.replace("[algorithm]", extra + "\n[algorithm]"))
    capsys.readouterr()
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: [reward] has keys no term or h reads: {unread}\n"


@pytest.mark.parametrize("section, extra, unread", [
    ("grid", "dt = 0.01\n", "dt"),
    ("model", "sigma.time.kinds = affine\nsigma.time.params = 1.0 0.5\n",
     "sigma.time.kinds, sigma.time.params"),
    ("initial", "x0 = 0.3\n", "x0"),
    ("discount", "rho = 0.0\nterminal.kinds = constant\n", "terminal.kinds"),
    ("algorithm", "max_iter = 10\n", "max_iter"),
    ("mc", "n_path = 10\n", "n_path"),
])
def test_unread_key_in_any_section_exits_2(tmp_path, capsys, section, extra, unread):
    # each config once solved as congestion.ini alone: a misspelled
    # sigma.time.kind left sigma constant in time
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    header = f"[{section}]\n"
    text = text.replace(header, header + extra) if header in text else text + header + extra
    cfg = _cfg(tmp_path, text)
    capsys.readouterr()
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: [{section}] has keys nothing reads: {unread}\n"


def test_default_section_keys_are_not_unread_keys(tmp_path, capsys):
    # configparser shares DEFAULT's keys with every section
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    cfg = _cfg(tmp_path, "[DEFAULT]\nowner = crowding study\n\n" + text)
    code, out = _run(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    assert "value 0.486150600546," in out


def test_bad_m_init_exits_3(tmp_path):
    cfg = _cfg(tmp_path, DECOUPLED + "m_init = warm\n")
    assert main(["solve-mfg", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def _seed_run(tmp_path, capsys, command, seed_line, flag):
    """Exit code and stderr of `command` on the BUMP output, with the
    config's [mc] seed line and the extra flags given."""
    good = _bump_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve-stop", "--config", good, "--out", str(out), "--quiet"]) == 0
    cfg = _cfg(tmp_path, BUMP.replace("seed = 0", seed_line), "seed.ini")
    capsys.readouterr()
    code = main([command, "--config", cfg, "--out", str(out), "--quiet"] + flag)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command,seed_line,flag", [
    ("verify", "seed = 0", ["--seed", "-1"]),
    ("mc-check", "seed = 0", ["--seed", "-1"]),
    ("mc-check", "seed = -3", []),
], ids=["verify-flag", "mc-check-flag", "mc-check-config"])
def test_negative_seed_exits_3(tmp_path, capsys, command, seed_line, flag):
    code, err = _seed_run(tmp_path, capsys, command, seed_line, flag)
    assert code == 3
    assert err.startswith("error: ") and "seed must be nonnegative" in err


@pytest.mark.parametrize("command,in_config", [
    ("verify", False), ("mc-check", False), ("mc-check", True),
], ids=["verify-flag", "mc-check-flag", "mc-check-config"])
def test_seed_beyond_philox_keys_exits_3(tmp_path, capsys, command, in_config):
    # Philox keys are below 2**128; the largest one still runs
    def run(seed):
        if in_config:
            return _seed_run(tmp_path, capsys, command, f"seed = {seed}", [])
        return _seed_run(tmp_path, capsys, command, "seed = 0", ["--seed", str(seed)])

    code, err = run(2 ** 128)
    assert code == 3
    assert err.startswith("error: ") and "seed must be below 2**128" in err
    assert err.count("\n") == 1
    assert run(2 ** 128 - 1)[0] == 0


@pytest.mark.parametrize("n_paths", [0, -3, 10 ** 7 + 1])
def test_n_paths_outside_its_range_exits_3(tmp_path, capsys, n_paths):
    text = (CONFIGS / "stop_now.ini").read_text(encoding="utf-8")
    assert "n_paths = 20000" in text
    cfg = _cfg(tmp_path, text.replace("n_paths = 20000", f"n_paths = {n_paths}"))
    capsys.readouterr()
    assert main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[mc] n_paths must be in [1, 10**7]" in err
    assert err.count("\n") == 1
    top = _cfg(tmp_path, text.replace("n_paths = 20000", "n_paths = 10000000"), "top.ini")
    assert build_instance(load_config(top), str(tmp_path)).n_paths == 10 ** 7


# ----------------------------------------------------------------------
# shipped configs

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def stop_now_game(tmp_path_factory):
    # mc-check passes on this output: every path stops at t = 0
    out = tmp_path_factory.mktemp("stop_now") / "out"
    cfg = str(CONFIGS / "stop_now.ini")
    assert main(["solve-mfg", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["mc-check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return cfg, out


def test_crowd_from_another_horizon_fails_both_checks(stop_now_game, tmp_path):
    # same (K+1, J) shape, but the times belong to T = 1, not T = 2
    cfg, out = stop_now_game
    text = pathlib.Path(cfg).read_text(encoding="utf-8")
    assert "T = 1.0" in text
    other = _cfg(tmp_path, text.replace("T = 1.0", "T = 2.0"))
    for command in ("verify", "mc-check"):
        assert main([command, "--config", other, "--out", str(out), "--quiet"]) == 5


@pytest.mark.parametrize("old, new", [("K = 40", "K = 41"), ("J = 30", "J = 31"),
                                      ("b = 1.0", "b = 2.0")], ids=["K", "J", "b"])
def test_measure_csv_from_another_grid_fails_both_checks(stop_now_game, tmp_path, capsys,
                                                         old, new):
    # the reader checks every row's t and x against the config's grid; a
    # config of another horizon T is the test above
    cfg, out = stop_now_game
    text = pathlib.Path(cfg).read_text(encoding="utf-8")
    assert old in text
    other = _cfg(tmp_path, text.replace(old, new))
    for command in ("verify", "mc-check"):
        capsys.readouterr()
        assert main([command, "--config", other, "--out", str(out), "--quiet"]) == 5
        err = capsys.readouterr().err
        assert "config grid" in err


def test_game_output_without_measure_fails_both_checks(stop_now_game, tmp_path):
    # a trace marks a solve-mfg output, whose crowd must not default to zero
    cfg, out = stop_now_game
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("trace.csv", "summary.json"):
        (bad / name).write_bytes((out / name).read_bytes())
    for command in ("verify", "mc-check"):
        assert main([command, "--config", cfg, "--out", str(bad), "--quiet"]) == 5


def test_stop_region_integral_on_shipped_artifacts_is_the_whole_grid_sum(tmp_path):
    # each config's solve-stop and solve-mfg families, paired with the
    # reward and value function of either family's crowd or no crowd
    nonzero = 0
    for name in ("congestion", "decoupled", "stop_now"):
        cfg = str(CONFIGS / f"{name}.ini")
        inst = build_instance(load_config(cfg), str(CONFIGS))
        families = []
        for command in ("solve-stop", "solve-mfg"):
            out = tmp_path / name / command
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
            families.append(mfgstop.cli._read_family(inst, str(out)))
        for crowd in families + [inst.zero_family()]:
            f_grid, v = mfgstop.cli._reward_and_value(inst, crowd)
            for family in families:
                got = complementarity_report(v, f_grid, family,
                                             inst.transition).stop_region_integral
                want = whole_grid_stop_region_integral(v, f_grid, family, inst.transition)
                assert got.hex() == want.hex(), name
                nonzero += got != 0.0
    assert nonzero == 3  # congestion's cross pairings


def test_shipped_decoupled_config(tmp_path, capsys):
    out = tmp_path / "out"
    code, text = _run(["solve-mfg", "--config", str(CONFIGS / "decoupled.ini"),
                       "--out", str(out)], capsys)
    assert code == 0
    assert "converged after 1 iterations" in text
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 1
    assert summary["exploitability"] == 0.0
    assert summary["value"] == pytest.approx(0.6995527913623115, rel=1e-12)


def test_shipped_stop_now_config(tmp_path):
    out = tmp_path / "out"
    cfg = str(CONFIGS / "stop_now.ini")
    assert main(["solve-stop", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["value"] == 0.0
    assert summary["stopped_mass"] == pytest.approx(1.0, abs=1e-12)
    masses = read_grid_csv(str(out / "measure.csv"), _grid(cfg))
    assert not masses.any()
    assert main(["mc-check", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0


def test_shipped_congestion_config(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = str(CONFIGS / "congestion.ini")
    code, text = _run(["solve-mfg", "--config", cfg, "--out", str(out)],
                      capsys)
    assert code == 0
    assert "converged after 11 iterations" in text
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exploitability"] == 0.0
    assert summary["value"] == pytest.approx(0.019319324226063746, rel=1e-12)
    code, text = _run(["verify", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    assert "all checks passed" in text


def test_mixed_equilibrium_with_time_dependent_sigma_verifies(tmp_path, capsys):
    # the converged crowd keeps mass on nodes where stopping and continuing
    # tie; complementarity weighs them by their zero stopping slack
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    changed = (text.replace("K = 100", "K = 60").replace("J = 100", "J = 60")
               .replace("n_paths = 100000", "n_paths = 20000")
               .replace("sigma.params = 0.5", "sigma.params = 0.5\n"
                        "sigma.time.kind = affine\nsigma.time.params = 1.0 0.5"))
    cfg = _cfg(tmp_path, changed)
    out = tmp_path / "out"
    code, text = _run(["solve-mfg", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    assert "converged after 57 iterations" in text
    code, text = _run(["verify", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    assert "PASS complementarity" in text and "all checks passed" in text


def test_non_finite_h_exits_3(tmp_path):
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    bad = text.replace("[algorithm]", "h.kind = constant\nh.params = nan\n\n[algorithm]")
    assert bad != text
    cfg = _cfg(tmp_path, bad)
    assert main(["solve-mfg", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3


def test_overflowing_exploitability_exits_4(tmp_path):
    # a finite reward of 1e308 overflows the pairing: the solver refuses
    # the infinite exploitability instead of iterating on it
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    bad = text.replace("term1.fbar.params = 1.0, 2.0", "term1.fbar.params = 1e308, 0.0")
    assert bad != text
    cfg = _cfg(tmp_path, bad)
    with np.errstate(over="ignore"):
        code = main(["solve-mfg", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"])
    assert code == 4


def test_non_finite_fbar_params_exits_3(tmp_path):
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    bad = text.replace("term1.fbar.params = 1.0, 2.0", "term1.fbar.params = nan, 2.0")
    assert bad != text
    cfg = _cfg(tmp_path, bad)
    assert main(["solve-mfg", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3


def test_overflowing_value_function_exits_4(tmp_path):
    # a finite h of 1e308 overflows the backward recursion: solve-stop
    # refuses the non-finite values instead of reporting value nan
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    bad = text.replace("[algorithm]", "h.kind = constant\nh.params = 1e308\n\n[algorithm]")
    assert bad != text
    cfg = _cfg(tmp_path, bad)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["solve-stop", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"])
    assert code == 4


@pytest.mark.parametrize("key, bad", [("eps_tol", "nan"), ("eps_tol", "-1"),
                                      ("eps_tol", "inf"), ("max_iters", "-5")])
def test_bad_budget_exits_3(tmp_path, key, bad):
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    old = {"eps_tol": "eps_tol = 1e-9", "max_iters": "max_iters = 500"}[key]
    changed = text.replace(old, f"{key} = {bad}")
    assert changed != text
    cfg = _cfg(tmp_path, changed)
    assert main(["solve-mfg", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3


@pytest.mark.parametrize("command", ["solve-stop", "solve-mfg"])
def test_non_finite_tabulated_initial_exits_3(tmp_path, command):
    masses = np.ones(100)
    masses[3] = np.nan
    np.savetxt(tmp_path / "masses.txt", masses)
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    changed = text.replace("kind = uniform", "kind = tabulated(masses.txt)")
    assert changed != text
    cfg = _cfg(tmp_path, changed)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3


@pytest.mark.parametrize("nodes, values", [("0.0, 1.0", "nan, 1.0"), ("0.0, nan", "1.0, 1.0")])
def test_non_finite_tabulated_theta_exits_3(tmp_path, nodes, values):
    text = (CONFIGS / "congestion.ini").read_text(encoding="utf-8")
    theta = (f"term1.theta.kind = tabulated\nterm1.theta.nodes = {nodes}\n"
             f"term1.theta.values = {values}\n")
    bad = text.replace("term1.g.kind", theta + "term1.g.kind")
    assert bad != text
    cfg = _cfg(tmp_path, bad)
    assert main(["solve-mfg", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3


# ----------------------------------------------------------------------
# console script


def test_console_script_smoke(tmp_path):
    cfg = _cfg(tmp_path, STOP_NOW)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "mfgstop.cli", "solve-stop",
         "--config", cfg, "--out", str(out), "--quiet"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
