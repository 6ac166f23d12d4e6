"""Command line front end: config ingestion, runs, artifacts, checks.

Commands
--------
solve-stop   single-agent value function + stopped forward measure
solve-mfg    fixed-point iteration for the coupled game
verify       invariant suite over previously emitted artifacts
mc-check     Monte Carlo per-slice comparison report

Artifacts are plain CSV/JSON with deterministic bytes: floats are
serialized with 17 significant digits, so re-ingesting a measure CSV
reproduces the in-memory array bit for bit.  Exit codes: 0 ok,
2 config parse, 3 validation, 4 solver, 5 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import os
import re
import sys
import warnings

import numpy as np

from .errors import (
    ConfigParseError,
    MfgStopError,
    MomentOutOfRange,
    SolverError,
    ValidationError,
    VerificationFailure,
)
from .forward import (
    fokker_planck_residual,
    measure_ledger,
    random_test_function,
    stopped_forward_measure,
)
from .lp_oracle import test_function_audit
from .measures import MeasureFamily, is_admissible, moment, pair
from .mfg import ModelContext, check_budget, fixed_point_solve
from .model_core import (
    CoefficientFn,
    DiffusionModel,
    InitialMeasure,
    ProductField,
    SpaceTimeGrid,
    TransitionOperator,
    TransitionSlice,
    _generator_slices,
    _row_blocks,
    build_grid,
    build_transition_operator,
    fold_reward,
)
from .montecarlo import simulate_paths
from .obstacle import complementarity_report, solve_vi, value_at_initial
from .reward import FBarFn, Iterate, RewardSpec, evaluate_reward

SUMMARY_KEYS = (
    "value",
    "iterations",
    "exploitability",
    "duality_gap",
    "stopped_mass",
    "absorbed_mass",
    "surviving_mass",
)


# ----------------------------------------------------------------------
# config ingestion


def _floats(raw: str, where: str) -> list[float]:
    toks = [tok for tok in re.split(r"[,\s]+", raw.strip()) if tok]
    try:
        return [float(tok) for tok in toks]
    except ValueError as exc:
        raise ConfigParseError(f"{where}: cannot parse {raw!r} as numbers") from exc


def _require(section, key: str, name: str) -> str:
    val = section.get(key)
    if val is None:
        raise ConfigParseError(f"missing key {key!r} in section [{name}]")
    return val


def _number(section, key: str, name: str, cast, default=None):
    raw = section.get(key)
    if raw is None:
        if default is not None:
            return default
        raise ConfigParseError(f"missing key {key!r} in section [{name}]")
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigParseError(f"[{name}] {key} = {raw!r} is not a number") from exc


def _check_seed(seed: int, name: str) -> None:
    """Reject seeds outside [0, 2**128), the key range of the Philox streams."""
    if seed < 0:
        raise ValidationError(f"{name} must be nonnegative, got {seed}")
    if seed >= 2 ** 128:
        raise ValidationError(f"{name} must be below 2**128, got {seed}")


def _coefficient(section, prefix: str, name: str) -> CoefficientFn | None:
    """Build a catalog function from `prefix.kind` + params keys, or None."""
    kind = section.get(prefix + ".kind")
    if kind is None:
        return None
    kind = kind.strip()
    where = f"[{name}] {prefix}"
    if kind == "tabulated":
        nodes = _floats(_require(section, prefix + ".nodes", name), where)
        values = _floats(_require(section, prefix + ".values", name), where)
        return CoefficientFn.tabulated(nodes, values)
    params = _floats(_require(section, prefix + ".params", name), where)
    builders = {
        "constant": (CoefficientFn.constant, 1),
        "affine": (CoefficientFn.affine, 2),
        "polynomial": (CoefficientFn.polynomial, None),
        "gaussian_bump": (CoefficientFn.gaussian_bump, 3),
        "cosine_bump": (CoefficientFn.cosine_bump, 3),
    }
    if kind not in builders:
        raise ValidationError(f"{where}: unknown coefficient kind {kind!r}")
    builder, arity = builders[kind]
    if arity is not None and len(params) != arity:
        raise ConfigParseError(f"{where}: kind {kind!r} needs {arity} parameters")
    return builder(*params)


def _field(section, prefix: str, name: str) -> ProductField | None:
    space = _coefficient(section, prefix, name)
    if space is None:
        return None
    time = _coefficient(section, prefix + ".time", name)
    return ProductField(space=space, time=time)


def load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigParseError(f"malformed config {path}: {exc}") from exc
    return cfg


class Instance:
    """Everything a run needs, assembled from one config file."""

    def __init__(self, grid, model, transition, m0, spec,
                 max_iters, eps_tol, m_init, n_paths, mc_seed):
        self.grid = grid
        self.model = model
        self.transition = transition
        self.m0 = m0
        self.spec = spec
        self.max_iters = max_iters
        self.eps_tol = eps_tol
        self.m_init = m_init
        self.n_paths = n_paths
        self.mc_seed = mc_seed

    @property
    def ctx(self) -> ModelContext:
        return ModelContext(grid=self.grid, model=self.model,
                            transition=self.transition, m0=self.m0)

    def zero_family(self) -> MeasureFamily:
        return MeasureFamily.zeros(self.grid)

    def initial_family(self) -> MeasureFamily:
        if self.m_init == "zero":
            return self.zero_family()
        return stopped_forward_measure(None, self.m0, self.transition)


def _build_initial(cfg, grid, config_dir: str) -> InitialMeasure:
    if not cfg.has_section("initial"):
        raise ConfigParseError("missing section [initial]")
    with _ReadKeys(cfg, "initial") as sec:
        kind = _require(sec, "kind", "initial").strip()
        call = re.fullmatch(r"(atom|tabulated)\((.*)\)", kind)
        arg = None
        if call:
            kind, arg = call.group(1), call.group(2).strip()
        if kind == "uniform":
            return InitialMeasure.uniform(grid)
        if kind == "atom":
            x0 = _number(sec if arg is None else {"x0": arg}, "x0", "initial", float)
            return InitialMeasure.atom(grid, x0)
        if kind == "tabulated":
            rel = arg if arg is not None else _require(sec, "path", "initial")
            path = rel if os.path.isabs(rel) else os.path.join(config_dir, rel)
            try:
                masses = np.loadtxt(path, dtype=float).ravel()
            except (OSError, ValueError) as exc:
                raise ConfigParseError(f"cannot read initial masses {path}: {exc}") from exc
            if masses.size != grid.J:
                raise ValidationError(f"initial masses {path}: {masses.size} values, "
                                      f"but the grid has J={grid.J} nodes")
            total = masses.sum()
            if total <= 0:
                raise ValidationError("tabulated initial masses must have positive total")
            return InitialMeasure.from_masses(masses / total)
        raise ValidationError(f"unknown initial kind {kind!r}")


class _ReadKeys:
    """Section name of cfg (empty if cfg has none), recording the keys
    looked up in it.  A ``with`` block over it that ends without an
    exception raises ConfigParseError naming every key of the section
    that was not looked up, such as a misspelled one.  Keys of
    configparser's DEFAULT section are shared by every section, so they
    are never named."""

    def __init__(self, cfg: configparser.ConfigParser, name: str, readers: str = "nothing"):
        self._section = cfg[name] if cfg.has_section(name) else {}
        self._shared = set(cfg.defaults())
        self._option = cfg.optionxform  # the key as the section stores it
        self._name = name
        self._readers = readers
        self._read = set()

    def get(self, key: str, fallback=None):
        self._read.add(self._option(key))
        return self._section.get(key, fallback)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            unread = sorted(set(self._section) - self._read - self._shared)
            if unread:
                raise ConfigParseError(
                    f"[{self._name}] has keys {self._readers} reads: {', '.join(unread)}")
        return False


def _build_reward(cfg) -> tuple[list[tuple[FBarFn, CoefficientFn]], ProductField | None]:
    """The [reward] section's coupled terms and h field.  A key that
    neither reads, such as a term after a gap in the numbering or a
    misspelled sub-key, is an error."""
    with _ReadKeys(cfg, "reward", "no term or h") as sec:
        return _build_terms(sec), _field(sec, "h", "reward")


def _build_terms(sec) -> list[tuple[FBarFn, CoefficientFn]]:
    terms = []
    i = 1
    while True:
        prefix = f"term{i}"
        kind = sec.get(prefix + ".fbar.kind")
        if kind is None:
            break
        where = f"[reward] {prefix}"
        params = _floats(_require(sec, prefix + ".fbar.params", "reward"), where)
        theta = _coefficient(sec, prefix + ".theta", "reward")
        fbar = FBarFn(kind.strip(), params, time_modulation=theta)
        g = _coefficient(sec, prefix + ".g", "reward")
        if g is None:
            raise ConfigParseError(f"{where}: missing {prefix}.g.kind")
        terms.append((fbar, g))
        i += 1
    return terms


def _discounted_theta(fbar: FBarFn, grid: SpaceTimeGrid, rho: float) -> FBarFn:
    base = fbar.theta(grid.t) * np.exp(-rho * grid.t)
    theta = CoefficientFn.tabulated(grid.t, base)
    return FBarFn(fbar.kind, fbar.params, time_modulation=theta)


def build_instance(cfg: configparser.ConfigParser, config_dir: str) -> Instance:
    for name in ("grid", "model"):
        if not cfg.has_section(name):
            raise ConfigParseError(f"missing section [{name}]")
    with _ReadKeys(cfg, "grid") as gsec:
        grid = build_grid(
            T=_number(gsec, "T", "grid", float),
            a=_number(gsec, "a", "grid", float),
            b=_number(gsec, "b", "grid", float),
            K=_number(gsec, "K", "grid", int),
            J=_number(gsec, "J", "grid", int),
        )

    with _ReadKeys(cfg, "model") as msec:
        mu = _field(msec, "mu", "model")
        sigma = _field(msec, "sigma", "model")
    if mu is None or sigma is None:
        raise ConfigParseError("[model] needs mu.kind and sigma.kind")
    model = DiffusionModel(mu=mu, sigma=sigma)
    transition = build_transition_operator(model, grid)
    m0 = _build_initial(cfg, grid, config_dir)

    terms, h_field = _build_reward(cfg)

    rho = 0.0
    terminal = None
    if cfg.has_section("discount"):
        with _ReadKeys(cfg, "discount") as dsec:
            rho = _number(dsec, "rho", "discount", float)
            terminal = _field(dsec, "terminal", "discount")

    h: ProductField | np.ndarray | None = h_field
    if rho != 0.0 or terminal is not None:
        # Fold the discounted terminal payoff into an equivalent running
        # reward, then discount the uncoupled part alongside it.  Coupled
        # terms pick up the discount through their time modulation.
        tilde = h_field.on_grid(grid) if h_field is not None else np.zeros(grid.shape)
        if terminal is not None:
            g_vals = terminal.on_grid(grid)
            g_dt = terminal.dt_on_grid(grid)
            g_dx = terminal.dx_on_grid(grid)
            g_dxx = terminal.dxx_on_grid(grid)
        else:
            g_vals = g_dt = g_dx = g_dxx = np.zeros(grid.shape)
        h = fold_reward(tilde, g_vals, g_dt, g_dx, g_dxx, rho, model, grid)
        terms = [(_discounted_theta(fb, grid, rho), g) for fb, g in terms]

    spec = RewardSpec(terms=tuple(terms), h=h).validated(grid, m0)

    with _ReadKeys(cfg, "algorithm") as asec:
        max_iters = _number(asec, "max_iters", "algorithm", int, default=500)
        eps_tol = _number(asec, "eps_tol", "algorithm", float, default=1e-6)
        check_budget(max_iters, eps_tol)
        m_init = asec.get("m_init", "zero").strip()
    if m_init not in ("zero", "all_continue"):
        raise ValidationError(f"[algorithm] m_init must be zero or all_continue, got {m_init!r}")

    with _ReadKeys(cfg, "mc") as mcsec:
        n_paths = _number(mcsec, "n_paths", "mc", int, default=100000)
        # 100x the largest sample in use; the start-node draw alone takes
        # about 16 bytes per path
        if not 1 <= n_paths <= 10 ** 7:
            raise ValidationError(f"[mc] n_paths must be in [1, 10**7], got {n_paths}")
        mc_seed = _number(mcsec, "seed", "mc", int, default=0)
    _check_seed(mc_seed, "[mc] seed")

    return Instance(grid, model, transition, m0, spec,
                    max_iters, eps_tol, m_init, n_paths, mc_seed)


# ----------------------------------------------------------------------
# artifact serialization


def _g17(v: float) -> str:
    return f"{float(v):.17g}"


_GRID_CSV_HEADER = "t,x,value\n"


def grid_csv_text(grid: SpaceTimeGrid, values: np.ndarray, rows: slice | None = None) -> str:
    """The t,x,value CSV text of a (K+1, J) grid of values: the header
    and every slice, or with rows, a slice of time indices, only those
    slices' lines."""
    xs = [f",{_g17(xj)},%.17g\n" for xj in grid.x]
    lines = [_GRID_CSV_HEADER] if rows is None else []
    ks = range(grid.K + 1) if rows is None else range(rows.start, rows.stop)
    for k in ks:
        tk = _g17(grid.t[k])
        lines.append("".join([tk + xj for xj in xs]) % tuple(values[k].tolist()))
    return "".join(lines)


def read_grid_csv(path: str, grid: SpaceTimeGrid) -> np.ndarray:
    """The (K+1, J) values of the t,x,value CSV at path, whose rows must
    be grid's t and x in the order grid_csv_text writes them; blank
    lines are skipped.  It is read a block of slices at a time."""
    J = grid.J
    values = np.empty(grid.shape)
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline() != _GRID_CSV_HEADER:
                raise VerificationFailure(f"{path}: expected header {_GRID_CSV_HEADER.strip()}")
            lines = itertools.filterfalse(str.isspace, fh)
            for rows in _row_blocks(grid.K + 1, J):
                n = rows.stop - rows.start
                with warnings.catch_warnings():
                    # a file that ends early is reported below, not warned about
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(itertools.islice(lines, n * J),
                                      delimiter=",", comments=None, ndmin=2)
                if (data.shape != (n * J, 3)
                        or np.any(data[:, 0] != np.repeat(grid.t[rows], J))
                        or np.any(data[:, 1] != np.tile(grid.x, n))):
                    raise VerificationFailure(
                        f"{path}: slices {rows.start}..{rows.stop - 1} are not the "
                        f"config grid's t,x rows")
                values[rows] = data[:, 2].reshape(n, J)
            if next(lines, None) is not None:
                raise VerificationFailure(
                    f"{path}: rows after the config grid's last slice")
    except OSError as exc:
        raise VerificationFailure(f"cannot read artifact {path}: {exc}") from exc
    except ValueError as exc:
        raise VerificationFailure(f"{path}: bad row: {exc}") from exc
    return values


def _write(path: str, text: str, mode: str = "w") -> None:
    with open(path, mode, encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_grid_csv(path: str, grid: SpaceTimeGrid, values: np.ndarray) -> None:
    """Write grid_csv_text(grid, values) to path a block of slices at a
    time, so that no string holds the whole file."""
    _write(path, _GRID_CSV_HEADER)
    for rows in _row_blocks(grid.K + 1, grid.J):
        _write(path, grid_csv_text(grid, values, rows), "a")


def _grid_csv_round_trips(path: str, grid: SpaceTimeGrid, values: np.ndarray) -> bool:
    """Whether the file at path is grid_csv_text(grid, values) byte for
    byte, compared a block of slices at a time.  The file is read in
    binary, so no line end is translated before the comparison."""
    with open(path, "rb") as fh:
        def reads(text: str) -> bool:
            data = text.encode("utf-8")
            return fh.read(len(data)) == data

        return (reads(_GRID_CSV_HEADER)
                and all(reads(grid_csv_text(grid, values, rows))
                        for rows in _row_blocks(grid.K + 1, grid.J))
                and fh.read(1) == b"")


def _write_summary(out_dir: str, value, iterations, exploitability,
                   duality_gap, ledger) -> dict:
    summary = {
        "value": float(value),
        "iterations": int(iterations),
        "exploitability": float(exploitability),
        "duality_gap": float(duality_gap),
        "stopped_mass": float(ledger.total_stopped),
        "absorbed_mass": float(ledger.total_absorbed),
        "surviving_mass": float(ledger.surviving),
    }
    assert tuple(summary) == SUMMARY_KEYS
    _write(os.path.join(out_dir, "summary.json"),
           json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _write_ledger(out_dir: str, ledger) -> None:
    payload = {
        "initial": float(ledger.initial),
        "stopped_per_step": [float(v) for v in ledger.stopped_per_step],
        "absorbed_per_step": [float(v) for v in ledger.absorbed_per_step],
        "surviving": float(ledger.surviving),
        "total_stopped": float(ledger.total_stopped),
        "total_absorbed": float(ledger.total_absorbed),
        "conservation_gap": float(ledger.conservation_gap),
    }
    _write(os.path.join(out_dir, "ledger.json"),
           json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# commands


def _reward_and_value(inst: Instance, crowd: MeasureFamily):
    """(f, v): the reward f(., crowd) on the grid and its value function."""
    f_grid = evaluate_reward(inst.spec, Iterate.of(inst.spec, crowd).ys)
    return f_grid, solve_vi(f_grid, inst.transition)


def _read_crowd_reward_and_value(inst: Instance, crowd: MeasureFamily):
    """_reward_and_value for verify and mc-check, whose crowd may come
    from measure.csv: moments out of the reward's range there are a
    corrupted artifact, so they fail verification (exit 5)."""
    try:
        return _reward_and_value(inst, crowd)
    except MomentOutOfRange as exc:
        raise VerificationFailure(f"measure CSV: {exc}") from exc


def run_solve_stop(inst: Instance, out_dir: str, quiet: bool) -> int:
    f_grid, v = _reward_and_value(inst, inst.zero_family())
    family = stopped_forward_measure(v.stop_mask, inst.m0, inst.transition)
    ledger = measure_ledger(family, inst.m0, inst.transition)
    value = value_at_initial(v, inst.m0)
    gap = abs(value - pair(f_grid, family))

    _write_grid_csv(os.path.join(out_dir, "value.csv"), inst.grid, v.values)
    _write_grid_csv(os.path.join(out_dir, "measure.csv"), inst.grid, family.masses)
    _write_ledger(out_dir, ledger)
    summary = _write_summary(out_dir, value, 0, 0.0, gap, ledger)
    if not quiet:
        print(f"solve-stop: value {summary['value']:.12g}, "
              f"duality gap {summary['duality_gap']:.3e}, "
              f"stopped {summary['stopped_mass']:.6g}, "
              f"absorbed {summary['absorbed_mass']:.6g}, "
              f"surviving {summary['surviving_mass']:.6g}")
    return 0


def run_solve_mfg(inst: Instance, out_dir: str, quiet: bool) -> int:
    result = fixed_point_solve(inst.spec, inst.ctx, m_init=inst.initial_family(),
                               max_iters=inst.max_iters, eps_tol=inst.eps_tol)

    _write_grid_csv(os.path.join(out_dir, "value.csv"), inst.grid, result.v_star.values)
    _write_grid_csv(os.path.join(out_dir, "measure.csv"), inst.grid, result.m_star.masses)

    rows = ["iteration,F,eps,rho"]
    tr = result.trace
    for i in range(len(tr)):
        rows.append(f"{i},{_g17(tr.potential[i])},{_g17(tr.exploitability[i])},"
                    f"{_g17(tr.rho[i])}")
    _write(os.path.join(out_dir, "trace.csv"), "\n".join(rows) + "\n")

    heads = ["t"] + [f"y{i + 1}" for i in range(len(inst.spec.terms))]
    paths = [moment(result.m_star, g) for _, g in inst.spec.terms]
    rows = [",".join(heads)]
    for k in range(inst.grid.K + 1):
        cells = [_g17(inst.grid.t[k])] + [_g17(p[k]) for p in paths]
        rows.append(",".join(cells))
    _write(os.path.join(out_dir, "moment.csv"), "\n".join(rows) + "\n")

    _write_ledger(out_dir, result.ledger)
    summary = _write_summary(out_dir, result.value, result.iterations,
                             result.exploitability, result.duality_gap, result.ledger)
    if not quiet:
        tag = "converged" if result.converged else "hit max_iters"
        print(f"solve-mfg: {tag} after {summary['iterations']} iterations, "
              f"value {summary['value']:.12g}, "
              f"exploitability {summary['exploitability']:.3e}")
    return 0


class _Suite:
    def __init__(self, quiet: bool):
        self.quiet = quiet
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} {name} ({detail})"
        if not ok:
            self.failures += 1
            print(line)
        elif not self.quiet:
            print(line)


def _read_family(inst: Instance, out_dir: str) -> MeasureFamily:
    """The family in out_dir's measure.csv, read on the config's grid and
    checked for finite masses; negative ones are left to the checks."""
    masses = read_grid_csv(os.path.join(out_dir, "measure.csv"), inst.grid)
    if not np.all(np.isfinite(masses)):
        raise VerificationFailure("measure CSV has non-finite masses")
    return MeasureFamily(masses, inst.grid, validate=False)


def run_verify(inst: Instance, out_dir: str, seed: int, quiet: bool) -> int:
    is_mfg = os.path.exists(os.path.join(out_dir, "trace.csv"))
    family = _read_family(inst, out_dir)
    grid = inst.grid
    suite = _Suite(quiet)

    same = _grid_csv_round_trips(os.path.join(out_dir, "measure.csv"), grid, family.masses)
    suite.check("round-trip", same,
                "re-serialization reproduces the file bytes" if same else "bytes differ")

    rep = is_admissible(family, inst.m0, inst.transition, tol=1e-10)
    suite.check("admissibility", bool(rep),
                f"worst violation {rep.worst_violation:.3e} [{rep.kind}]")

    f_grid, v = _read_crowd_reward_and_value(inst, family if is_mfg else inst.zero_family())
    value = value_at_initial(v, inst.m0)
    gap = abs(value - pair(f_grid, family))
    gap_tol = (inst.eps_tol if is_mfg else 0.0) + 1e-10 * (1.0 + abs(value))
    suite.check("duality", gap <= gap_tol, f"gap {gap:.3e} <= {gap_tol:.3e}")

    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        reported = float(summary["value"])
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise VerificationFailure(f"cannot read summary.json: {exc}") from exc
    vgap = abs(reported - value)
    suite.check("value-agreement", vgap <= 1e-9 * (1.0 + abs(value)),
                f"summary value within {vgap:.3e} of recomputation")

    comp = complementarity_report(v, f_grid, family, inst.transition)
    if is_mfg:
        int_tol = res_tol = 1e-7
    else:
        int_tol = 1e-8 * (1.0 + inst.m0.total)
        res_tol = 1e-10
    suite.check("complementarity",
                comp.stop_region_integral <= int_tol
                and comp.continuation_residual <= res_tol,
                f"stop integral {comp.stop_region_integral:.3e}, "
                f"continuation residual {comp.continuation_residual:.3e}")

    forward = stopped_forward_measure(v.stop_mask, inst.m0, inst.transition)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        phi = random_test_function(v, grid, rng)
        scale = max(1.0, float(np.abs(phi).max()))
        worst = max(worst, fokker_planck_residual(forward, v, inst.transition,
                                                  phi, inst.m0) / scale)
    suite.check("fp-residual", worst <= 1e-9,
                f"worst scaled residual {worst:.3e} over 10 test functions")

    # the audit reads only the family, m0 and the operator (peak memory)
    f_grid = v = forward = phi = None
    audit = test_function_audit(family, inst.m0, inst.transition,
                                n_functions=100, seed=seed)
    suite.check("audit", audit.worst_normalized >= -1e-9,
                f"worst normalized slack {audit.worst_normalized:.3e} over 100 functions")

    if suite.failures:
        raise VerificationFailure(f"{suite.failures} verification check(s) failed")
    if not quiet:
        print("verify: all checks passed")
    return 0


# Implicit substeps per time step of the mc-check reference.  The chain's
# implicit-Euler time error is first order in dt and about 3 SE at 1e5
# paths; on the J=K=200 congestion game 1/2/4/16 substeps leave a sup gap
# of 0.0044/0.0025/0.0014/0.00044 to the exact-time law.
MC_SUBSTEPS = 16


class _SubsteppedSlice:
    """Step k of length dt as MC_SUBSTEPS implicit substeps: `step` is
    the slice of step k's generator at dt / MC_SUBSTEPS.

    Every substep's push is clamped at 0, as stopped_forward_measure
    clamps each step.  Sigma and mu stay frozen at t_k over step k, as
    the simulator freezes them.
    """

    def __init__(self, step: TransitionSlice):
        self.n = step.n
        self._step = step

    def apply_adjoint(self, m: np.ndarray) -> np.ndarray:
        for _ in range(MC_SUBSTEPS):
            m = np.maximum(self._step.apply_adjoint(m), 0.0)
        return m


def run_mc_check(inst: Instance, out_dir: str, seed: int | None, quiet: bool) -> int:
    grid = inst.grid
    is_mfg = os.path.exists(os.path.join(out_dir, "trace.csv"))
    v = _read_crowd_reward_and_value(
        inst, _read_family(inst, out_dir) if is_mfg else inst.zero_family())[1]
    # v's stop rule acts at slice boundaries only; steps share substep
    # slices where they share a slice, built at the first step using it
    first = {}
    for k, step in enumerate(inst.transition.steps):
        first.setdefault(step, k)
    fine_steps = _generator_slices(inst.model, grid, np.array(list(first.values())),
                                   grid.dt / MC_SUBSTEPS)
    substepped = {step: _SubsteppedSlice(fine) for step, fine in zip(first, fine_steps)}
    fine = TransitionOperator([substepped[step] for step in inst.transition.steps], grid)
    exact_tot = stopped_forward_measure(v.stop_mask, inst.m0, fine).slice_totals()

    mc_seed = inst.mc_seed if seed is None else seed
    mc = simulate_paths(inst.model, grid, v, inst.m0, inst.n_paths, mc_seed)

    mc_tot = mc.family.slice_totals()
    p = np.clip(exact_tot, 0.0, 1.0)
    se = np.sqrt(p * (1.0 - p) / inst.n_paths)
    diff = mc_tot - exact_tot
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, diff / np.where(se > 0, se, 1.0),
                     np.where(np.abs(diff) <= 1e-12, 0.0, np.inf))

    rows = ["k,t,exact,mc,se,z"]
    for k in range(grid.K + 1):
        rows.append(f"{k},{_g17(grid.t[k])},{_g17(exact_tot[k])},"
                    f"{_g17(mc_tot[k])},{_g17(se[k])},{_g17(z[k])}")
    _write(os.path.join(out_dir, "mc_report.csv"), "\n".join(rows) + "\n")

    within = int(np.sum(np.abs(z) <= 3.0))
    frac = within / (grid.K + 1)
    if not quiet:
        print(f"mc-check: {within}/{grid.K + 1} slice totals within 3 standard errors "
              f"(n_paths {inst.n_paths}, seed {mc_seed})")
    if frac < 0.95:
        raise VerificationFailure(
            f"only {within}/{grid.K + 1} slices within 3 standard errors (need 95%)")
    return 0


# ----------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgstop",
        description="Relaxed equilibria of mean-field optimal stopping games.",
    )
    parser.add_argument("command",
                        choices=("solve-stop", "solve-mfg", "verify", "mc-check"))
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", required=True, help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed for randomized checks")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
        cfg = load_config(args.config)
        inst = build_instance(cfg, os.path.dirname(os.path.abspath(args.config)))
        os.makedirs(args.out, exist_ok=True)
        if args.command == "solve-stop":
            return run_solve_stop(inst, args.out, args.quiet)
        if args.command == "solve-mfg":
            return run_solve_mfg(inst, args.out, args.quiet)
        if args.command == "verify":
            seed = 0 if args.seed is None else args.seed
            return run_verify(inst, args.out, seed, args.quiet)
        return run_mc_check(inst, args.out, args.seed, args.quiet)
    except MfgStopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigParseError):
            return 2
        if isinstance(exc, VerificationFailure):
            return 5
        if isinstance(exc, SolverError):
            return 4
        if isinstance(exc, ValidationError):
            return 3
        return 1


if __name__ == "__main__":
    sys.exit(main())
