"""Batch front door: spec files in, reports and plot data out.

A cascade spec file is a JSON document:

    {
      "field_channels": 6,
      "oscillators": [{"n": 2, "R": [[...]], "M": [[...]], "theta": optional}],
      "uncertainty": [{"a": ..., "b": ...} | {"sigma": [[...]]}],
      "epsilon": 1e-6,
      "options": {"seed", "samples", "kmax", "fd_step", "tol_residual",
                  "epsilon": optional run settings, overridden by flags},
      "expected": { optional reference values for the reproduce command }
    }

Keys outside this layout are refused.

Commands: validate, covariance, purity, gradients, sensitivity, balance,
mc-check, ti-bounds, reproduce-paper. A command is a view over one
:class:`Pipeline` per run, whose stages (cascade, P, gradients, balancing)
are each computed at most once. Every run writes ``report.json``, strict
JSON, into the output directory; some commands add CSV series or a
balanced spec. Exit codes: 0 success, 1 validation failure, a usage error
included, 2 numerical failure, a non-finite result included. Results are
deterministic for a fixed input file and seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, NoReturn, Sequence

import numpy as np

from . import __version__
from .balance import CascadeBalanceReport, _h_and_slope, balance_cascade
from .covariance import PSD_TOL, invariant_covariance_direct, invariant_covariance_recursive, steady_state
from .errors import DimensionMismatch, NonPositive, ParseError, QCascadeError, SchemaError, SingularTheta
from .gradients import (
    GradientSet,
    gradient_fd_oracle,
    purity_gradients_direct,
    purity_gradients_recursive,
)
from .linalg import quantum_psd_margin
from .oscillator import (
    CascadeModel,
    OscillatorParams,
    _check_thetas,
    assemble_cascade,
    default_theta,
    realizability_residual,
)
from .sensitivity import (
    UncertaintyModel,
    OscillatorUncertainty,
    _sigma_sqrt,
    fisher_sensitivity,
    monte_carlo_variance,
    psi_transformed,
    sensitivity_index,
)
from .zcascade import TIModel, covariance_trace_bound

VALIDATION_ERRORS = (ParseError, SchemaError, DimensionMismatch, SingularTheta)


@dataclass(frozen=True)
class CascadeSpecFile:
    """Validated content of a cascade spec file."""

    field_channels: int
    oscillators: tuple[OscillatorParams, ...]
    uncertainty: UncertaintyModel | None
    epsilon: float
    options: dict[str, Any]
    expected: dict[str, Any] | None
    source: Path
    sha256: str


def _as_matrix(obj: Any, path: str, shape: tuple[int, int]) -> np.ndarray:
    try:
        mat = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: not a numeric matrix: {exc}") from exc
    if mat.shape != shape:
        raise DimensionMismatch(f"{path}: expected shape {shape}, got {mat.shape}")
    # entry by entry: on the 2 x 2 blocks of a spec, cheaper than a numpy call
    if not all(map(math.isfinite, mat.flat)):
        raise SchemaError(f"{path}: entries must be finite")
    return mat


SPEC_KEYS = frozenset(
    {"field_channels", "oscillators", "uncertainty", "epsilon", "options", "expected"}
)
OSCILLATOR_KEYS = frozenset({"n", "R", "M", "theta"})
UNCERTAINTY_KEYS = frozenset({"a", "b", "sigma"})


def _reject_unknown_keys(entry: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise SchemaError(
            f"{where}: unknown key {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _convert(value: Any, kind: type, where: str) -> Any:
    """A spec entry or a flag's text as a number of type ``kind``: a bool is
    refused, and an integer setting takes only a finite whole number."""
    try:
        if isinstance(value, bool):
            raise TypeError(f"expected a number, got {value!r}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected a whole number, got {value!r}")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _symmetrized(mat: np.ndarray, path: str) -> np.ndarray:
    asym = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    if asym > 1e-9:
        raise SchemaError(f"{path}: asymmetry {asym:.3e} exceeds 1e-9")
    return 0.5 * (mat + mat.T)


def load_spec(path: str | Path) -> CascadeSpecFile:
    """Parse and validate a cascade spec file.

    Defaulting rules: missing theta becomes the canonical half form of
    the right order, and a given one must pass assembly's theta check;
    missing epsilon becomes 1e-6. The energy matrix and an uncertainty
    covariance are symmetrized after checking that their asymmetry stays
    below 1e-9, and the covariance must pass the eigenvalue floor of the
    Monte-Carlo sampler (``_sigma_sqrt``). Matrix entries and
    uncertainty weights must be finite numbers, which json's NaN and
    Infinity are not. A key outside the schema raises
    :class:`SchemaError` instead of being ignored, so a misspelt key
    never falls back to a default.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    _reject_unknown_keys(doc, SPEC_KEYS, "top level")

    m = doc.get("field_channels")
    if not isinstance(m, int) or m <= 0 or m % 2:
        raise SchemaError(f"field_channels: must be a positive even integer, got {m!r}")
    oscs_doc = doc.get("oscillators")
    if not isinstance(oscs_doc, list) or not oscs_doc:
        raise SchemaError("oscillators: must be a non-empty list")

    oscillators: list[OscillatorParams] = []
    for k, entry in enumerate(oscs_doc):
        where = f"oscillators[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        _reject_unknown_keys(entry, OSCILLATOR_KEYS, where)
        n = entry.get("n")
        if not isinstance(n, int) or n <= 0 or n % 2:
            raise SchemaError(f"{where}.n: must be a positive even integer, got {n!r}")
        r = _symmetrized(_as_matrix(entry.get("R"), f"{where}.R", (n, n)), f"{where}.R")
        mat = _as_matrix(entry.get("M"), f"{where}.M", (m, n))
        if "theta" in entry:
            theta = _as_matrix(entry["theta"], f"{where}.theta", (n, n))
        else:
            theta = default_theta(n)
        oscillators.append(OscillatorParams(theta=theta, r_energy=r, m_coupling=mat))
    if any("theta" in entry for entry in oscs_doc):
        # the rule assembly applies; a default theta is canonical by construction
        _check_thetas([p.theta for p in oscillators])

    uncertainty = None
    if "uncertainty" in doc:
        unc_doc = doc["uncertainty"]
        if not isinstance(unc_doc, list) or len(unc_doc) != len(oscillators):
            raise SchemaError(
                "uncertainty: must be a list with one entry per oscillator"
            )
        entries = []
        for k, entry in enumerate(unc_doc):
            where = f"uncertainty[{k}]"
            if not isinstance(entry, dict):
                raise SchemaError(f"{where}: must be an object")
            _reject_unknown_keys(entry, UNCERTAINTY_KEYS, where)
            if "sigma" in entry:
                nk = oscillators[k].n
                d = nk * (nk + 1) // 2 + m * nk
                label = f"{where}.sigma"
                sigma = _symmetrized(_as_matrix(entry["sigma"], label, (d, d)), label)
                try:
                    _sigma_sqrt(sigma)  # the sampler's eigenvalue floor
                except NonPositive as exc:
                    raise SchemaError(f"{label}: {exc}") from exc
                entries.append(OscillatorUncertainty(sigma=sigma))
            elif "a" in entry and "b" in entry:
                a_val, b_val = (
                    _convert(entry[key], float, f"{where}.{key}") for key in ("a", "b")
                )
                if not (0.0 <= a_val < np.inf and 0.0 <= b_val < np.inf):
                    raise SchemaError(f"{where}: weights must be finite and nonnegative")
                entries.append(
                    OscillatorUncertainty(energy_weight=a_val, coupling_weight=b_val)
                )
            else:
                raise SchemaError(f"{where}: needs either 'sigma' or both 'a' and 'b'")
        uncertainty = UncertaintyModel(oscillators=tuple(entries))

    epsilon = _convert(doc.get("epsilon", 1e-6), float, "epsilon")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError("options: must be an object")
    _reject_unknown_keys(options, frozenset(RUN_SETTINGS), "options")
    expected = doc.get("expected")
    if expected is not None and not isinstance(expected, dict):
        raise SchemaError("expected: must be an object")
    return CascadeSpecFile(
        field_channels=m,
        oscillators=tuple(oscillators),
        uncertainty=uncertainty,
        epsilon=epsilon,
        options=options,
        expected=expected,
        source=path,
        sha256=hashlib.sha256(raw).hexdigest(),
    )


def build_cascade(spec: CascadeSpecFile) -> CascadeModel:
    return assemble_cascade(spec.oscillators)


@dataclass
class RunFlags:
    """Run settings: a command-line flag wins over the spec's ``options``,
    which win over the defaults. Out-of-range values raise SchemaError,
    whichever source they came from."""

    tol_residual: float = 1e-9
    fd_step: float = 1e-5
    samples: int = 100_000
    seed: int = 7
    epsilon: float = 1e-6
    kmax: int = 10

    def __post_init__(self) -> None:
        # library guards raise bare ValueError; refuse out-of-range values up front
        problems = [
            f"{key} must be at least 1" for key in ("samples", "kmax") if getattr(self, key) < 1
        ]
        if self.seed < 0:
            problems.append("seed must be nonnegative")
        problems += [
            f"{key} must be positive and finite"
            for key in ("fd_step", "epsilon", "tol_residual")
            if not 0.0 < getattr(self, key) < np.inf
        ]
        if problems:
            raise SchemaError("; ".join(problems))

    @classmethod
    def from_spec(cls, spec: CascadeSpecFile, ns: argparse.Namespace) -> "RunFlags":
        in_spec = {"epsilon": spec.epsilon, **spec.options}
        values = {}
        for key, kind in RUN_SETTINGS.items():
            flag = getattr(ns, key)
            if flag is not None:
                values[key] = _convert(flag, kind, f"--{key.replace('_', '-')}")
            elif key in in_spec:
                values[key] = _convert(in_spec[key], kind, f"options.{key}")
        return cls(**values)


#: run settings a spec's ``options`` may set (each also a flag): the RunFlags fields and types
RUN_SETTINGS = {f.name: type(f.default) for f in fields(RunFlags)}


@dataclass(frozen=True)
class Pipeline:
    """One command run on one spec: the stages of the chain, each computed
    at most once on first use, and the files the command adds next to
    ``report.json``."""

    spec: CascadeSpecFile
    flags: RunFlags
    out: Path
    #: CSV file name -> (header, rows)
    csv_series: dict[str, tuple[str, list[tuple]]] = field(default_factory=dict)
    extra_files: dict[str, dict[str, Any]] = field(default_factory=dict)

    @functools.cached_property
    def cascade(self) -> CascadeModel:
        return build_cascade(self.spec)

    @functools.cached_property
    def uncertainty(self) -> UncertaintyModel:
        if self.spec.uncertainty is None:
            raise SchemaError("this command needs an 'uncertainty' block in the spec")
        return self.spec.uncertainty

    @functools.cached_property
    def p(self) -> np.ndarray:
        return invariant_covariance_direct(self.cascade)

    @functools.cached_property
    def grads(self) -> GradientSet:
        return purity_gradients_direct(self.cascade, self.p)

    @functools.cached_property
    def balance(self) -> CascadeBalanceReport:
        cascade, uncertainty = self.cascade, self.uncertainty  # refuse before any solve
        for k, entry in enumerate(uncertainty.oscillators):
            if entry.sigma is not None:
                raise SchemaError(f"uncertainty[{k}]: balancing needs weights 'a' and 'b', not 'sigma'")
        return balance_cascade(cascade, self.grads, uncertainty, seed=self.flags.seed)

    @property
    def provenance(self) -> dict[str, Any]:
        return {
            "input": str(self.spec.source),
            "sha256": self.spec.sha256,
            **asdict(self.flags),
            "version": __version__,
        }


#: what a command returns: report results, exit code, and the table text or a
#: function that makes it, called only when the table is printed
Reply = tuple[dict, int, str | Callable[[], str]]


def _listify(mat: np.ndarray) -> list:
    return np.asarray(mat).tolist()


def _fmt4(x: float) -> str:
    return f"{x:12.4f}"


def _cmd_validate(run: Pipeline) -> Reply:
    cascade = run.cascade
    pr_res = float(
        realizability_residual(cascade.a, cascade.b, cascade.c, cascade.theta, cascade.j_ito)[0]
    )
    hurwitz = [
        {"oscillator": k, "stable": bool(flag), "abscissa": float(absc)}
        for k, (flag, absc) in enumerate(cascade.hurwitz)
    ]
    results: dict[str, Any] = {
        "pr_residual": pr_res,
        "pr_ok": pr_res <= run.flags.tol_residual * max(1.0, float(np.linalg.norm(cascade.a))),
        "hurwitz": hurwitz,
    }
    lines = [f"PR residual      {pr_res:.3e}"]
    exit_code = 0
    unstable = [h["oscillator"] for h in hurwitz if not h["stable"]]
    if unstable:
        results["unstable_oscillators"] = unstable
        lines.append(f"unstable oscillators: {unstable}")
        exit_code = 1
    else:
        margin = quantum_psd_margin(run.p, cascade.theta)
        results["psd_margin"] = float(margin)
        results["psd_ok"] = bool(margin >= -PSD_TOL * max(1.0, float(np.linalg.norm(run.p))))
        lines.append(f"admissibility margin {margin:.3e}")
    for h in hurwitz:
        lines.append(
            f"oscillator {h['oscillator']}: abscissa {_fmt4(h['abscissa'])}"
            f" {'stable' if h['stable'] else 'UNSTABLE'}"
        )
    return results, exit_code, "\n".join(lines)


def _cmd_covariance(run: Pipeline) -> Reply:
    p_direct = run.p
    gap = float(np.linalg.norm(p_direct - invariant_covariance_recursive(run.cascade)))
    results = {
        "p_direct": _listify(p_direct),
        "route_gap": gap,
    }
    return results, 0, functools.partial(_covariance_table, gap, p_direct)


def _covariance_table(gap: float, p: np.ndarray) -> str:
    # one format string per row, the same text as joining _fmt4 of each entry
    row_format = "  ".join(["%12.4f"] * len(p))
    table = f"covariance route gap {gap:.3e}\n"
    return table + "\n".join(row_format % tuple(row) for row in p.tolist())


def _cmd_purity(run: Pipeline) -> Reply:
    ss = steady_state(run.cascade, run.p)
    results = {
        "purity": ss.purity,
        "v_logdet": ss.v_logdet,
        "v_k": list(ss.v_k),
    }
    lines = [
        f"purity      {_fmt4(ss.purity)}",
        f"log-det V   {_fmt4(ss.v_logdet)}",
    ]
    for k, v in enumerate(ss.v_k):
        lines.append(f"V_{k}         {_fmt4(v)}")
    return results, 0, "\n".join(lines)


def _gradient_gap(g1: GradientSet, g2: GradientSet) -> float:
    """Largest entrywise gap between two gradient sets."""
    return max(float(np.max(np.abs(a - b))) for a, b in zip(g1.rho + g1.mu, g2.rho + g2.mu))


def _cmd_gradients(run: Pipeline) -> Reply:
    direct, fd_step = run.grads, run.flags.fd_step
    gap = _gradient_gap(direct, purity_gradients_recursive(run.cascade))
    fd_gap = _gradient_gap(direct, gradient_fd_oracle(run.cascade, h=fd_step))
    results = {
        "rho": [_listify(r) for r in direct.rho],
        "mu": [_listify(u) for u in direct.mu],
        "route_gap": gap,
        "fd_gap": fd_gap,
        "fd_step": fd_step,
    }
    lines = [f"route gap {gap:.3e}   fd gap {fd_gap:.3e}"]
    for name, mats in (("rho", direct.rho), ("mu", direct.mu)):
        for k, mat in enumerate(mats):
            lines.append(f"{name}_{k}")
            lines.extend("  ".join(_fmt4(x) for x in row) for row in mat)
    return results, 0, "\n".join(lines)


def _cmd_sensitivity(run: Pipeline) -> Reply:
    cascade, uncertainty, grads = run.cascade, run.uncertainty, run.grads
    index = sensitivity_index(grads, uncertainty)
    psi_id = []
    for k in range(cascade.n_oscillators):
        try:
            psi_id.append(psi_transformed(grads, uncertainty, k, np.eye(cascade.dims[k])))
        except ValueError:
            psi_id.append(None)
    fisher = fisher_sensitivity(cascade, uncertainty, run.p)
    results = {
        "z_total": index.z_total,
        "z_k": list(index.z_k),
        "psi_identity": psi_id,
        "z_fisher": fisher.z_total,
        "z_fisher_k": list(fisher.z_k),
    }
    lines = [f"Z total     {_fmt4(index.z_total)}", f"Z fisher    {_fmt4(fisher.z_total)}"]
    for k, (z_k, psi) in enumerate(zip(index.z_k, psi_id)):
        psi_txt = _fmt4(psi) if psi is not None else "      n/a"
        lines.append(f"k={k}  Z_k {_fmt4(z_k)}  Psi_k(I) {psi_txt}")
    return results, 0, "\n".join(lines)


def _spec_document_from_cascade(
    spec: CascadeSpecFile, cascade: CascadeModel
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "field_channels": spec.field_channels,
        "oscillators": [
            {
                "n": p.n,
                "theta": _listify(p.theta),
                "R": _listify(0.5 * (p.r_energy + p.r_energy.T)),
                "M": _listify(p.m_coupling),
            }
            for p in cascade.params
        ],
        "epsilon": spec.epsilon,
        "options": spec.options,
    }
    if spec.uncertainty is not None:
        unc = []
        for entry in spec.uncertainty.oscillators:
            if entry.sigma is not None:
                unc.append({"sigma": _listify(entry.sigma)})
            else:
                unc.append({"a": entry.energy_weight, "b": entry.coupling_weight})
        doc["uncertainty"] = unc
    return doc


def _balance_results(run: Pipeline) -> tuple[dict, str]:
    """Results and table of the balancing, with the round trip: the
    gradients of the balanced cascade give back each Psi_k(S_k)."""
    report, uncertainty, dims = run.balance, run.uncertainty, run.cascade.dims
    new_grads = purity_gradients_direct(report.transformed)
    round_trip = [
        abs(psi_transformed(new_grads, uncertainty, k, np.eye(dims[k])) - res.psi_after)
        for k, res in enumerate(report.results)
    ]
    results = {
        "s_k": [_listify(r.s_k) for r in report.results],
        "lambda_k": [r.lambda_k for r in report.results],
        "stretch_k": [r.stretch for r in report.results],
        "angle_k": [r.angle for r in report.results],
        "newton_iterations": [r.newton_iterations for r in report.results],
        "psi_before": [r.psi_before for r in report.results],
        "psi_after": [r.psi_after for r in report.results],
        "ratios": list(report.ratios),
        "total_ratio": report.total_ratio,
        "probe_violations": report.probe_violations,
        "round_trip_gap": max(round_trip),
    }
    lines = ["k   Psi(I)        Psi(S)        ratio"]
    for k, res in enumerate(report.results):
        lines.append(
            f"{k}  {_fmt4(res.psi_before)}  {_fmt4(res.psi_after)}  "
            f"{report.ratios[k]:8.4f}"
        )
    lines.append(f"total ratio {report.total_ratio:8.4f}")
    return results, "\n".join(lines)


def _cmd_balance(run: Pipeline) -> Reply:
    results, table = _balance_results(run)
    report = run.balance
    run.extra_files["balanced.json"] = _spec_document_from_cascade(run.spec, report.transformed)
    curve: list[tuple] = []
    for k, res in enumerate(report.results):
        for lam in np.geomspace(res.lambda_k / 10, res.lambda_k * 10, 41):
            h_val, _ = _h_and_slope(lam, res.whitened_spectrum)
            curve.append((k, float(lam), h_val))
    run.csv_series["balance_multiplier.csv"] = ("oscillator,lambda,h", curve)
    return results, 0, table


def _cmd_mc_check(run: Pipeline) -> Reply:
    cascade, uncertainty, flags = run.cascade, run.uncertainty, run.flags
    mc = monte_carlo_variance(
        cascade,
        uncertainty,
        run.grads,
        samples=flags.samples,
        epsilon=flags.epsilon,
        seed=flags.seed,
        p_full=run.p,
    )
    in_range = 0.9 <= mc.ratio <= 1.1
    results = {
        "variance": mc.variance,
        "predicted": mc.predicted,
        "ratio": mc.ratio,
        "samples": mc.samples,
        "rejected": mc.rejected,
        "in_range": bool(in_range),
    }
    table = (
        f"variance  {mc.variance:.6e}\n"
        f"predicted {mc.predicted:.6e}\n"
        f"ratio     {mc.ratio:8.4f}  ({'ok' if in_range else 'OUT OF RANGE'})"
    )
    return results, 0 if in_range else 2, table


def _cmd_ti_bounds(run: Pipeline) -> Reply:
    rows: list[tuple] = []
    per_osc = []
    all_ok = True
    for k, params in enumerate(run.spec.oscillators):
        model = TIModel.from_oscillator(params)
        res = covariance_trace_bound(model, run.flags.kmax)
        ok = all(t <= b * (1 + 1e-9) for t, b in zip(res.traces, res.bounds))
        all_ok &= ok
        per_osc.append(
            {
                "oscillator": k,
                "h2": res.h2,
                "hinf": res.hinf,
                "traces": list(res.traces),
                "bounds": list(res.bounds),
                "bound_holds": bool(ok),
            }
        )
        for i, (t, b) in enumerate(zip(res.traces, res.bounds), start=1):
            rows.append((k, i, t, b))
    run.csv_series["ti_bounds.csv"] = ("oscillator,k,trace,bound", rows)
    lines = ["osc  k   trace         bound"]
    for row in rows:
        lines.append(f"{row[0]}    {row[1]:2d} {_fmt4(row[2])}  {_fmt4(row[3])}")
    return {"per_oscillator": per_osc}, 0 if all_ok else 2, "\n".join(lines)


def _compare(name: str, got, want, atol: float, rtol: float) -> dict[str, Any]:
    got_arr = np.asarray(got, dtype=float)
    want_arr = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got_arr - want_arr)))
    tol = max(atol, rtol * float(np.max(np.abs(want_arr))))
    return {
        "name": name,
        "max_error": err,
        "tolerance": tol,
        "pass": bool(err <= tol),
    }


def _cmd_reproduce(run: Pipeline) -> Reply:
    if run.spec.expected is None:
        raise SchemaError("reproduce needs an 'expected' block in the spec")
    expected = run.spec.expected
    balance_results, _ = _balance_results(run)
    grads, report = run.grads, run.balance
    res = report.results
    # expected key -> (check name prefix, computed values, atol, rtol)
    targets = {
        "rho": ("rho", grads.rho, 1e-2, 1e-2),
        "mu": ("mu", grads.mu, 1e-2, 1e-2),
        "s": ("s", [r.s_k for r in res], 1e-3, 0.0),
        "psi_identity": ("psi_identity", [r.psi_before for r in res], 0.0, 5e-3),
        "psi_balanced": ("psi_balanced", [r.psi_after for r in res], 0.0, 5e-3),
        "ratios": ("ratio", report.ratios, 1e-3, 0.0),
    }
    checks = [
        _compare(f"{name}_{k}", got[k], want, atol, rtol)
        for key, (name, got, atol, rtol) in targets.items()
        if key in expected
        for k, want in enumerate(expected[key])
    ]
    if "total_ratio" in expected:
        checks.append(
            _compare("total_ratio", report.total_ratio, expected["total_ratio"], 1e-3, 0.0)
        )
    all_pass = all(c["pass"] for c in checks)
    lines = ["check                max error    tolerance    verdict"]
    for c in checks:
        lines.append(
            f"{c['name']:<20} {c['max_error']:.6e} {c['tolerance']:.6e} "
            f"{'pass' if c['pass'] else 'FAIL'}"
        )
    lines.append(f"overall: {'pass' if all_pass else 'FAIL'}")
    results = {"checks": checks, "all_pass": bool(all_pass), "balance": balance_results}
    return results, 0 if all_pass else 2, "\n".join(lines)


#: command name -> view over a run's pipeline; each returns (results, exit
#: code, table) and may add CSV series or extra files to the pipeline
COMMANDS: dict[str, Callable[[Pipeline], Reply]] = {
    "validate": _cmd_validate,
    "covariance": _cmd_covariance,
    "purity": _cmd_purity,
    "gradients": _cmd_gradients,
    "sensitivity": _cmd_sensitivity,
    "balance": _cmd_balance,
    "mc-check": _cmd_mc_check,
    "ti-bounds": _cmd_ti_bounds,
    "reproduce-paper": _cmd_reproduce,
}


def _write_outputs(run: Pipeline, report: dict[str, Any]) -> None:
    """Write the report and the command's files as strict JSON and CSV.
    Every document is encoded before any file is written, so a non-finite
    value raises FloatingPointError and leaves no report."""
    try:
        # no indent: json's C encoder, which writes floats by the same repr
        texts = {"report.json": json.dumps(report, sort_keys=True, allow_nan=False)}
        for name, doc in run.extra_files.items():
            texts[name] = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"result is not finite: {exc}") from exc
    run.out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (run.out / name).write_text(text)
    for name, (header, rows) in run.csv_series.items():
        lines = [header, *(",".join(repr(x) for x in row) for row in rows)]
        (run.out / name).write_text("\n".join(lines) + "\n")


def _emit(run: Pipeline, results: dict[str, Any], table: str | Callable[[], str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"results": results, "provenance": run.provenance}, indent=2, sort_keys=True))
    elif fmt == "csv" and run.csv_series:
        for name, (_, rows) in run.csv_series.items():
            print(f"# {name}")
            for row in rows:
                print(",".join(repr(x) for x in row))
    else:
        print(table() if callable(table) else table)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """A usage error is a validation error: exit code 1, not argparse's 2."""
        self.print_usage(sys.stderr)
        self.exit(1, f"validation error: {message}\n")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcascade",
        description="Steady-state, sensitivity and balancing analyses of "
        "cascaded oscillator models described by spec files.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", help="path to a cascade spec file (JSON)")
    for key in RUN_SETTINGS:  # the text is converted with the spec's options, by _convert
        parser.add_argument(f"--{key.replace('_', '-')}", default=None, dest=key)
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        spec = load_spec(ns.spec)
        run = Pipeline(spec, RunFlags.from_spec(spec, ns), ns.out)
        results, code, table = COMMANDS[ns.command](run)
        report = {"command": ns.command, "provenance": run.provenance, "results": results}
        _write_outputs(run, report)
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (QCascadeError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    _emit(run, results, table, ns.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
