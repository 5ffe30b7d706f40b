"""Batch front door: spec files in, reports and plot data out.

A cascade spec file is a JSON document:

    {
      "field_channels": 6,
      "oscillators": [{"n": 2, "R": [[...]], "M": [[...]], "theta": optional}],
      "uncertainty": [{"a": ..., "b": ...} | {"sigma": [[...]]}],
      "epsilon": 1e-6,
      "options": {"seed", "samples", "kmax", "epsilon": optional run
                  settings, overridden by flags},
      "expected": {optional reference values for reproduce-paper: EXPECTED_CHECKS}
    }

Keys outside this layout are refused, and every number is a JSON number:
a bool or a string is not one, whatever it spells.

Commands: validate, covariance, purity, gradients, sensitivity, balance,
mc-check, ti-bounds, reproduce-paper. A command is a view over one
:class:`Pipeline` per run; ``balance`` and ``reproduce-paper`` balance its
cascade once and pass the report on. Its spec and cascade come from a cache
of one entry, keyed by the spec's path and the SHA-256 of its bytes, so
commands that one interpreter runs on the same bytes parse the spec and
assemble the cascade once, and share the P, steady-state record and
gradients their owners keep on it; the
``qcascade`` console script runs one command per process, so it always
misses. A run that ends with an exception leaves no entry, so an error is
never cached. :func:`load_spec` and :func:`build_cascade` stay uncached: they
run outside :func:`main`'s overflow check, so a value kept there could be one
that :func:`main` refuses. Every run writes ``report.json`` into the output
directory, ``json.dumps(report, sort_keys=True, allow_nan=False)`` byte for
byte, each entry pair of a symmetric matrix converted once; some commands
add CSV series or a balanced spec. Exit codes: 0 success, 1 validation
failure, a usage error included, 2 numerical failure, a non-finite result
included; ``balance``, ``reproduce-paper``, ``mc-check`` and ``ti-bounds``
also exit 2 after writing their report when their own certificate or check
fails, and ``covariance`` and ``gradients`` when ``route_gap`` exceeds
``RESIDUAL_TOL`` x max(1, ||P||_F) or x max(1, max |rho_k, mu_k|). Results
are deterministic for a fixed input file and seed, which drives only
``mc-check``'s samples. Commands run production routes and, for
``route_gap``, the two recursive reference routes. Module level imports what
every command needs (``errors``, ``linalg``, ``oscillator``, ``covariance``);
a command's own layer (``gradients``, ``sensitivity``, ``balance`` or
``zcascade``) is imported inside its view.

:func:`main` has one effect on the process beyond its run: on its first
call it sets glibc's heap policy (:func:`_keep_freed_heap`), so memory a
run frees, such as a Monte-Carlo chunk's stacks, stays in the process for
the next chunk and the next run instead of being trimmed and faulted in
again. The library modules never touch the allocator.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, NoReturn, Sequence

import numpy as np

from . import __version__
from .covariance import admissible, invariant_covariance_direct, invariant_covariance_recursive, steady_state
from .errors import DimensionMismatch, ParseError, QCascadeError, SchemaError, SingularTheta, _prefixed
from .linalg import RESIDUAL_TOL, certified, checked_symmetric_part, quantum_psd_margin, vech_indices
from .oscillator import CascadeModel, OscillatorParams, OscillatorUncertainty, UncertaintyModel
from .oscillator import _check_thetas, _realizable, assemble_cascade, default_theta, parameter_positions
from .oscillator import parameter_sizes

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


SPEC_KEYS = frozenset(
    {"field_channels", "oscillators", "uncertainty", "epsilon", "options", "expected"}
)
OSCILLATOR_KEYS = frozenset({"n", "R", "M", "theta"})
UNCERTAINTY_KEYS = frozenset({"a", "b", "sigma"})
#: ``expected`` key -> (check name, shape of oscillator k's entry from its order n and
#: the channel count m, or None for one scalar, absolute and relative tolerance)
EXPECTED_CHECKS: dict[str, tuple[str, Callable[[int, int], tuple] | None, float, float]] = {
    "rho": ("rho", lambda n, m: (n, n), 1e-2, 1e-2),
    "mu": ("mu", lambda n, m: (m, n), 1e-2, 1e-2),
    "s": ("s", lambda n, m: (n, n), 1e-3, 0.0),
    "psi_identity": ("psi_identity", lambda n, m: (), 0.0, 5e-3),
    "psi_balanced": ("psi_balanced", lambda n, m: (), 0.0, 5e-3),
    "ratios": ("ratio", lambda n, m: (), 1e-3, 0.0),
    "total_ratio": ("total_ratio", None, 1e-3, 0.0),
}


def _reject_unknown_keys(entry: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise SchemaError(
            f"{where}: unknown key {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


#: the Python types json gives a JSON number; a bool is an int to Python, and
#: neither it nor a string is a number, whatever it spells
JSON_NUMBERS = frozenset({int, float})


def _non_numbers(values: Sequence, depth: int = 0) -> list:
    """The number rule of spec content: the leaves ``depth`` lists below the
    entries of ``values`` that are not JSON numbers. The lists are regular
    to that depth."""
    leaves = values
    for _ in range(depth):
        leaves = itertools.chain.from_iterable(leaves)
    leaves = list(leaves) if depth else values
    if JSON_NUMBERS.issuperset(map(type, leaves)):
        return []
    return [x for x in leaves if type(x) not in JSON_NUMBERS]


def _convert(value: Any, kind: type, where: str) -> Any:
    """A spec entry as a number of type ``kind``: the conversion refuses a
    text that spells no number, the number rule of :func:`_non_numbers`
    any other value that is not a JSON number, and an integer setting
    takes only a finite whole number."""
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected a whole number, got {value!r}")
        number = kind(value)
        if _non_numbers([value]):
            raise TypeError(f"expected a number, got {value!r}")
        return number
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _matrices(
    values: Sequence, where: str, shape: tuple, mismatch: type = DimensionMismatch
) -> np.ndarray:
    """Float stack (K, *shape) of K spec matrices by one conversion, checked
    on the stack: every entry has the shape ``shape`` (``mismatch`` if not),
    finite entries (SchemaError) and JSON numbers only, by the rule of
    :func:`_non_numbers` (SchemaError). A refusal is prefixed by ``where``,
    which names the entry when K is 1."""
    try:
        # one entry is converted alone, so numpy's message describes its shape
        one = len(values) == 1
        stack = np.asarray(values[0] if one else values, dtype=float)
        stack = stack[None] if one else stack
    except (TypeError, ValueError, OverflowError) as exc:  # an integer beyond a double overflows
        raise SchemaError(f"{where}: not a numeric matrix: {exc}") from exc
    if stack.shape[1:] != shape:
        raise mismatch(f"{where}: expected shape {shape}, got {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise SchemaError(f"{where}: entries must be finite")
    wrong = _non_numbers(values, len(shape))
    if wrong:
        raise SchemaError(f"{where}: expected a number, got {wrong[0]!r}")
    return stack


def _expected_values(expected: Any, dims: Sequence[int], m: int) -> dict[str, Any]:
    """The ``expected`` block as arrays: every key is one of EXPECTED_CHECKS
    and holds finite numbers of its shape, one scalar or one entry per
    oscillator."""
    if not isinstance(expected, dict):
        raise SchemaError("expected: must be an object")
    _reject_unknown_keys(expected, frozenset(EXPECTED_CHECKS), "expected")
    values: dict[str, Any] = {}
    for key, value in expected.items():
        shape, where = EXPECTED_CHECKS[key][1], f"expected.{key}"
        if shape is None:
            values[key] = _matrices([value], where, (), SchemaError)[0]
        elif isinstance(value, list) and len(value) == len(dims):
            values[key] = [
                _matrices([entry], f"{where}[{k}]", shape(n, m), SchemaError)[0]
                for k, (entry, n) in enumerate(zip(value, dims))
            ]
        else:
            raise SchemaError(f"{where}: must be a list with one entry per oscillator")
    return values


def _oscillator_batch(oscs_doc: list, ks: Sequence[int], m: int) -> list[OscillatorParams]:
    """Oscillators ``ks`` of the spec's list: each entry's structure is
    checked in turn, then each field is converted and checked for all
    oscillators of one mode order at once by :func:`_matrices`, and the
    energy matrices are symmetrized by :func:`checked_symmetric_part`. A
    refusal names the oscillators of the failing stack, ``oscillators[k]``
    when ``ks`` is one oscillator."""
    groups: dict[int, list[int]] = {}
    for k in ks:
        entry, where = oscs_doc[k], f"oscillators[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        _reject_unknown_keys(entry, OSCILLATOR_KEYS, where)
        n = entry.get("n")
        if not isinstance(n, int) or n <= 0 or n % 2:
            raise SchemaError(f"{where}.n: must be a positive even integer, got {n!r}")
        groups.setdefault(n, []).append(k)
    params: dict[int, OscillatorParams] = {}
    for n, group in groups.items():
        entries, where = [oscs_doc[k] for k in group], f"oscillators[{', '.join(map(str, group))}]"
        r = _matrices([e.get("R") for e in entries], f"{where}.R", (n, n))
        r = checked_symmetric_part(r, f"{where}.R: ")
        mats = _matrices([e.get("M") for e in entries], f"{where}.M", (m, n))
        thetas = np.repeat(default_theta(n)[None], len(group), axis=0)
        given = [i for i, e in enumerate(entries) if "theta" in e]
        if given:
            thetas[given] = _matrices([entries[i]["theta"] for i in given], f"{where}.theta", (n, n))
        for k, theta, r_k, m_k in zip(group, thetas, r, mats):
            params[k] = OscillatorParams(theta=theta, r_energy=r_k, m_coupling=m_k)
    return [params[k] for k in ks]


def load_spec(path: str | Path) -> CascadeSpecFile:
    """Parse and validate a cascade spec file.

    Defaulting rules: missing theta becomes the canonical half form of
    the right order, and a given one must pass assembly's theta check;
    missing epsilon becomes the :class:`RunFlags` default. The energy
    matrix is symmetrized after checking that its asymmetry stays below
    1e-9. Each uncertainty entry is built as an :class:`OscillatorUncertainty`,
    whose refusal becomes a SchemaError naming the entry. Matrix entries
    and uncertainty weights must be finite numbers, which json's NaN and
    Infinity are not, and every number a JSON number (:func:`_non_numbers`).
    The oscillators are converted and checked by one :func:`_oscillator_batch`
    pass, and on a refusal one by one, the ``expected`` block into arrays by
    :func:`_expected_values`. A key outside the schema raises SchemaError
    instead of being ignored, so a misspelt key never falls back to a default.
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

    try:
        oscillators = _oscillator_batch(oscs_doc, range(len(oscs_doc)), m)
    except VALIDATION_ERRORS:  # one by one in file order: the first faulty oscillator's error
        for k in range(len(oscs_doc)):
            _oscillator_batch(oscs_doc, [k], m)
        raise
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
            given: dict[str, Any] = {}
            if "sigma" in entry:
                d = sum(parameter_sizes(oscillators[k].n, m))
                given["sigma"] = _matrices([entry["sigma"]], f"{where}.sigma", (d, d))[0]
            for key, name in (("a", "energy_weight"), ("b", "coupling_weight")):
                if key in entry:
                    given[name] = _convert(entry[key], float, f"{where}.{key}")
            try:  # the type checks the form, the weights and sigma
                entries.append(OscillatorUncertainty(**given))
            except QCascadeError as exc:  # a sigma-only entry's refusal is about its sigma
                label = f"{where}.sigma" if list(given) == ["sigma"] else where
                raise SchemaError(f"{label}: {exc}") from exc
        uncertainty = UncertaintyModel(oscillators=tuple(entries))

    epsilon = _convert(doc.get("epsilon", RunFlags.epsilon), float, "epsilon")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError("options: must be an object")
    _reject_unknown_keys(options, frozenset(RUN_SETTINGS), "options")
    expected = doc.get("expected")
    if expected is not None:
        expected = _expected_values(expected, [p.n for p in oscillators], m)
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

    samples: int = 100_000
    seed: int = 7
    epsilon: float = 1e-6
    kmax: int = 10

    def __post_init__(self) -> None:
        # library guards raise bare ValueError; refuse out-of-range values up front
        lows = {"samples": 2, "kmax": 1}  # a sample variance needs two draws
        problems = [
            f"{key} must be at least {low}" for key, low in lows.items() if getattr(self, key) < low
        ]
        if self.seed < 0:
            problems.append("seed must be nonnegative")
        if not 0.0 < self.epsilon < np.inf:
            problems.append("epsilon must be positive and finite")
        if problems:
            raise SchemaError("; ".join(problems))

    @classmethod
    def from_spec(cls, spec: CascadeSpecFile, ns: argparse.Namespace) -> "RunFlags":
        in_spec = {"epsilon": spec.epsilon, **spec.options}
        values = {}
        for key, kind in RUN_SETTINGS.items():
            flag = getattr(ns, key)
            if flag is not None:  # the parser converted the flag's text
                values[key] = flag
            elif key in in_spec:
                values[key] = _convert(in_spec[key], kind, f"options.{key}")
        return cls(**values)


#: run settings a spec's ``options`` may set (each also a flag): the RunFlags fields and types
RUN_SETTINGS = {f.name: type(f.default) for f in fields(RunFlags)}


#: the one spec :func:`main` keeps between runs: (path, SHA-256 of its bytes)
#: -> the spec and its cascade; it hits only when one interpreter calls
#: :func:`main` more than once on the same bytes. A run takes the entry out, so
#: no two runs hold one cascade at once, and puts its own in only when it ends
#: without an exception, so an error is never cached.
_LOADED: dict[tuple[Path, str], tuple[CascadeSpecFile, CascadeModel]] = {}


def _take_loaded(path: Path) -> tuple[CascadeSpecFile, CascadeModel | None]:
    """The cached spec and cascade of ``path``'s current bytes, or on a miss
    the spec from :func:`load_spec` and no cascade, which the caller assembles
    once it has checked the run settings; the cache is left empty either way."""
    try:
        key = (path, hashlib.sha256(path.read_bytes()).hexdigest())
    except OSError:
        key = None  # load_spec reports the unreadable file
    loaded = _LOADED.pop(key, None)
    _LOADED.clear()  # one entry: a miss replaces it
    return loaded or (load_spec(path), None)


@dataclass(frozen=True)
class Pipeline:
    """One command run on one spec and its cascade, shared by every run on the
    same spec bytes: its run settings, output directory and the files the
    command adds next to ``report.json``."""

    spec: CascadeSpecFile
    cascade: CascadeModel
    flags: RunFlags
    out: Path
    #: CSV file name -> (header, rows)
    csv_series: dict[str, tuple[str, list[tuple]]] = field(default_factory=dict)
    extra_files: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def uncertainty(self) -> UncertaintyModel:
        if self.spec.uncertainty is None:
            raise SchemaError("this command needs an 'uncertainty' block in the spec")
        return self.spec.uncertainty

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


def _fmt4_rows(mat: np.ndarray) -> list[str]:
    """Rows of ``mat`` as the text of _fmt4 of each entry joined by two spaces, one format per row."""
    row_format = "  ".join(["%12.4f"] * mat.shape[1])
    return [row_format % tuple(row) for row in mat.tolist()]


def _cmd_validate(run: Pipeline) -> Reply:
    cascade = run.cascade
    pr_res, scale = cascade.realizability
    hurwitz = [
        {"oscillator": k, "stable": bool(flag), "abscissa": float(absc)}
        for k, (flag, absc) in enumerate(cascade.hurwitz)
    ]
    results: dict[str, Any] = {
        "pr_residual": float(pr_res),
        "pr_ok": bool(_realizable(pr_res, scale)),
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
        p = invariant_covariance_direct(cascade)
        margin = quantum_psd_margin(p, cascade.theta)
        results["psd_margin"] = float(margin)
        results["psd_ok"] = admissible(margin, p)
        lines.append(f"admissibility margin {margin:.3e}")
    for h in hurwitz:
        lines.append(
            f"oscillator {h['oscillator']}: abscissa {_fmt4(h['abscissa'])}"
            f" {'stable' if h['stable'] else 'UNSTABLE'}"
        )
    return results, exit_code, "\n".join(lines)


def _gap_verdict(name: str, gap: float, scale: float) -> tuple[int, list[str]]:
    """Exit code and table lines of the one gap rule, :func:`certified` on max(1, scale)."""
    bound = max(1.0, scale)
    if certified(gap, bound):
        return 0, []
    return 2, [f"{name} gap {gap:.3e} exceeds {RESIDUAL_TOL:.1e} x {bound:.3e}"]


def _cmd_covariance(run: Pipeline) -> Reply:
    p_direct = invariant_covariance_direct(run.cascade)
    gap = float(np.linalg.norm(p_direct - invariant_covariance_recursive(run.cascade)))
    results = {
        "p_direct": p_direct,  # an array: the report writer converts each entry pair once
        "route_gap": gap,
    }
    code, verdict = _gap_verdict("route", gap, float(np.linalg.norm(p_direct)))
    return results, code, functools.partial(_covariance_table, gap, p_direct, verdict)


def _covariance_table(gap: float, p: np.ndarray, verdict: list[str]) -> str:
    return "\n".join([f"covariance route gap {gap:.3e}", *_fmt4_rows(p), *verdict])


def _cmd_purity(run: Pipeline) -> Reply:
    ss = steady_state(run.cascade)
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


def _cmd_gradients(run: Pipeline) -> Reply:
    from .gradients import purity_gradients_direct, purity_gradients_recursive

    direct, recursive = purity_gradients_direct(run.cascade), purity_gradients_recursive(run.cascade)
    pairs = zip(direct.rho + direct.mu, recursive.rho + recursive.mu)
    gap = max(float(np.max(np.abs(a - b))) for a, b in pairs)  # the largest entrywise gap
    results = {
        "rho": [_listify(r) for r in direct.rho],
        "mu": [_listify(u) for u in direct.mu],
        "route_gap": gap,
    }
    lines = [f"route gap {gap:.3e}"]
    for name, mats in (("rho", direct.rho), ("mu", direct.mu)):
        for k, mat in enumerate(mats):
            lines.append(f"{name}_{k}")
            lines.extend(_fmt4_rows(mat))
    code, verdict = _gap_verdict("route", gap, max(float(np.max(np.abs(g))) for g in direct.rho + direct.mu))
    return results, code, "\n".join(lines + verdict)


def _cmd_sensitivity(run: Pipeline) -> Reply:
    from .gradients import purity_gradients_direct
    from .sensitivity import fisher_sensitivity, psi_transformed, sensitivity_index

    cascade, uncertainty, grads = run.cascade, run.uncertainty, purity_gradients_direct(run.cascade)
    index = sensitivity_index(grads, uncertainty)
    psi_id = [  # Psi needs the weights, which a sigma-form entry has not
        None if unc.sigma is not None else psi_transformed(grads, uncertainty, k, np.eye(nk))
        for k, (nk, unc) in enumerate(zip(cascade.dims, uncertainty.oscillators))
    ]
    fisher = fisher_sensitivity(cascade, uncertainty)
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
    if spec.uncertainty is not None:  # weights only: balancing refuses a sigma-form entry
        weights = (entry.weights() for entry in spec.uncertainty.oscillators)
        doc["uncertainty"] = [{"a": a, "b": b} for a, b in weights]
    return doc


def _balance_results(run: Pipeline, report) -> tuple[dict, str, bool]:
    """Results and table of the balancing ``report``, and whether it is certified:
    every oscillator passes its stationarity certificate, and the round trip holds
    (the gradients of the balanced cascade give back each Psi_k(S_k) within
    the :func:`_gap_verdict` of max psi_after)."""
    from .gradients import purity_gradients_direct
    from .sensitivity import psi_transformed

    uncertainty, dims = run.uncertainty, run.cascade.dims
    new_grads = purity_gradients_direct(report.transformed)
    round_trip = [
        abs(psi_transformed(new_grads, uncertainty, k, np.eye(dims[k])) - res.psi_after)
        for k, res in enumerate(report.results)
    ]
    code, verdict = _gap_verdict("round trip", max(round_trip), max(r.psi_after for r in report.results))
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
        # null where not a finite number: the strict writer refuses NaN, and probe_violations counts it
        "stationarity_k": [r.stationarity if np.isfinite(r.stationarity) else None for r in report.results],
        # the key the benchmark reads: oscillators whose optimum fails its certificate
        "probe_violations": report.uncertified,
        "round_trip_gap": max(round_trip),
    }
    lines = ["k   Psi(I)        Psi(S)        ratio"]
    for k, res in enumerate(report.results):
        lines.append(
            f"{k}  {_fmt4(res.psi_before)}  {_fmt4(res.psi_after)}  "
            f"{report.ratios[k]:8.4f}"
        )
    lines.append(f"total ratio {report.total_ratio:8.4f}")
    if report.uncertified:
        lines.append(f"{report.uncertified} oscillator(s) fail the stationarity certificate")
    return results, "\n".join(lines + verdict), not code and not report.uncertified


def _cmd_balance(run: Pipeline) -> Reply:
    from .balance import balance_cascade, f_lambda

    report = balance_cascade(run.cascade, run.uncertainty)
    results, table, passed = _balance_results(run, report)
    run.extra_files["balanced.json"] = _spec_document_from_cascade(run.spec, report.transformed)
    curve: list[tuple] = []
    for k, res in enumerate(report.results):
        # h(lambda) = prod_i f_lambda(r_i) at 41 multipliers, one row each
        lams = np.geomspace(res.lambda_k / 10, res.lambda_k * 10, 41)
        h_vals = np.prod(f_lambda(res.whitened_spectrum, lams[:, None]), axis=1)
        curve += [(k, lam, h_val) for lam, h_val in zip(lams.tolist(), h_vals.tolist())]
    run.csv_series["balance_multiplier.csv"] = ("oscillator,lambda,h", curve)
    return results, 0 if passed else 2, table


def _cmd_mc_check(run: Pipeline) -> Reply:
    from .sensitivity import monte_carlo_variance

    flags = run.flags
    mc = monte_carlo_variance(
        run.cascade, run.uncertainty, samples=flags.samples, epsilon=flags.epsilon, seed=flags.seed
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
    from .zcascade import TIModel, covariance_trace_bound

    rows: list[tuple] = []
    per_osc = []
    all_ok = True
    for k, unit in enumerate(run.cascade.realizations):
        with _prefixed(f"oscillator {k}"):
            model = TIModel.from_matrices(unit.a, unit.b, unit.c, run.cascade.j_ito)
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
        rows += [(k, i, t, b) for i, (t, b) in enumerate(zip(res.traces, res.bounds), start=1)]
    run.csv_series["ti_bounds.csv"] = ("oscillator,k,trace,bound", rows)
    lines = ["osc  k   trace         bound"]
    for row in rows:
        lines.append(f"{row[0]}    {row[1]:2d} {_fmt4(row[2])}  {_fmt4(row[3])}")
    return {"per_oscillator": per_osc}, 0 if all_ok else 2, "\n".join(lines)


def _compare(name: str, got, want: np.ndarray, atol: float, rtol: float) -> dict[str, Any]:
    """A computed value against its ``expected`` entry, which load_spec made an array."""
    err = float(np.max(np.abs(got - want)))
    tol = max(atol, rtol * float(np.max(np.abs(want))))
    return {
        "name": name,
        "max_error": err,
        "tolerance": tol,
        "pass": bool(err <= tol),
    }


def _cmd_reproduce(run: Pipeline) -> Reply:
    if run.spec.expected is None:
        raise SchemaError("reproduce needs an 'expected' block in the spec")
    from .balance import balance_cascade
    from .gradients import purity_gradients_direct

    expected = run.spec.expected
    report = balance_cascade(run.cascade, run.uncertainty)
    balance_results, _, passed = _balance_results(run, report)
    grads = purity_gradients_direct(run.cascade)
    res = report.results
    computed = {
        "rho": grads.rho, "mu": grads.mu, "s": [r.s_k for r in res],
        "psi_identity": [r.psi_before for r in res], "psi_balanced": [r.psi_after for r in res],
        "ratios": report.ratios, "total_ratio": report.total_ratio,
    }
    checks = []  # in the table's order; load_spec gave every entry its shape
    for key, (name, shape, atol, rtol) in EXPECTED_CHECKS.items():
        if key in expected and shape is None:
            checks.append(_compare(name, computed[key], expected[key], atol, rtol))
        elif key in expected:
            pairs = enumerate(zip(computed[key], expected[key]))
            checks += [_compare(f"{name}_{k}", got, want, atol, rtol) for k, (got, want) in pairs]
    all_pass = all(c["pass"] for c in checks)
    lines = ["check                max error    tolerance    verdict"]
    for c in checks:
        lines.append(
            f"{c['name']:<20} {c['max_error']:.6e} {c['tolerance']:.6e} "
            f"{'pass' if c['pass'] else 'FAIL'}"
        )
    lines.append(f"overall: {'pass' if all_pass else 'FAIL'}")
    results = {"checks": checks, "all_pass": bool(all_pass), "balance": balance_results}
    return results, 0 if all_pass and passed else 2, "\n".join(lines)


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


def _report_text(report: dict[str, Any]) -> str:
    """``json.dumps(report, sort_keys=True, allow_nan=False)`` with arrays as lists, byte for
    byte, by json's C encoder. A finite bitwise-symmetric float matrix is converted once per
    entry pair (lower triangle in vech order, rows by :func:`parameter_positions`) and spliced
    in for a placeholder; any other array, or all if a report string spells a placeholder, is
    listed, so a non-finite entry raises ValueError."""
    spliced: dict[str, str] = {}

    def encode(mat: np.ndarray) -> Any:
        bits = mat.view(np.uint64) if mat.dtype == np.float64 and mat.ndim == 2 else None
        if bits is None or bits.shape != bits.T.shape or not np.isfinite(mat).all() or (bits != bits.T).any():
            return mat.tolist()
        text_at = list(map(float.__repr__, mat[vech_indices(len(mat))].tolist())).__getitem__
        rows = [f"[{', '.join(map(text_at, at))}]" for at in parameter_positions(len(mat), 0).tolist()]
        placeholder = f"\0{len(spliced)}"
        spliced[json.dumps(placeholder)] = f"[{', '.join(rows)}]"
        return placeholder

    text = json.dumps(report, sort_keys=True, allow_nan=False, default=encode)
    if any(text.count(quoted) != 1 for quoted in spliced):
        return json.dumps(report, sort_keys=True, allow_nan=False, default=_listify)
    for quoted, matrix in spliced.items():
        text = text.replace(quoted, matrix)
    return text


def _write_outputs(run: Pipeline, report: dict[str, Any]) -> None:
    """Write the report and the command's files as strict JSON and CSV, all
    encoded first: a non-finite value raises FloatingPointError and leaves no
    report. ``report.json`` is ``json.dumps(report, sort_keys=True, allow_nan=False)``
    byte for byte, each entry pair of a symmetric matrix converted once
    (:func:`_report_text`). An output that cannot be written raises ParseError, exit 1."""
    try:
        texts = {"report.json": _report_text(report)}
        for name, doc in run.extra_files.items():
            texts[name] = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"result is not finite: {exc}") from exc
    for name, (header, rows) in run.csv_series.items():
        texts[name] = "\n".join([header, *(",".join(repr(x) for x in row) for row in rows)]) + "\n"
    try:
        run.out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (run.out / name).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {run.out}: {exc}") from exc


def _emit(run: Pipeline, results: dict[str, Any], table: str | Callable[[], str], fmt: str) -> None:
    if fmt == "json":
        doc = {"results": results, "provenance": run.provenance}
        print(json.dumps(doc, indent=2, sort_keys=True, default=_listify))
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
    for key, kind in RUN_SETTINGS.items():  # text that spells no number of the kind is a usage error
        parser.add_argument(f"--{key.replace('_', '-')}", type=kind, default=None, dest=key)
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    return parser


#: glibc mallopt(3) parameters M_TRIM_THRESHOLD and M_TOP_PAD with the values
#: :func:`_keep_freed_heap` gives them: freed memory up to 256 MiB stays at
#: the top of the heap, which grows 16 MiB beyond each request. The mmap
#: threshold is left to glibc: pinning it slowed long chains.
_HEAP_POLICY = ((-1, 256 << 20), (-2, 16 << 20))


def _libc() -> Any:
    """The symbols of the running process, the C library's among them."""
    return ctypes.CDLL(None)


@functools.lru_cache(maxsize=1)
def _keep_freed_heap() -> None:
    """Set :data:`_HEAP_POLICY` once per process, so a freed chunk is not
    given back to the kernel and faulted in again by the next one. A no-op
    where ``mallopt`` is missing or where the environment sets a glibc
    malloc tunable, which then wins."""
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if "glibc.malloc." in tunables or any(key.startswith("MALLOC_") for key in os.environ):
        return
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_POLICY:
        mallopt(param, value)


@np.errstate(over="raise")  # an overflow is a refusal (FloatingPointError), not a warning
def main(argv: Sequence[str] | None = None) -> int:
    _keep_freed_heap()
    ns = build_parser().parse_args(argv)
    try:
        spec, cascade = _take_loaded(Path(ns.spec))
        flags = RunFlags.from_spec(spec, ns)
        run = Pipeline(spec, cascade or build_cascade(spec), flags, ns.out)
        results, code, table = COMMANDS[ns.command](run)
        report = {"command": ns.command, "provenance": run.provenance, "results": results}
        _write_outputs(run, report)
        _LOADED[(spec.source, spec.sha256)] = (spec, run.cascade)
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
