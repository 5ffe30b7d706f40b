import contextlib
import copy
import ctypes
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcascade.cli
import qcascade.oscillator

from conftest import GENERATED_SPEC, make_passive_chain, move_balancing_optimum
from qcascade.cli import (
    RunFlags,
    _fmt4,
    _fmt4_rows,
    _report_text,
    _spec_document_from_cascade,
    build_cascade,
    build_parser,
    load_spec,
    main,
)
from qcascade.balance import balance_cascade
from qcascade.covariance import (
    invariant_covariance_direct,
    invariant_covariance_recursive,
    log_det_stack,
)
from qcascade.errors import DimensionMismatch, ParseError, QCascadeError, SchemaError, SingularTheta
from qcascade.gradients import gradient_fd_oracle, purity_gradients_direct
from qcascade.linalg import RESIDUAL_TOL, vech_indices
from qcascade.oscillator import (
    PR_SELF_CHECK_TOL,
    assemble_cascade,
    default_theta,
    parameter_sizes,
    perturbed_cascade_stack,
    realizability_residual,
)


AMPLIFYING16_SPEC = GENERATED_SPEC.parent / "benchmark_amplifying16_s1_0.json"


def read_example():
    return json.loads(GENERATED_SPEC.read_text())


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def unstable_doc():
    doc = read_example()
    doc["oscillators"] = doc["oscillators"][:1]
    doc["oscillators"][0]["R"] = [[0.0, 2.0], [2.0, 0.0]]
    doc["oscillators"][0]["M"] = (0.05 * np.eye(6, 2)).tolist()
    doc["uncertainty"] = doc["uncertainty"][:1]
    doc.pop("expected", None)
    return doc


class TestLoadSpec:
    def test_reference_file(self, paper_spec):
        assert paper_spec.field_channels == 6
        assert len(paper_spec.oscillators) == 3
        assert paper_spec.epsilon == pytest.approx(1e-6)
        assert paper_spec.expected is not None
        assert len(paper_spec.sha256) == 64
        for params in paper_spec.oscillators:
            np.testing.assert_allclose(
                params.theta, 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_spec(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_spec(path)

    def test_asymmetric_energy_matrix(self, tmp_path):
        doc = read_example()
        doc["oscillators"][1]["R"] = [[0.1, 0.5], [0.2, 0.3]]
        with pytest.raises(SchemaError, match=r"oscillators\[1\].R"):
            load_spec(write_spec(tmp_path, doc))

    def test_small_asymmetry_is_symmetrized(self, tmp_path):
        doc = read_example()
        doc["oscillators"][0]["R"][0][1] += 1e-12
        spec = load_spec(write_spec(tmp_path, doc))
        r = spec.oscillators[0].r_energy
        np.testing.assert_array_equal(r, r.T)

    def test_odd_mode_order(self, tmp_path):
        doc = read_example()
        doc["oscillators"][0]["n"] = 3
        with pytest.raises(SchemaError):
            load_spec(write_spec(tmp_path, doc))

    def test_coupling_shape(self, tmp_path):
        doc = read_example()
        doc["oscillators"][2]["M"] = [[1.0, 0.0]] * 4
        with pytest.raises(DimensionMismatch, match=r"oscillators\[2\].M"):
            load_spec(write_spec(tmp_path, doc))

    def test_singular_theta(self, tmp_path):
        doc = read_example()
        doc["oscillators"][0]["theta"] = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(SingularTheta):
            load_spec(write_spec(tmp_path, doc))

    @pytest.mark.parametrize(
        "scale, tilt, error",
        [
            # antisymmetric by max-abs entry, not by Frobenius norm
            (1.0, 0.8e-12, DimensionMismatch),
            # determinant 2.5e-311, full rank
            (1e-155, 0.0, None),
        ],
    )
    def test_theta_rule_is_the_assembly_rule(self, tmp_path, scale, tilt, error):
        theta = scale * np.array([[0.0, 0.5], [-0.5 + tilt, 0.0]])
        doc = read_example()
        doc["oscillators"][1]["theta"] = theta.tolist()
        params = list(load_spec(GENERATED_SPEC).oscillators)
        params[1] = replace(params[1], theta=theta)

        def refusal(fn, arg):
            try:
                fn(arg)
            except QCascadeError as exc:
                return type(exc)
            return None

        assert refusal(load_spec, write_spec(tmp_path, doc)) is error
        assert refusal(assemble_cascade, params) is error

    def test_uncertainty_length(self, tmp_path):
        doc = read_example()
        doc["uncertainty"] = doc["uncertainty"][:2]
        with pytest.raises(SchemaError, match="uncertainty"):
            load_spec(write_spec(tmp_path, doc))

    def test_odd_field_channels(self, tmp_path):
        doc = read_example()
        doc["field_channels"] = 5
        with pytest.raises(SchemaError, match="field_channels"):
            load_spec(write_spec(tmp_path, doc))

    @pytest.mark.parametrize(
        "path, key, where",
        [
            ((), "epsilom", "top level"),
            ((), "optionz", "top level"),
            (("oscillators", 1), "Theta", r"oscillators\[1\]"),
            (("uncertainty", 2), "sigmma", r"uncertainty\[2\]"),
        ],
    )
    def test_unknown_key_is_refused(self, tmp_path, path, key, where):
        doc = read_example()
        entry = doc
        for step in path:
            entry = entry[step]
        entry[key] = 1.0
        with pytest.raises(SchemaError, match=rf"{where}: unknown key '{key}'"):
            load_spec(write_spec(tmp_path, doc))

    @pytest.mark.parametrize("sigma_form", [False, True])
    def test_written_spec_document_loads(self, tmp_path, reference_spec, sigma_form):
        doc = _spec_document_from_cascade(reference_spec, build_cascade(reference_spec))
        if sigma_form:
            doc["uncertainty"] = [
                {"sigma": u.sigma_matrix(2, 6).tolist()}
                for u in reference_spec.uncertainty
            ]
        doc["expected"] = {}
        spec = load_spec(write_spec(tmp_path, doc))
        assert len(spec.oscillators) == 3
        assert spec.epsilon == reference_spec.epsilon

    def test_build_cascade_round_trip(self, reference_spec):
        cascade = build_cascade(reference_spec)
        assert cascade.dims == (2, 2, 2)
        assert cascade.m == 6
        cascade.require_hurwitz()

    @pytest.mark.parametrize("source", ["committed", "mixed_orders"])
    def test_arrays_equal_the_per_entry_conversion_bit_for_bit(self, tmp_path, source):
        # one conversion per field and mode order must give each entry's own
        # np.asarray, and the energy matrix its symmetric part, to the bit
        docs = [json.loads(path.read_text()) for path in sorted(GENERATED_SPEC.parent.glob("*.json"))]
        if source == "mixed_orders":
            docs = [mixed_order_doc(np.random.default_rng(seed)) for seed in (3, 4)]
        for i, doc in enumerate(docs):
            spec = load_spec(write_spec(tmp_path, doc, f"spec{i}.json"))
            for entry, params in zip(doc["oscillators"], spec.oscillators, strict=True):
                r = np.asarray(entry["R"], dtype=float)
                theta = np.asarray(entry["theta"], dtype=float) if "theta" in entry else default_theta(entry["n"])
                pairs = [(params.r_energy, 0.5 * (r + r.T)), (params.theta, theta),
                         (params.m_coupling, np.asarray(entry["M"], dtype=float))]
                for got, want in pairs:
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
            for entry, unc in zip(doc.get("uncertainty", []), spec.uncertainty):
                if "sigma" in entry:
                    sigma = np.asarray(entry["sigma"], dtype=float)
                    assert unc.sigma.tobytes() == (0.5 * (sigma + sigma.T)).tobytes()

    @pytest.mark.parametrize(
        "faults, shown",
        [
            # the first fault in file order is named whichever mode order is batched first
            ({1: ("M", [[1.0, 0.0]]), 2: ("R", [[0.1, 0.5], [0.2, 0.3]])}, "oscillators[1].M: expected shape"),
            ({2: ("R", [[0.1, 0.5], [0.2, 0.3]]), 3: ("theta", [[0.0, float("nan")], [0.0, 0.0]])},
             "oscillators[2].R: asymmetry"),
            ({1: ("theta", [[True] * 4] * 4), 3: ("n", 3)}, "oscillators[1].theta: expected a number, got True"),
            ({0: ("R", "abc"), 1: ("bogus", 1.0)}, "oscillators[0].R: not a numeric matrix"),
            ({3: ("R", None), 1: ("n", 5)}, "oscillators[1].n: must be a positive even integer, got 5"),
        ],
    )
    def test_faults_in_two_oscillators_name_the_first(self, tmp_path, faults, shown):
        doc = mixed_order_doc(np.random.default_rng(3))
        assert [entry["n"] for entry in doc["oscillators"]][:4] == [2, 4, 2, 4]
        for k, (key, value) in faults.items():
            doc["oscillators"][k][key] = value
        with pytest.raises(QCascadeError) as exc:
            load_spec(write_spec(tmp_path, doc))
        assert str(exc.value).startswith(shown)


def mixed_order_doc(rng):
    """A spec of oscillators of orders 2, 4, 2, 4, 6, 2 on four channels, with
    integer and float entries, a small asymmetry in R, a given theta on every
    other oscillator and sigma-form uncertainty on every third; the dynamics
    need not be stable, as only loading is tested."""
    m, oscillators, uncertainty = 4, [], []
    for k, n in enumerate((2, 4, 2, 4, 6, 2)):
        r = rng.standard_normal((n, n))
        r = r + r.T + np.triu(1e-12 * np.ones((n, n)), 1)
        entry = {"n": n, "R": r.tolist(), "M": rng.integers(-3, 4, size=(m, n)).tolist()}
        if k % 2:
            entry["theta"] = (float(rng.uniform(0.5, 2.0)) * default_theta(n)).tolist()
        oscillators.append(entry)
        d = sum(parameter_sizes(n, m))
        if k % 3:
            uncertainty.append({"a": float(rng.uniform(0.5, 1.5)), "b": 1})
        else:
            g = rng.standard_normal((d, d))
            uncertainty.append({"sigma": (g @ g.T + np.eye(d)).tolist()})
    return {"field_channels": m, "oscillators": oscillators, "uncertainty": uncertainty}


#: half a unit of the fourth decimal and its float neighbours, the edge where
#: an entry of a table stops printing as a zero
HALF_UNIT = [np.nextafter(5e-5, 0.0), 5e-5, np.nextafter(5e-5, 1.0)]


class TestCommands:
    @pytest.mark.parametrize(
        "command", ["validate", "covariance", "purity", "gradients", "sensitivity"]
    )
    def test_exit_zero_and_report(self, command, tmp_path):
        code = main([command, str(GENERATED_SPEC), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["command"] == command
        assert report["provenance"]["input"].endswith(GENERATED_SPEC.name)
        assert len(report["provenance"]["sha256"]) == 64

    def test_reports_are_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gradients", str(GENERATED_SPEC), "--out", str(out1)]) == 0
        assert main(["gradients", str(GENERATED_SPEC), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()

    @pytest.mark.parametrize("command", ["gradients", "sensitivity", "balance"])
    def test_perturbations_are_not_looped(self, command, tmp_path, monkeypatch):
        # the covariance responses and balance probes are built in
        # closed form and solved in stacks; one assembly or dense solve
        # per perturbation would bring back the per-direction loops. A dense
        # solve is one one-block Schur factorization of the whole composite.
        import sys

        import scipy.linalg

        order = build_cascade(load_spec(GENERATED_SPEC)).n
        counts = {"assemble": 0, "expm": 0, "schur": 0}

        def spy(key, fn):
            def wrapped(*args, **kwargs):
                if key != "schur" or (len(args[1]) == 1 and np.shape(args[0])[0] == order):
                    counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        targets = [
            (module, attr, key)
            for name, module in list(sys.modules.items())
            for attr, key in (("assemble_cascade", "assemble"), ("cascade_schur", "schur"))
            if name.startswith("qcascade") and hasattr(module, attr)
        ]
        targets += [(scipy.linalg, "expm", "expm")]
        for owner, attr, key in targets:
            monkeypatch.setattr(owner, attr, spy(key, getattr(owner, attr)))
        assert main([command, str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        assert counts["expm"] == 0
        assert 1 <= counts["assemble"] <= 2
        assert 1 <= counts["schur"] <= 4

    def test_gradients_runs_no_finite_difference_probe(self, tmp_path, monkeypatch):
        # the finite-difference oracle solves a probe stack; the command reports
        # the production gradients and their gap to the recursive route only
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = qcascade.oscillator.perturbed_cascade_stack
        for name, module in list(sys.modules.items()):
            if name.startswith("qcascade") and hasattr(module, "perturbed_cascade_stack"):
                monkeypatch.setattr(module, "perturbed_cascade_stack", spy)
        assert main(["gradients", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        assert calls == []
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert set(results) == {"rho", "mu", "route_gap"}

    def test_validate_applies_the_assembly_rule(self, tmp_path):
        # theta_k = 1e7 (1/2) J: assembly accepts the cascade, whose residual
        # grows with ||A|| ||theta||, and validate reaches the same verdict
        doc = read_example()
        for entry in doc["oscillators"]:
            entry["theta"] = (1e7 * default_theta(entry["n"])).tolist()
        path = write_spec(tmp_path, doc)
        cascade = build_cascade(load_spec(path))
        assert main(["validate", str(path), "--out", str(tmp_path / "out")]) == 0
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        res, scale = realizability_residual(cascade.a, cascade.b, cascade.c, cascade.theta, cascade.j_ito)
        assert results["pr_residual"] == float(res) > 1e-2
        assert results["pr_ok"] is True and res <= PR_SELF_CHECK_TOL * scale

    @pytest.mark.parametrize("command", ["validate", "purity", "covariance", "gradients", "ti-bounds"])
    def test_strong_weakly_damped_coupling_is_realizable(self, command, tmp_path):
        # abscissa -409.75: B J B^T rounds at ||B||^2 = 1.6e7, far above ||A|| ||theta||,
        # and assembly judges the composite on the builder's scale
        doc = {
            "field_channels": 2,
            "oscillators": [{"n": 2, "R": [[0.1, 0], [0, 0.1]], "M": [[2035.0, 687.5], [3218.7, 1087.6]]}],
        }
        out = tmp_path / "out"
        assert main([command, str(write_spec(tmp_path, doc)), "--out", str(out)]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        if command == "validate":
            assert results["pr_ok"] is True and results["psd_ok"] is True
            assert f"{results['pr_residual']:.3e}" == "4.336e-10"
        if command in ("covariance", "gradients"):
            assert results["route_gap"] == 0.0

    @pytest.mark.parametrize(
        "command, spec, code",
        [("gradients", AMPLIFYING16_SPEC, 2), ("covariance", AMPLIFYING16_SPEC, 0),
         ("gradients", GENERATED_SPEC, 0), ("covariance", GENERATED_SPEC, 0)],
    )
    def test_route_gap_is_judged(self, command, spec, code, tmp_path, capsys):
        # amplifying16: the gradient routes disagree by 2.8e-2 of the largest
        # entry, the covariance routes by 9.8e-16 of ||P||
        out = tmp_path / "out"
        assert main([command, str(spec), "--out", str(out)]) == code
        results = json.loads((out / "report.json").read_text())["results"]
        if command == "covariance":
            scale = np.linalg.norm(results["p_direct"])
        else:
            scale = max(np.max(np.abs(g)) for g in results["rho"] + results["mu"])
        assert (results["route_gap"] > RESIDUAL_TOL * max(1.0, scale)) == (code == 2)
        assert ("exceeds" in capsys.readouterr().out) == (code == 2)

    def test_covariance_routes_reported(self, tmp_path):
        assert main(["covariance", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results["route_gap"] <= 1e-8
        # P of the three two-state oscillators, written once
        assert np.asarray(results["p_direct"]).shape == (6, 6)
        assert "blocks" not in results

    def test_report_is_compact_and_exact(self, tmp_path):
        assert main(["covariance", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "report.json").read_text()
        assert "\n" not in text
        p = invariant_covariance_direct(build_cascade(load_spec(GENERATED_SPEC)))
        np.testing.assert_array_equal(np.asarray(json.loads(text)["results"]["p_direct"]), p)

    def test_purity_runs_no_recursive_route(self, tmp_path, monkeypatch):
        import sys

        calls = []

        def spy(cascade):
            calls.append(1)
            return invariant_covariance_recursive(cascade)

        for name, module in list(sys.modules.items()):
            if name.startswith("qcascade") and hasattr(module, "invariant_covariance_recursive"):
                monkeypatch.setattr(module, "invariant_covariance_recursive", spy)
        assert main(["purity", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        assert calls == []

    def test_flags_do_not_leak_between_calls(self, tmp_path):
        # the parser is built once; a flag of one call must not reach the next
        assert build_parser() is build_parser()
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["purity", str(GENERATED_SPEC), "--out", str(first), "--seed", "123"]) == 0
        assert main(["purity", str(GENERATED_SPEC), "--out", str(second)]) == 0
        seeds = [
            json.loads((out / "report.json").read_text())["provenance"]["seed"]
            for out in (first, second)
        ]
        assert seeds == [123, load_spec(GENERATED_SPEC).options.get("seed", RunFlags().seed)]

    def test_matrix_rows_match_entrywise_format(self):
        cases = [
            # non-square, as the mu_k of the gradients table, with signed zeros and non-finite entries
            [[1.23456, -0.0, np.nan], [-1e7, np.inf, 5e-5]],
            # exactly half print nonzero: the rows are joined from the zero texts
            [[1.0, -0.0], [1e-9, -2.5]],
            # one more: one format per row
            [[1.0, 2.0], [-1e-9, -2.5]],
            [[0.0, -0.0, 1e-300], [-4e-5, 0.0, -0.0]],
            [[-1e-20]],
            [[np.nan]],
            [[-1.5]],
        ]
        for rows in cases:
            mat = np.array(rows)
            assert _fmt4_rows(mat) == ["  ".join(_fmt4(x) for x in row) for row in mat], rows

    def test_small_entries_print_as_the_zero_of_their_sign(self):
        # a wrong threshold prints 0.0001 as 0.0000 or misses the edge; a zero
        # of the wrong sign prints -0.0000 as 0.0000
        edges = [0.0, 1e-20, 5e-324, *HALF_UNIT, 1e16, np.nan, np.inf]
        mat = np.array([edges, [-x for x in edges]])
        want = ["  ".join("%12.4f" % x for x in row) for row in mat.tolist()]
        assert _fmt4_rows(mat) == want
        assert want[1].split()[:6] == ["-0.0000", "-0.0000", "-0.0000", "-0.0000", "-0.0001", "-0.0001"]
        assert want[0].split()[3:6] == ["0.0000", "0.0001", "0.0001"]

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(),
                        st.floats(-1e-3, 1e-3),
                        st.sampled_from(HALF_UNIT + [-x for x in HALF_UNIT]),
                    ),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=1,
                max_size=8,
            )
        )
        | st.integers(1, 8).flatmap(
            lambda cols: st.lists(
                st.lists(
                    # mostly round-off and signed zeros, as a long chain's P,
                    # so that the rows are also joined from the zero texts
                    st.one_of(
                        st.floats(-4e-5, 4e-5),
                        st.sampled_from([0.0, -0.0, 1e-16, -2e-17]),
                        st.sampled_from(HALF_UNIT + [-x for x in HALF_UNIT]),
                        st.floats(),
                    ),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=1,
                max_size=8,
            )
        )
    )
    def test_rows_match_entrywise_format_on_any_floats(self, rows):
        mat = np.array(rows, dtype=float)
        assert _fmt4_rows(mat) == ["  ".join("%12.4f" % x for x in row) for row in mat.tolist()]

    def test_covariance_table_matches_entrywise_format(self, tmp_path, capsys):
        argv = ["covariance", str(GENERATED_SPEC), "--out", str(tmp_path), "--format", "table"]
        assert main(argv) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        rows = "\n".join("  ".join(_fmt4(x) for x in row) for row in results["p_direct"])
        gap = f"covariance route gap {results['route_gap']:.3e}"
        assert capsys.readouterr().out == f"{gap}\n{rows}\n"

    def test_covariance_table_is_formatted_only_when_printed(self, tmp_path, capsys, monkeypatch):
        calls = []
        table = qcascade.cli._covariance_table

        def spy(*args):
            calls.append(args)
            return table(*args)

        monkeypatch.setattr(qcascade.cli, "_covariance_table", spy)
        argv = ["covariance", str(GENERATED_SPEC), "--out", str(tmp_path)]
        assert main([*argv, "--format", "json"]) == 0
        assert calls == []
        json.loads(capsys.readouterr().out)
        # the default format prints the table, byte for byte the entrywise text
        assert main(argv) == 0
        assert len(calls) == 1
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        rows = "\n".join("  ".join(_fmt4(x) for x in row) for row in results["p_direct"])
        gap = f"covariance route gap {results['route_gap']:.3e}"
        assert capsys.readouterr().out == f"{gap}\n{rows}\n"

    def test_balance_artifacts(self, tmp_path, paper_spec):
        code = main(["balance", str(paper_spec.source), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["results"]["total_ratio"] - 0.6689) <= 1e-3

        curve = (tmp_path / "balance_multiplier.csv").read_text().splitlines()
        assert curve[0] == "oscillator,lambda,h"
        assert len(curve) == 1 + 3 * 41

        balanced = tmp_path / "balanced.json"
        assert balanced.exists()
        spec = load_spec(balanced)
        assert len(spec.oscillators) == 3

    def test_multiplier_curve_is_the_pointwise_curve(self, tmp_path, reference_spec, reference_cascade):
        # each row evaluates h(lambda) = prod_i lambda / (1 + sqrt(1 + 2 lambda r_i^2))
        # at one multiplier on its own; the file holds the same bytes
        assert main(["balance", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        report = balance_cascade(reference_cascade, reference_spec.uncertainty)
        lines = ["oscillator,lambda,h"]
        for k, res in enumerate(report.results):
            r = res.whitened_spectrum
            for lam in np.geomspace(res.lambda_k / 10, res.lambda_k * 10, 41):
                h = float(np.prod(lam / (1.0 + np.sqrt(1.0 + 2.0 * lam * r * r))))
                lines.append(f"{k!r},{float(lam)!r},{h!r}")
        assert (tmp_path / "balance_multiplier.csv").read_text() == "\n".join(lines) + "\n"

    def test_balanced_spec_is_a_fixed_point(self, tmp_path):
        assert main(["balance", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        second = tmp_path / "second"
        assert main(["balance", str(tmp_path / "balanced.json"), "--out", str(second)]) == 0
        report = json.loads((second / "report.json").read_text())
        assert report["results"]["total_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_balance_does_not_depend_on_the_seed(self, tmp_path):
        # --seed drives only mc-check; the balancing draws no random numbers
        written = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["balance", str(GENERATED_SPEC), "--out", str(out), "--seed", seed]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["provenance"]["seed"] == int(seed)
            files = [(out / name).read_bytes() for name in ("balanced.json", "balance_multiplier.csv")]
            written.append((report["results"], files))
        assert written[0] == written[1]

    @pytest.mark.parametrize("command", ["balance", "reproduce-paper"])
    def test_uncertified_balancing_writes_its_report_and_exits_two(
        self, command, tmp_path, capsys, monkeypatch
    ):
        move_balancing_optimum(monkeypatch, oscillators={1})
        path = write_spec(tmp_path, {**read_example(), "expected": {}})  # reproduce: no checks to fail
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        results = json.loads((out / "report.json").read_text())["results"]
        balance = results["balance"] if command == "reproduce-paper" else results
        assert balance["probe_violations"] == 1
        stationarity = balance["stationarity_k"]
        assert stationarity[1] > 1e-3 and max(stationarity[0], stationarity[2]) <= RESIDUAL_TOL
        if command == "balance":
            assert "1 oscillator(s) fail the stationarity certificate" in capsys.readouterr().out
        else:
            assert results["all_pass"] is True

    @pytest.mark.parametrize("field", ["stationarity", "det_gap"])
    def test_a_nan_certificate_fails(self, field, tmp_path, capsys, monkeypatch):
        # oscillator 1's certificate is NaN; the report is written either way,
        # a NaN stationarity as null, and counts the oscillator as a violation
        import qcascade.balance

        minimize, calls = qcascade.balance.minimize_psi_one_mode, []

        def nan_at_oscillator_1(problem):
            calls.append(problem)
            res = minimize(problem)
            return replace(res, **{field: np.nan}) if len(calls) == 2 else res

        monkeypatch.setattr(qcascade.balance, "minimize_psi_one_mode", nan_at_oscillator_1)
        out = tmp_path / "out"
        assert main(["balance", str(GENERATED_SPEC), "--out", str(out)]) == 2
        assert len(calls) == 3
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["probe_violations"] == 1
        assert (results["stationarity_k"][1] is None) == (field == "stationarity")
        assert "1 oscillator(s) fail the stationarity certificate" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["balance", "reproduce-paper"])
    @pytest.mark.parametrize(
        "spec, code", [(AMPLIFYING16_SPEC, 2), (GENERATED_SPEC, 0)], ids=["amplifying16", "generated"]
    )
    def test_round_trip_gap_is_judged(self, command, spec, code, tmp_path, capsys):
        # amplifying16: every oscillator is stationary, but the gradients of
        # the balanced cascade give back psi_after only to 1.7e-2 relative
        path = write_spec(tmp_path, {**json.loads(spec.read_text()), "expected": {}})
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == code
        results = json.loads((out / "report.json").read_text())["results"]
        balance = results["balance"] if command == "reproduce-paper" else results
        assert balance["probe_violations"] == 0
        bound = RESIDUAL_TOL * max(1.0, *balance["psi_after"])
        assert (balance["round_trip_gap"] > bound) == (code == 2)
        if command == "balance":
            assert ("round trip gap" in capsys.readouterr().out) == (code == 2)

    def test_mc_check(self, tmp_path):
        code = main(
            [
                "mc-check",
                str(GENERATED_SPEC),
                "--out",
                str(tmp_path),
                "--samples",
                "20000",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert 0.9 <= results["ratio"] <= 1.1
        assert results["samples"] == 20000

    def test_mc_check_solves_p_once(self, tmp_path, monkeypatch):
        # the gradients and the Monte-Carlo reference V share one dense P
        import qcascade.covariance

        calls = []
        solve = qcascade.covariance.stationary_covariance

        def spy(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(qcascade.covariance, "stationary_covariance", spy)
        argv = ["mc-check", str(GENERATED_SPEC), "--out", str(tmp_path), "--samples", "2000"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_ti_bounds_artifacts(self, tmp_path):
        code = main(["ti-bounds", str(GENERATED_SPEC), "--out", str(tmp_path), "--kmax", "6"])
        assert code == 0
        rows = (tmp_path / "ti_bounds.csv").read_text().splitlines()
        assert rows[0] == "oscillator,k,trace,bound"
        assert len(rows) == 1 + 3 * 6
        for row in rows[1:]:
            _, _, trace, bound = row.split(",")
            assert float(trace) <= float(bound) * (1 + 1e-9)

    def test_reproduce_command(self, tmp_path, capsys, paper_spec):
        code = main(["reproduce-paper", str(paper_spec.source), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out and "fail" not in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["all_pass"] is True

    def test_reproduce_on_its_own_values(self, tmp_path, capsys, reference_spec, reference_cascade):
        grads = purity_gradients_direct(reference_cascade)
        report = balance_cascade(reference_cascade, reference_spec.uncertainty)
        doc = read_example()
        doc["expected"] = {
            "rho": [r.tolist() for r in grads.rho],
            "mu": [u.tolist() for u in grads.mu],
            "s": [r.s_k.tolist() for r in report.results],
            "psi_identity": [r.psi_before for r in report.results],
            "psi_balanced": [r.psi_after for r in report.results],
            "ratios": list(report.ratios),
            "total_ratio": report.total_ratio,
        }
        out = tmp_path / "out"
        assert main(["reproduce-paper", str(write_spec(tmp_path, doc)), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "overall: pass"
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["all_pass"] is True
        assert len(results["checks"]) == 3 * 6 + 1
        # the balancing is reported, but its CSV and balanced spec are not written
        assert results["balance"]["total_ratio"] == report.total_ratio
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_reproduce_requires_expected_block(self, tmp_path, unstable_doc):
        doc = read_example()
        doc.pop("expected", None)
        path = write_spec(tmp_path, doc)
        assert main(["reproduce-paper", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_output_formats(self, fmt, tmp_path, capsys):
        code = main(
            ["purity", str(GENERATED_SPEC), "--out", str(tmp_path), "--format", fmt]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_csv_format_prints_the_written_series(self, tmp_path, capsys):
        assert main(["balance", str(GENERATED_SPEC), "--out", str(tmp_path), "--format", "csv"]) == 0
        header, *rows = (tmp_path / "balance_multiplier.csv").read_text().splitlines()
        assert header == "oscillator,lambda,h" and rows
        assert capsys.readouterr().out.splitlines() == ["# balance_multiplier.csv", *rows]

    def test_csv_format_without_series_prints_the_table(self, tmp_path, capsys):
        argv = ["purity", str(GENERATED_SPEC), "--out", str(tmp_path)]
        assert main([*argv, "--format", "table"]) == 0
        table = capsys.readouterr().out
        assert table.startswith("purity ")
        assert main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == table


def plain_report_text(report) -> str:
    """The report as json's generic encoder writes it with every array listed."""
    return json.dumps(report, sort_keys=True, allow_nan=False, default=np.ndarray.tolist)


class TestReportWriter:
    """``report.json`` is ``json.dumps`` of the report with its arrays listed, byte
    for byte, though the writer converts each entry pair of a symmetric matrix once."""

    @pytest.fixture(params=[*(path.stem for path in sorted(GENERATED_SPEC.parent.glob("*.json"))), "passive16"])
    def covariance_spec(self, request, tmp_path) -> Path:
        if request.param != "passive16":
            return GENERATED_SPEC.parent / f"{request.param}.json"
        params = make_passive_chain(np.random.default_rng(16), 16).params
        oscillators = [{"n": 2, "R": p.r_energy.tolist(), "M": p.m_coupling.tolist()} for p in params]
        return write_spec(tmp_path, {"field_channels": 2, "oscillators": oscillators})

    def test_covariance_outputs_are_the_plain_encoding(self, covariance_spec, tmp_path, monkeypatch, capsys):
        reports = []
        write = qcascade.cli._write_outputs

        def spy(run, report):
            reports.append(report)
            write(run, report)

        monkeypatch.setattr(qcascade.cli, "_write_outputs", spy)
        out = tmp_path / "out"
        assert main(["covariance", str(covariance_spec), "--out", str(out)]) == 0
        (report,) = reports
        p = report["results"]["p_direct"]
        assert isinstance(p, np.ndarray) and p.shape[0] >= 6  # the writer gets P itself
        text = (out / "report.json").read_text()
        assert text == plain_report_text(report)
        # the table and the --format json output, each as the entrywise text of the listed P
        written = json.loads(text)
        rows = "\n".join("  ".join(_fmt4(x) for x in row) for row in written["results"]["p_direct"])
        assert capsys.readouterr().out == f"covariance route gap {written['results']['route_gap']:.3e}\n{rows}\n"
        assert main(["covariance", str(covariance_spec), "--out", str(out), "--format", "json"]) == 0
        shown = {"results": written["results"], "provenance": written["provenance"]}
        assert capsys.readouterr().out == json.dumps(shown, indent=2, sort_keys=True) + "\n"
        assert (out / "report.json").read_text() == text

    @staticmethod
    def matrices() -> dict[str, np.ndarray]:
        a = np.random.default_rng(50).standard_normal((5, 5))
        sym = a + a.T
        asymmetric = sym.copy()
        asymmetric[3, 1] = np.nextafter(sym[1, 3], np.inf)  # one ulp off its mirror
        signed_zero = sym.copy()
        signed_zero[0, 2], signed_zero[2, 0] = -0.0, 0.0  # equal, but not bit for bit
        return {
            "symmetric": sym, "asymmetric": asymmetric, "signed_zero": signed_zero,
            "order2": np.array([[1.5, -1 / 3], [-1 / 3, 2e-300]]), "order1": np.array([[-0.0]]),
            "order0": np.zeros((0, 0)), "wide": a[:2], "vector": a[0], "transposed": sym.T,
        }

    @pytest.mark.parametrize(
        "name, mirrored",
        [("symmetric", True), ("asymmetric", False), ("signed_zero", False), ("order2", True), ("order1", True),
         ("order0", True), ("wide", False), ("vector", False), ("transposed", True)],
    )
    def test_a_matrix_is_written_as_its_list(self, name, mirrored, monkeypatch):
        calls = []
        monkeypatch.setattr(qcascade.cli, "vech_indices", lambda r: calls.append(r) or vech_indices(r))
        mat = self.matrices()[name]
        report = {"command": "covariance", "results": {"p_direct": mat, "route_gap": 0.0, "rows": [mat, 1e-300]}}
        assert _report_text(report) == plain_report_text(report)
        assert calls == ([len(mat)] * 2 if mirrored else [])  # once per occurrence

    def test_a_string_that_spells_a_placeholder_keeps_the_plain_encoding(self):
        mats = self.matrices()
        report = {"provenance": {"input": "\x000"}, "results": {"a": mats["symmetric"], "b": mats["order2"]}}
        assert _report_text(report) == plain_report_text(report)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_entry_is_refused(self, value):
        mat = self.matrices()["symmetric"]
        mat[1, 4] = mat[4, 1] = value  # bitwise symmetric still
        with pytest.raises(ValueError, match="not JSON compliant"):
            _report_text({"results": {"p_direct": mat, "route_gap": 0.0}})

    def test_a_nan_entry_writes_no_report(self, tmp_path, monkeypatch, capsys):
        direct = qcascade.cli.invariant_covariance_direct

        def with_nan(cascade):
            p = direct(cascade).copy()
            p[0, 1] = p[1, 0] = np.nan  # still bitwise symmetric
            return p

        monkeypatch.setattr(qcascade.cli, "invariant_covariance_direct", with_nan)
        out = tmp_path / "out"
        assert main(["covariance", str(GENERATED_SPEC), "--out", str(out)]) == 2
        assert "result is not finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestCrossTermSigma:
    """A rank-one sigma_k = u_k u_k^T couples dR_k and dM_k: Z_k is the
    variance of dV along u_k, (dV/du_k)^2, whatever the sign of each half."""

    @pytest.fixture()
    def rank_one(self, tmp_path):
        doc = read_example()
        rng = np.random.default_rng(1)
        us = [rng.standard_normal(15) for _ in doc["oscillators"]]
        doc["uncertainty"] = [{"sigma": np.outer(u, u).tolist()} for u in us]
        return write_spec(tmp_path, doc), us

    def test_index_is_the_squared_directional_derivative(self, rank_one, tmp_path):
        path, us = rank_one
        assert main(["sensitivity", str(path), "--out", str(tmp_path)]) == 0
        z_k = json.loads((tmp_path / "report.json").read_text())["results"]["z_k"]
        cascade, h = build_cascade(load_spec(path)), 1e-6
        for k, u in enumerate(us):
            de = [np.zeros((2, len(v))) for v in us]
            de[k] = np.stack([h * u, -h * u])
            logdet, _ = log_det_stack(perturbed_cascade_stack(cascade, de))
            slope = (logdet[0] - logdet[1]) / (2.0 * h)
            assert abs(z_k[k] - slope**2) <= 1e-6 * slope**2
        assert sum(z_k) == pytest.approx(48.942, abs=1e-3)

    def test_monte_carlo_check_accepts_it(self, rank_one, tmp_path):
        path, _ = rank_one
        argv = ["mc-check", str(path), "--out", str(tmp_path), "--samples", "20000", "--epsilon", "1e-10"]
        assert main(argv) == 0
        assert 0.9 <= json.loads((tmp_path / "report.json").read_text())["results"]["ratio"] <= 1.1


def spy_counts(monkeypatch, names) -> Counter:
    """Calls of each function in ``names``, counted wherever a qcascade module holds it."""
    counts = Counter()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    originals = {}
    for module in [m for n, m in sys.modules.items() if n.startswith("qcascade")]:
        for name in names:
            if hasattr(module, name):
                fn = originals.setdefault(name, getattr(module, name))
                monkeypatch.setattr(module, name, spy(name, fn))
    return counts


def refuse_calls(monkeypatch, names) -> None:
    """Make each function in ``names`` raise wherever a qcascade module holds it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a refused function was called")

    for module in [m for n, m in sys.modules.items() if n.startswith("qcascade")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def run_main(argv) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one ``main`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestPipeline:
    """Each command computes each stage of the chain at most once: P is
    solved, its Gramian (the gradients) formed and the cascade balanced."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        return spy_counts(
            monkeypatch, ("stationary_covariance", "observability_gramian_and_hankelian", "balance_cascade")
        )

    @pytest.mark.parametrize(
        "command, p, grads, balance",
        [
            ("validate", 1, 0, 0),
            ("covariance", 1, 0, 0),
            ("purity", 1, 0, 0),
            ("gradients", 1, 1, 0),
            ("sensitivity", 1, 1, 0),
            ("mc-check", 1, 1, 0),
            # the second P and gradient set are the round trip on the balanced cascade
            ("balance", 2, 2, 1),
            ("reproduce-paper", 2, 2, 1),
        ],
    )
    def test_stage_counts(self, command, p, grads, balance, counts, tmp_path):
        doc = read_example()
        doc["expected"] = {"total_ratio": 1.0}  # reproduce-paper fails it, and still runs once
        path = write_spec(tmp_path, doc)
        code = main([command, str(path), "--out", str(tmp_path / "out"), "--samples", "2000"])
        assert code == (2 if command == "reproduce-paper" else 0)
        assert counts == Counter(
            {
                "stationary_covariance": p,
                "observability_gramian_and_hankelian": grads,
                "balance_cascade": balance,
            }
        ) - Counter()

    def test_unstable_cascade_solves_no_covariance(self, counts, tmp_path, unstable_doc):
        path = write_spec(tmp_path, unstable_doc)
        assert main(["validate", str(path), "--out", str(tmp_path / "out")]) == 1
        assert counts == Counter()

    def test_each_setting_is_declared_once(self, tmp_path, capsys):
        names = {f.name for f in fields(RunFlags)}
        assert names == {"seed", "samples", "epsilon", "kmax"}
        parser = build_parser()
        flags = {a.dest for a in parser._actions if a.option_strings} - {"help", "out", "format"}
        assert flags == names
        # the options a spec may set, as its error lists them
        doc = read_example()
        doc["options"] = {"unknown": 1}
        assert main(["validate", str(write_spec(tmp_path, doc))]) == 1
        allowed = capsys.readouterr().err.strip().split("allowed: ")[1]
        assert set(allowed.split(", ")) == names
        # every option reaches the run and its provenance
        settings = asdict(RunFlags(samples=11, seed=3, epsilon=2e-6, kmax=2))
        doc["options"] = settings
        out = tmp_path / "out"
        assert main(["validate", str(write_spec(tmp_path, doc)), "--out", str(out)]) == 0
        provenance = json.loads((out / "report.json").read_text())["provenance"]
        assert {k: provenance[k] for k in names} == settings
        assert set(provenance) == names | {"input", "sha256", "version"}


#: every command, each with flags that keep it small
CACHE_COMMANDS = {
    "validate": [], "covariance": [], "purity": [], "gradients": [], "sensitivity": [],
    "balance": [], "mc-check": ["--samples", "2048", "--epsilon", "1e-10"], "ti-bounds": [],
    "reproduce-paper": [],
}


class TestSpecCache:
    """``main`` keeps the last spec it ran without an error, keyed by its path
    and the SHA-256 of its bytes, with the cascade and what is kept on it."""

    def entry(self):
        """The kept (spec, cascade) pair."""
        (loaded,) = qcascade.cli._LOADED.values()
        return loaded

    def same(self, a, b) -> bool:
        """Whether two kept pairs hold the same spec and the same cascade objects."""
        return all(x is y for x, y in zip(a, b, strict=True))

    @pytest.mark.parametrize("command", ["covariance", "purity", "gradients", "sensitivity"])
    def test_a_second_command_builds_and_solves_nothing(self, command, tmp_path, monkeypatch):
        assert main(["validate", str(GENERATED_SPEC), "--out", str(tmp_path / "v")]) == 0
        loaded = self.entry()
        counts = spy_counts(monkeypatch, ("load_spec", "assemble_cascade", "stationary_covariance"))
        assert main([command, str(GENERATED_SPEC), "--out", str(tmp_path / "c")]) == 0
        assert counts == Counter()
        assert self.same(self.entry(), loaded)

    def test_new_bytes_rebuild_the_cascade(self, tmp_path, monkeypatch):
        doc = read_example()
        path = write_spec(tmp_path, doc)
        assert main(["purity", str(path), "--out", str(tmp_path / "a")]) == 0
        counts = spy_counts(monkeypatch, ("load_spec", "assemble_cascade", "stationary_covariance"))
        doc["oscillators"][0]["R"][0][0] += 0.125
        write_spec(tmp_path, doc)
        assert main(["purity", str(path), "--out", str(tmp_path / "b")]) == 0
        assert counts == Counter({"load_spec": 1, "assemble_cascade": 1, "stationary_covariance": 1})
        reports = [json.loads((tmp_path / d / "report.json").read_text()) for d in "ab"]
        assert reports[0]["provenance"]["sha256"] != reports[1]["provenance"]["sha256"]
        assert reports[0]["results"]["v_logdet"] != reports[1]["results"]["v_logdet"]
        assert list(qcascade.cli._LOADED) == [(path, reports[1]["provenance"]["sha256"])]

    def test_same_bytes_under_a_new_path_report_it(self, tmp_path):
        for path in [write_spec(tmp_path, read_example(), name) for name in ("a.json", "b.json")]:
            assert main(["purity", str(path), "--out", str(tmp_path / path.stem)]) == 0
            report = json.loads((tmp_path / path.stem / "report.json").read_text())
            assert report["provenance"]["input"] == str(path)
            assert self.entry()[0].source == path

    @pytest.mark.parametrize(
        "command, code, shown",
        [("covariance", 2, "numerical error: oscillator 0 has spectral abscissa"),
         ("reproduce-paper", 1, "validation error: reproduce needs an 'expected' block")],
    )
    def test_a_refusal_is_not_kept(self, command, code, shown, tmp_path, unstable_doc):
        path = write_spec(tmp_path, unstable_doc)
        # validate writes its report, exit 1 for the unstable oscillator, and keeps the spec
        assert main(["validate", str(path), "--out", str(tmp_path / "v")]) == 1
        assert list(qcascade.cli._LOADED) != []
        replies = [run_main([command, str(path), "--out", str(tmp_path / "c")]) for _ in range(2)]
        assert replies[0] == replies[1]
        assert replies[0][0] == code and replies[0][2].startswith(shown)
        assert qcascade.cli._LOADED == {}

    def test_a_refused_spec_is_not_kept(self, tmp_path):
        doc = read_example()
        doc["oscillators"][0]["R"] = [[0.1, 0.5], [0.2, 0.3]]
        path = write_spec(tmp_path, doc)
        replies = [run_main(["validate", str(path), "--out", str(tmp_path)]) for _ in range(2)]
        assert replies[0] == replies[1]
        assert replies[0][0] == 1 and "asymmetry" in replies[0][2]
        assert qcascade.cli._LOADED == {}

    @pytest.mark.parametrize("spec", sorted((GENERATED_SPEC.parent).glob("*.json")), ids=lambda p: p.stem)
    def test_warm_outputs_are_the_cold_outputs(self, spec, tmp_path):
        def outputs(command, out):
            reply = run_main([command, str(spec), "--out", str(out), *CACHE_COMMANDS[command]])
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            return reply, files

        cold = {}
        for command in CACHE_COMMANDS:
            qcascade.cli._LOADED.clear()
            cold[command] = outputs(command, tmp_path / "cold" / command)
        # the first pass runs each command on what the earlier ones kept, the
        # second on everything; reproduce-paper refuses these specs, which
        # empties the cache, so it runs once, last
        passes = [c for c in CACHE_COMMANDS if c != "reproduce-paper"] * 2 + ["reproduce-paper"]
        for i, command in enumerate(passes):
            assert outputs(command, tmp_path / "warm" / str(i)) == cold[command], command
            if i == 0:
                loaded = self.entry()
            elif command != "reproduce-paper":
                assert self.same(self.entry(), loaded)

    def test_ti_bounds_reads_the_kept_cascade(self, tmp_path, monkeypatch):
        # its units come from the run's cascade: after validate, ti-bounds
        # assembles and realizes nothing, and writes the bytes of a cold run
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        assert main(["ti-bounds", str(GENERATED_SPEC), "--out", str(cold)]) == 0
        qcascade.cli._LOADED.clear()
        assert main(["validate", str(GENERATED_SPEC), "--out", str(tmp_path / "v")]) == 0
        refuse_calls(monkeypatch, ("oscillator_realization", "_series_connection", "assemble_cascade"))
        assert main(["ti-bounds", str(GENERATED_SPEC), "--out", str(warm)]) == 0
        for name in ("report.json", "ti_bounds.csv"):
            assert (warm / name).read_bytes() == (cold / name).read_bytes(), name

    def test_settings_are_checked_before_assembly(self, tmp_path, monkeypatch, capsys):
        refuse_calls(monkeypatch, ("assemble_cascade",))
        assert main(["mc-check", str(GENERATED_SPEC), "--out", str(tmp_path), "--samples", "1"]) == 1
        assert "samples must be at least 2" in capsys.readouterr().err

    def test_library_calls_are_not_cached(self, tmp_path):
        assert main(["gradients", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        loaded = self.entry()
        spec = load_spec(GENERATED_SPEC)
        assert spec is not loaded[0] and spec.sha256 == loaded[0].sha256
        cascade = build_cascade(spec)
        assert cascade is not loaded[1] and build_cascade(spec) is not cascade
        assert cascade.derived == {} and loaded[1].derived


class FakeLibc:
    """A libc handle whose ``mallopt`` records its calls."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt  # a function, so it takes ctypes' argtypes and restype


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestHeapPolicy:
    """``main`` sets glibc's heap policy once per process, and nothing where it
    cannot or where the environment sets a malloc tunable of its own."""

    @pytest.fixture()
    def libc(self, monkeypatch):
        for key in [k for k in os.environ if k.startswith("MALLOC_")] + ["GLIBC_TUNABLES"]:
            monkeypatch.delenv(key, raising=False)
        fake = FakeLibc()
        monkeypatch.setattr(qcascade.cli, "_libc", lambda: fake)
        qcascade.cli._keep_freed_heap.cache_clear()
        yield fake
        # the next run sets the policy of the real libc, as in a new process
        qcascade.cli._keep_freed_heap.cache_clear()

    def run_twice(self, tmp_path):
        for _ in range(2):
            assert main(["validate", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0

    def test_two_runs_set_it_once(self, libc, tmp_path):
        self.run_twice(tmp_path)
        # M_TRIM_THRESHOLD 256 MiB, M_TOP_PAD 16 MiB; the mmap threshold stays glibc's
        assert libc.calls == [(-1, 256 << 20), (-2, 16 << 20)]

    def test_a_libc_without_mallopt_is_left_alone(self, libc, tmp_path, monkeypatch):
        monkeypatch.setattr(qcascade.cli, "_libc", lambda: object())
        self.run_twice(tmp_path)
        assert libc.calls == []

    @pytest.mark.parametrize(
        "key, value",
        [
            ("MALLOC_TRIM_THRESHOLD_", "1048576"),
            ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2:glibc.malloc.trim_threshold=1048576"),
        ],
    )
    def test_a_malloc_tunable_in_the_environment_wins(self, libc, tmp_path, monkeypatch, key, value):
        monkeypatch.setenv(key, value)
        self.run_twice(tmp_path)
        assert libc.calls == []

    def test_a_tunable_of_another_namespace_does_not_count(self, libc, tmp_path, monkeypatch):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2")
        self.run_twice(tmp_path)
        assert libc.calls == [(-1, 256 << 20), (-2, 16 << 20)]

    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    @pytest.mark.parametrize("name", ["benchmark_mc3_s1_0.json", "benchmark_mc6_s1_0.json"], ids=["mc3", "mc6"])
    def test_a_second_chunked_run_faults_in_no_memory(self, tmp_path, name):
        script = (
            "import resource, sys\n"
            "from qcascade.cli import main\n"
            "argv = ['mc-check', sys.argv[1], '--samples', '4096', '--epsilon', '1e-10', '--out', sys.argv[2]]\n"
            "first = main(argv)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "second = main(argv)\n"
            "print(first, second, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        src = str(Path(qcascade.cli.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["OPENBLAS_NUM_THREADS"] = "1"
        spec = Path(__file__).resolve().parent / "data" / name
        done = subprocess.run(
            [sys.executable, "-c", script, str(spec), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        first, second, faults = map(int, done.stdout.splitlines()[-1].split())
        assert first == second
        assert faults < 100


class TestExitCodes:
    def test_schema_error_is_one(self, tmp_path):
        doc = read_example()
        doc["oscillators"][0]["R"] = [[0.1, 0.5], [0.2, 0.3]]
        path = write_spec(tmp_path, doc)
        assert main(["validate", str(path), "--out", str(tmp_path)]) == 1

    def test_an_unreadable_spec_is_one(self, tmp_path):
        code, out, err = run_main(["validate", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err.startswith(f"validation error: cannot read {tmp_path / 'absent.json'}: ")

    @pytest.mark.parametrize("j", [-20, 0, 20])
    @pytest.mark.parametrize("field", ["R", "sigma"])
    def test_asymmetry_is_refused_in_every_unit(self, tmp_path, field, j):
        # a 50 % asymmetry in the unit of time c = 4^j: an absolute 1e-9 let it
        # through, symmetrized, at c = 4^-20
        c = 4.0**j
        lopsided = c * np.array([[1.0, 0.5], [0.0, 1.0]])
        sigma = c * np.eye(7)
        sigma[:2, :2] = lopsided
        doc = {
            "field_channels": 2,
            "oscillators": [
                {"n": 2, "R": (lopsided if field == "R" else c * np.eye(2)).tolist(),
                 "M": (2.0**j * np.array([[0.7, 0.1], [0.2, 0.9]])).tolist()}
            ],
            "uncertainty": [{"sigma": sigma.tolist()} if field == "sigma" else {"a": 1.0, "b": 1.0}],
        }
        code, _, err = run_main(["validate", str(write_spec(tmp_path, doc)), "--out", str(tmp_path / "out")])
        where = "oscillators[0].R" if field == "R" else "uncertainty[0].sigma"
        assert code == 1
        assert err.startswith(f"validation error: {where}: asymmetry {0.5 * c:.3e} exceeds 1e-9 ")

    def test_misspelt_keys_are_one(self, tmp_path, capsys):
        doc = read_example()
        doc["epsilom"] = 1e-3
        doc["optionz"] = {"seed": 3}
        path = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'epsilom'" in err and "'optionz'" in err
        assert not (out / "report.json").exists()
        # a typo inside options would otherwise fall back to the default
        doc = read_example()
        doc["options"] = {"sedd": 3, "samplez": 10}
        path = write_spec(tmp_path, doc)
        assert main(["validate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "options: unknown key 'samplez', 'sedd'" in err
        assert not (out / "report.json").exists()

    def test_validate_flags_unstable_oscillator(self, tmp_path, unstable_doc, capsys):
        path = write_spec(tmp_path, unstable_doc)
        code = main(["validate", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "unstable" in capsys.readouterr().out

    def test_runtime_error_is_two(self, tmp_path, unstable_doc):
        path = write_spec(tmp_path, unstable_doc)
        assert main(["covariance", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "weight, shown",
        [("abc", "could not convert"), (float("nan"), "finite and nonnegative"), (-1.0, "finite and nonnegative"),
         ("0.5", "expected a number, got '0.5'"), (10**400, "int too large to convert to float")],
    )
    def test_uncertainty_weight_must_be_a_finite_number(self, weight, shown, tmp_path, capsys):
        doc = read_example()
        doc["uncertainty"][1] = {"a": weight, "b": 1.0}
        path = write_spec(tmp_path, doc)  # json writes NaN, which json.loads accepts
        out = tmp_path / "out"
        assert main(["validate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "validation error: uncertainty[1]" in err and shown in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "entry, shown",
        [
            # the sigma form used to win and the weights were never read
            ({"sigma": "identity", "a": "abc", "b": -5}, "uncertainty[1].a: could not convert"),
            ({"sigma": "identity", "a": 1.0, "b": 1.0}, "uncertainty[1]: needs either 'sigma' or both"),
            ({"sigma": "identity", "b": 1.0}, "uncertainty[1]: needs either 'sigma' or both"),
            ({"a": 1.0}, "uncertainty[1]: needs either 'sigma' or both"),
        ],
    )
    def test_uncertainty_entry_takes_exactly_one_form(self, entry, shown, tmp_path, capsys):
        doc = read_example()
        nk, m = 2, doc["field_channels"]
        if "sigma" in entry:
            entry["sigma"] = np.eye(nk * (nk + 1) // 2 + m * nk).tolist()
        doc["uncertainty"][1] = entry
        out = tmp_path / "out"
        assert main(["sensitivity", str(write_spec(tmp_path, doc)), "--out", str(out)]) == 1
        assert f"validation error: {shown}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, entry, bad",
        [
            ("R", (0, 1), float("nan")),
            ("M", (1, 0), float("inf")),
            ("theta", (0, 1), float("nan")),
            ("sigma", (2, 2), float("-inf")),
        ],
    )
    def test_non_finite_matrix_entry_is_one(self, field, entry, bad, tmp_path, capsys):
        doc = read_example()
        if field == "sigma":
            nk, m = 2, doc["field_channels"]
            target = doc["uncertainty"][1] = {"sigma": np.eye(nk * (nk + 1) // 2 + m * nk).tolist()}
            where = "uncertainty[1].sigma"
        else:
            target = doc["oscillators"][1]
            target.setdefault("theta", [[0.0, 0.5], [-0.5, 0.0]])
            where = f"oscillators[1].{field}"
        target[field][entry[0]][entry[1]] = bad
        path = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"validation error: {where}: entries must be finite" in err
        written = list(out.rglob("*")) if out.exists() else []
        assert not any("NaN" in f.read_text() for f in written if f.is_file())

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            # json gives bools and strings that numpy would turn into numbers
            ("R", [[True, False], [False, True]], "oscillators[0].R: expected a number, got True"),
            ("R", [["0.5", "0"], ["0", "0.5"]], "oscillators[0].R: expected a number, got '0.5'"),
            ("M", [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0], [False, 0]], "oscillators[0].M: expected a number, got False"),
            ("theta", [[0, "0.5"], [-0.5, 0]], "oscillators[0].theta: expected a number, got '0.5'"),
            ("sigma", True, "uncertainty[0].sigma: expected a number, got True"),
            ("expected", {"total_ratio": "1.0"}, "expected.total_ratio: expected a number, got '1.0'"),
            # json reads an integer literal as a Python int, which may be beyond a double
            ("R", [[10**400, 0], [0, 1]], "oscillators[0].R: not a numeric matrix: int too large to convert to float"),
        ],
    )
    def test_bools_and_numeric_strings_are_not_numbers(self, field, value, shown, tmp_path, capsys):
        doc = read_example()
        if field == "sigma":  # a bool on the diagonal of an otherwise valid sigma
            sigma = np.eye(sum(parameter_sizes(2, doc["field_channels"]))).tolist()
            sigma[3][3] = value
            doc["uncertainty"][0] = {"sigma": sigma}
        elif field == "expected":
            doc[field] = value
        else:
            doc["oscillators"][0][field] = value
        path = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"validation error: {shown}\n"
        assert not out.exists()

    def test_non_finite_result_is_two_and_writes_no_report(self, tmp_path, capsys, monkeypatch):
        # report.json is strict JSON: NaN and Infinity are not JSON values
        monkeypatch.setitem(
            qcascade.cli.COMMANDS, "purity", lambda run: ({"v_logdet": float("nan")}, 0, "table")
        )
        out = tmp_path / "out"
        assert main(["purity", str(GENERATED_SPEC), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "numerical error: result is not finite" in captured.err
        assert captured.out == ""
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "expected, where",
        [
            ({"rho": 5}, "expected.rho: must be a list"),
            ({"total_ratio": "abc"}, "expected.total_ratio: not a numeric"),
            ({"total_ratio": [1.0]}, "expected.total_ratio: expected shape ()"),
            ({"s": [1, 2, 3, 4]}, "expected.s: must be a list"),
            ({"ratios": [[1, 2]]}, "expected.ratios: must be a list"),
            ({"ratios": [[1, 2], [1, 2], [1, 2]]}, "expected.ratios[0]: expected shape ()"),
            ({"ratios": [1.0]}, "expected.ratios: must be a list"),
            ({"mu": [[[1]]]}, "expected.mu: must be a list"),
            ({"mu": [[[1.0] * 2] * 6, [[1.0] * 2] * 6, [[1.0] * 6] * 2]}, "expected.mu[2]: expected shape (6, 2)"),
            ({"psi_identity": [None, 1, 2]}, "expected.psi_identity[0]: entries must be finite"),
            ({"ratio": [1, 1, 1]}, "expected: unknown key 'ratio'"),
            ([1, 2], "expected: must be an object"),
        ],
    )
    def test_malformed_expected_block_is_one(self, expected, where, tmp_path, capsys):
        # refused when the spec loads, naming the entry, never broadcast or half checked
        path = write_spec(tmp_path, {**read_example(), "expected": expected})
        with pytest.raises(SchemaError, match=re.escape(where)):
            load_spec(path)
        out = tmp_path / "out"
        assert main(["reproduce-paper", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: {where}")
        assert not out.exists()

    def test_unknown_command_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate", str(GENERATED_SPEC)])

    @pytest.mark.parametrize(
        "args",
        [
            (["ti-bounds", "--kmax", "0"], {}),
            (["mc-check", "--samples", "0"], {}),
            (["mc-check", "--samples", "1"], {}, "samples must be at least 2"),
            (["gradients", "--fd-step", "0"], {}, "unrecognized argument"),
            (["mc-check", "--epsilon", "-1"], {}),
            (["covariance", "--tol-residual", "0"], {}, "unrecognized argument"),
            (["mc-check"], {"options": {"samples": 0}}),
            (["mc-check"], {"options": {"samples": 1}}, "samples must be at least 2"),
            (["mc-check"], {"options": {"samples": "many"}}),
            (["ti-bounds"], {"options": {"kmax": 0}}),
            (["gradients"], {"options": {"fd_step": -1e-5}}, "unknown key 'fd_step'"),
            (["mc-check"], {"options": {"epsilon": 0.0}}),
            (["mc-check"], {"epsilon": "abc"}),
            (["mc-check"], {"epsilon": -1}),
            (["balance", "--seed", "-1"], {}),
            (["mc-check"], {"options": {"seed": -3}}),
            (["mc-check", "--epsilon", "inf"], {}),
            (["covariance", "--tol-residual", "inf"], {}, "unrecognized argument"),
            (["gradients"], {"options": {"fd_step": float("inf")}}, "unknown key 'fd_step'"),
            # no bool, and an integer setting takes only a finite whole
            # number, from a flag's text or from the spec's options
            (["validate"], {"options": {"seed": 7.9}}),
            (["validate"], {"options": {"samples": 2.5}}),
            (["validate"], {"options": {"seed": True}}),
            (["validate"], {"options": {"epsilon": True}}),
            (["validate"], {"options": {"kmax": float("inf")}}),  # as the JSON number 1e400 loads
            (["validate", "--samples", "2.5"], {}),
            (["validate", "--samples", "abc"], {}),
            (["validate", "--seed", "nan"], {}),
            (["validate"], {"options": {"tol_residual": 1e-9}}, "unknown key 'tol_residual'"),
            (["validate"], {"epsilon": "1e-6"}, "epsilon: expected a number, got '1e-6'"),
            (["validate"], {"options": [1]}, "options: must be an object"),
            # no uncertainty at all: there is no predicted variance to compare with
            (["mc-check", "--samples", "64"], {"uncertainty": [{"a": 0.0, "b": 0.0}] * 3},
             "the error model predicts no variance of V (eps Z = 0.000e+00)"),
        ],
    )
    def test_out_of_range_flag_is_one(self, args, tmp_path, capsys):
        # a bad value from a flag or from the spec must not leak a traceback
        # from the library guards, nor run; a removed setting is refused for
        # its name, as a flag or as an option
        argv, changes, *reason = args
        path = write_spec(tmp_path, {**read_example(), **changes})
        out = tmp_path / "out"
        try:
            code = main([argv[0], str(path), "--out", str(out), *argv[1:]])
        except SystemExit as exc:  # the parser's usage error
            code = exc.code
        assert code == 1
        err = capsys.readouterr().err
        assert "validation error" in err
        assert all(text in err for text in reason)
        assert not (out / "report.json").exists()

    def test_whole_number_settings_agree_across_sources(self, tmp_path):
        seeds = []
        for name, options, argv in (("a", {"seed": 3.0}, []), ("b", {}, ["--seed", "3"])):
            path = write_spec(tmp_path, {**read_example(), "options": options}, f"{name}.json")
            out = tmp_path / name
            assert main(["validate", str(path), "--out", str(out), *argv]) == 0
            seeds.append(json.loads((out / "report.json").read_text())["provenance"]["seed"])
        assert seeds == [3, 3] and all(type(s) is int for s in seeds)

    @pytest.mark.parametrize(
        "argv",
        [["validate", "spec", "--bogus", "1"], ["validate", "spec", "--samples"], ["validate"],
         ["frobnicate", "spec"]],
    )
    def test_usage_error_is_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(GENERATED_SPEC) if a == "spec" else a for a in argv])
        assert exc.value.code == 1
        assert "validation error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, blocked",
        [("purity", "x"), ("balance", "x"), ("balance", "balanced.json"), ("balance", "balance_multiplier.csv")],
    )
    def test_unwritable_out_is_one(self, command, blocked, tmp_path):
        # a regular file where the output directory, or one of its files, would go
        out = tmp_path / "out"
        if blocked == "x":
            out.write_text("")
            out = out / "x"
        else:
            (out / blocked).mkdir(parents=True)
        code, stdout, stderr = run_main([command, str(GENERATED_SPEC), "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"validation error: cannot write {out}: ") and stderr.count("\n") == 1
        assert qcascade.cli._LOADED == {}

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sensitivity", "balance", "mc-check", "reproduce-paper"])
    def test_command_without_uncertainty_is_one(self, command, tmp_path, capsys):
        doc = {**read_example(), "expected": {}}
        del doc["uncertainty"]
        path = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "validation error: this command needs an 'uncertainty' block in the spec\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["balance", "reproduce-paper"])
    def test_balancing_refuses_sigma_form_uncertainty(self, command, tmp_path, capsys):
        doc = {**read_example(), "expected": {}}
        nk, m = 2, doc["field_channels"]
        doc["uncertainty"][1] = {"sigma": np.eye(nk * (nk + 1) // 2 + m * nk).tolist()}
        path = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "validation error: uncertainty[1]: balancing needs weights" in err
        assert "Traceback" not in err
        assert not out.exists()
        # the index itself takes the sigma form; only the weight-form bound is absent
        assert main(["sensitivity", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["input"] == str(path)
        results = report["results"]
        assert results["psi_identity"][1] is None and results["psi_identity"][0] is not None

    @pytest.mark.parametrize(
        "sigma, shown",
        [
            (-np.eye(15), "uncertainty covariance has eigenvalue -1.000e+00"),
            (np.eye(15) + np.triu(1e-6 * np.ones((15, 15)), 1), "asymmetry 1.000e-06 exceeds 1e-9"),
        ],
    )
    def test_uncertainty_sigma_must_be_a_covariance(self, sigma, shown, tmp_path, capsys):
        doc = read_example()  # m = 6 and one mode: sigma is 15 x 15
        doc["uncertainty"][2] = {"sigma": sigma.tolist()}
        path = write_spec(tmp_path, doc)
        with pytest.raises(SchemaError, match=r"uncertainty\[2\]\.sigma"):
            load_spec(path)
        out = tmp_path / "out"
        assert main(["sensitivity", str(path), "--out", str(out)]) == 1
        assert f"validation error: uncertainty[2].sigma: {shown}" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestHugeEntries:
    """Coupling entry (0, 0) of oscillator 2 times 1e150: the model's products
    stay within double precision but the sums of squares of its norms do
    not. Every command certifies its answer or refuses it with exit code 2,
    with no warning (the suite turns warnings into errors) and no traceback."""

    @pytest.fixture()
    def huge_spec(self, tmp_path):
        doc = read_example()
        doc["oscillators"][2]["M"][0][0] *= 1e150
        return write_spec(tmp_path, doc)

    @pytest.mark.parametrize(
        "argv, code",
        [
            # gradients runs production routes only, whose certificates pass
            (["validate"], 0), (["covariance"], 0), (["purity"], 0), (["gradients"], 0),
            (["sensitivity"], 2), (["balance"], 2), (["mc-check", "--samples", "64"], 2),
        ],
    )
    def test_answer_or_typed_refusal(self, huge_spec, argv, code, tmp_path, capsys):
        assert main([argv[0], str(huge_spec), "--out", str(tmp_path / "out"), *argv[1:]]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("numerical error: ")

    def test_certified_log_det_is_right(self, huge_spec, tmp_path):
        # the residual certificate passes at a scale near 1e300; V must then be right
        import mpmath as mp
        from test_covariance import mp_block_covariance

        assert main(["purity", str(huge_spec), "--out", str(tmp_path)]) == 0
        v = json.loads((tmp_path / "report.json").read_text())["results"]["v_logdet"]
        exact = mp_block_covariance(mp, build_cascade(load_spec(huge_spec)), dps=400)
        with mp.workdps(400):  # det cancels entries near 1e152 down to O(1)
            v_exact = float(mp.log(mp.det(mp.matrix(exact.tolist()))))
        assert abs(v - v_exact) <= 1e-9 * abs(v_exact)

    #: A and P carry M_2's 1e150 entry (|A|, |P| near 1e150), and the products of the
    #: one-mode block step that solves the covariance responses overflow
    REFUSALS = {
        "covariance responses": "overflow encountered in multiply",
        "Monte-Carlo samples": "overflow encountered in multiply",
    }

    @pytest.mark.parametrize(
        "argv, stage",
        [
            (["sensitivity"], "covariance responses"),
            (["mc-check", "--samples", "64"], "Monte-Carlo samples"),
        ],
    )
    def test_overflow_refusal_names_its_stage(self, huge_spec, argv, stage, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([argv[0], str(huge_spec), "--out", str(out), *argv[1:]]) == 2
        assert capsys.readouterr().err == f"numerical error: {stage}: {self.REFUSALS[stage]}\n"
        assert not out.exists()

    def test_fd_oracle_overflow_names_its_stage(self, huge_spec):
        # no command runs the finite-difference oracle; its refusal still names its stage
        cascade = build_cascade(load_spec(huge_spec))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as exc:
            gradient_fd_oracle(cascade)
        assert str(exc.value) == "finite-difference probes: overflow encountered in multiply"

    def test_balance_refusal_names_the_oscillator(self, huge_spec, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["balance", str(huge_spec), "--out", str(out)]) == 2
        assert "numerical error: oscillator 2: coupling-gradient Gram matrix" in capsys.readouterr().err
        assert not out.exists()

    def test_ti_bounds_refusal_names_the_oscillator(self, huge_spec, tmp_path, capsys):
        assert main(["ti-bounds", str(huge_spec), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "numerical error: oscillator 2: Hamiltonian matrix" in err
        assert "non-finite entry" in err


#: values a mutation writes: wrong types, non-finite, tiny and huge numbers, wrong shapes
JUNK = (
    True, False, None, "abc", "", float("nan"), float("inf"), -1, 0, 3.5, 2**70,
    0.0, -2.5, 1e-300, 1e300, [], [1.0], [[1.0]], [[[1.0]]], {}, {"x": 1},
)
#: keys a mutation adds to an object: an unknown one and every key of the schema
ADDED_KEYS = (
    "bogus", "field_channels", "oscillators", "uncertainty", "epsilon", "options", "expected",
    "n", "R", "M", "theta", "a", "b", "sigma", "seed", "samples", "kmax",
    "rho", "mu", "s", "psi_identity", "psi_balanced", "ratios", "total_ratio",
)
#: the commands a fuzzed spec runs; the flags pin the settings that set a run's cost
FUZZ_RUNS = (
    ["validate"], ["covariance"], ["purity"], ["gradients"], ["sensitivity"], ["balance"],
    ["ti-bounds", "--kmax", "3"], ["mc-check", "--samples", "64"], ["reproduce-paper"],
)


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root's () included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _mutated(doc, data):
    """``doc`` with one node scaled, dropped, added to or replaced by a junk
    value or by a copy of another node of the committed spec."""
    paths = list(_paths(doc))[::-1]  # the root last, as a draw shrinks to the front
    # half of the draws skip matrix entries, which are most of the nodes
    path = data.draw(st.sampled_from([p for p in paths if len(p) <= 3]) | st.sampled_from(paths))
    borrowed = st.sampled_from(list(_paths(EXAMPLE))).map(lambda p: _node(EXAMPLE, p))
    value = copy.deepcopy(data.draw(st.sampled_from(JUNK) | borrowed))
    op = data.draw(st.sampled_from(("scale", "drop", "add", "replace")))
    node = _node(doc, path)
    if op == "scale" and type(node) in (int, float) and path:
        # a number keeps its type and moves, so the spec may still be valid
        _node(doc, path[:-1])[path[-1]] = node * data.draw(st.sampled_from((-1.0, 0.0, 10.0, 1e-150, 1e150)))
    elif op == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(ADDED_KEYS))] = value
    elif op == "add" and isinstance(node, list):
        node.append(value)
    elif op == "drop" and path:
        del _node(doc, path[:-1])[path[-1]]
    elif path:
        _node(doc, path[:-1])[path[-1]] = value
    else:
        return value
    return doc


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


EXAMPLE = read_example()


class TestSpecFuzz:
    """A mutated spec gets exit code 0, 1 or 2 from any cheap command, never
    a traceback, and any report it writes is strict JSON."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_spec_exits_with_a_code(self, data):
        doc = copy.deepcopy(EXAMPLE)
        for _ in range(data.draw(st.integers(0, 3))):
            doc = _mutated(doc, data)
        argv = data.draw(st.sampled_from(FUZZ_RUNS))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "spec.json", Path(tmp) / "out"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], str(path), "--out", str(out), *argv[1:]])
            assert code in (0, 1, 2)
            if (out / "report.json").exists():
                json.loads((out / "report.json").read_text(), parse_constant=_no_constant)
