import json
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import qcascade.cli

from conftest import GENERATED_SPEC
from qcascade.cli import (
    RunFlags,
    _fmt4,
    _spec_document_from_cascade,
    build_cascade,
    build_parser,
    load_spec,
    main,
)
from qcascade.balance import balance_cascade
from qcascade.covariance import invariant_covariance_direct, invariant_covariance_recursive
from qcascade.errors import DimensionMismatch, ParseError, QCascadeError, SchemaError, SingularTheta
from qcascade.gradients import purity_gradients_direct
from qcascade.oscillator import assemble_cascade


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
                for u in reference_spec.uncertainty.oscillators
            ]
        doc["expected"] = {}
        spec = load_spec(write_spec(tmp_path, doc))
        assert len(spec.oscillators) == 3
        assert spec.epsilon == reference_spec.epsilon

    def test_build_cascade_round_trip(self, reference_spec):
        cascade = build_cascade(reference_spec)
        assert cascade.dims == (2, 2, 2)
        assert cascade.m == 6
        assert cascade.all_hurwitz()


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
        # the FD probes, covariance responses and balance probes are built
        # in closed form and solved in stacks; one assembly or dense solve
        # per perturbation would bring back the per-direction loops. A dense
        # solve is one Schur factorization of the whole composite.
        import sys

        import scipy.linalg

        order = build_cascade(load_spec(GENERATED_SPEC)).n
        counts = {"assemble": 0, "expm": 0, "schur": 0}

        def spy(key, fn):
            def wrapped(*args, **kwargs):
                if key != "schur" or np.shape(args[0])[0] == order:
                    counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        targets = [
            (module, "assemble_cascade", "assemble")
            for name, module in list(sys.modules.items())
            if name.startswith("qcascade") and hasattr(module, "assemble_cascade")
        ]
        targets += [(scipy.linalg, "expm", "expm"), (scipy.linalg, "schur", "schur")]
        for owner, attr, key in targets:
            monkeypatch.setattr(owner, attr, spy(key, getattr(owner, attr)))
        assert main([command, str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        assert counts["expm"] == 0
        assert 1 <= counts["assemble"] <= 2
        assert 1 <= counts["schur"] <= 4

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

    def test_balanced_spec_is_a_fixed_point(self, tmp_path):
        assert main(["balance", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 0
        second = tmp_path / "second"
        assert main(["balance", str(tmp_path / "balanced.json"), "--out", str(second)]) == 0
        report = json.loads((second / "report.json").read_text())
        assert report["results"]["total_ratio"] == pytest.approx(1.0, abs=1e-6)

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
        report = balance_cascade(reference_cascade, grads, reference_spec.uncertainty, seed=7)
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


class TestPipeline:
    """Each command computes each stage of the chain at most once."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = Counter()

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        names = ("stationary_covariance", "purity_gradients_direct", "balance_cascade")
        originals = {}
        for module in [m for n, m in sys.modules.items() if n.startswith("qcascade")]:
            for name in names:
                if hasattr(module, name):
                    fn = originals.setdefault(name, getattr(module, name))
                    monkeypatch.setattr(module, name, spy(name, fn))
        return counts

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
            {"stationary_covariance": p, "purity_gradients_direct": grads, "balance_cascade": balance}
        ) - Counter()

    def test_unstable_cascade_solves_no_covariance(self, counts, tmp_path, unstable_doc):
        path = write_spec(tmp_path, unstable_doc)
        assert main(["validate", str(path), "--out", str(tmp_path / "out")]) == 1
        assert counts == Counter()

    def test_each_setting_is_declared_once(self, tmp_path, capsys):
        names = {f.name for f in fields(RunFlags)}
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
        settings = asdict(RunFlags(tol_residual=2e-9, fd_step=2e-5, samples=11, seed=3,
                                   epsilon=2e-6, kmax=2))
        doc["options"] = settings
        out = tmp_path / "out"
        assert main(["validate", str(write_spec(tmp_path, doc)), "--out", str(out)]) == 0
        provenance = json.loads((out / "report.json").read_text())["provenance"]
        assert {k: provenance[k] for k in names} == settings
        assert set(provenance) == names | {"input", "sha256", "version"}


class TestExitCodes:
    def test_schema_error_is_one(self, tmp_path):
        doc = read_example()
        doc["oscillators"][0]["R"] = [[0.1, 0.5], [0.2, 0.3]]
        path = write_spec(tmp_path, doc)
        assert main(["validate", str(path), "--out", str(tmp_path)]) == 1

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
        "weight, shown", [("abc", "could not convert"), (float("nan"), "finite and nonnegative")]
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

    def test_unknown_command_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate", str(GENERATED_SPEC)])

    @pytest.mark.parametrize(
        "args",
        [
            (["ti-bounds", "--kmax", "0"], {}),
            (["mc-check", "--samples", "0"], {}),
            (["gradients", "--fd-step", "0"], {}),
            (["mc-check", "--epsilon", "-1"], {}),
            (["covariance", "--tol-residual", "0"], {}),
            (["mc-check"], {"options": {"samples": 0}}),
            (["mc-check"], {"options": {"samples": "many"}}),
            (["ti-bounds"], {"options": {"kmax": 0}}),
            (["gradients"], {"options": {"fd_step": -1e-5}}),
            (["mc-check"], {"options": {"epsilon": 0.0}}),
            (["mc-check"], {"epsilon": "abc"}),
            (["mc-check"], {"epsilon": -1}),
            (["balance", "--seed", "-1"], {}),
            (["mc-check"], {"options": {"seed": -3}}),
            (["mc-check", "--epsilon", "inf"], {}),
            (["covariance", "--tol-residual", "inf"], {}),
            (["gradients"], {"options": {"fd_step": float("inf")}}),
            # flags and spec options share one converter: no bool, and an
            # integer setting takes only a finite whole number
            (["validate"], {"options": {"seed": 7.9}}),
            (["validate"], {"options": {"samples": 2.5}}),
            (["validate"], {"options": {"seed": True}}),
            (["validate"], {"options": {"epsilon": True}}),
            (["validate"], {"options": {"kmax": float("inf")}}),  # as the JSON number 1e400 loads
            (["validate", "--samples", "2.5"], {}),
            (["validate", "--samples", "abc"], {}),
            (["validate", "--seed", "nan"], {}),
        ],
    )
    def test_out_of_range_flag_is_one(self, args, tmp_path, capsys):
        # a bad value from a flag or from the spec must not leak a traceback
        # from the library guards, nor run
        argv, changes = args
        path = write_spec(tmp_path, {**read_example(), **changes})
        out = tmp_path / "out"
        code = main([argv[0], str(path), "--out", str(out), *argv[1:]])
        assert code == 1
        assert "validation error" in capsys.readouterr().err
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

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

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
