import copy
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import safeprob
from safeprob import bundled_scenario
from safeprob.cli import NOTIONS, main
from safeprob.demos import dilation_scenario, monty_scenario
from safeprob.errors import ParseError, ValidationError
from safeprob.scenario import emit_scenario, parse_scenario


def write(tmp_path, name, doc) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


BUNDLED = ["dilation.scn", "dilation3.scn", "monty.scn", "monty-naive.scn",
           "monty-events.scn", "partition-events.scn"]


class TestParsing:
    def test_bundled_dilation_matches_library_scenario(self):
        parsed = parse_scenario(bundled_scenario("dilation.scn"))
        scn = dilation_scenario()
        assert parsed.space.atoms == scn["space"].atoms
        assert parsed.pragmatic == scn["ptilde"]
        assert set(parsed.credal.vertex_list()) == set(scn["credal"].vertex_list())
        assert parsed.rvs["U"].table == scn["U"].table

    def test_bundled_monty_matches_library_scenario(self):
        parsed = parse_scenario(bundled_scenario("monty.scn"))
        scn = monty_scenario()
        assert parsed.pragmatic == scn["ptilde"]

    def test_conditional_pragmatic_completion(self):
        parsed = parse_scenario(bundled_scenario("monty-naive.scn"))
        from safeprob.core import Pmf

        assert parsed.pragmatic == Pmf.uniform(parsed.space)
        assert any("completed" in w for w in parsed.warnings)

    def test_decimal_and_fraction_literals_agree(self, tmp_path):
        doc = {
            "format": 1,
            "atoms": ["a", "b"],
            "rvs": {"U": {"a": 0, "b": 1}},
            "credal": {"vertices": [{"a": "0.9", "b": "1/10"}]},
            "pragmatic": {"joint": {"a": "9/10", "b": "0.1"}},
        }
        parsed = parse_scenario(write(tmp_path, "d.scn", doc))
        assert parsed.pragmatic.weights["a"] == Fraction(9, 10)
        assert parsed.credal.vertices[0].weights["a"] == Fraction(9, 10)

    def test_bad_sum_rejected(self, tmp_path):
        doc = {
            "format": 1,
            "atoms": ["a", "b"],
            "rvs": {"U": {"a": 0, "b": 1}},
            "credal": {"vertices": [{"a": "1"}]},
            "pragmatic": {"joint": {"a": "99/100"}},
        }
        with pytest.raises(ValidationError):
            parse_scenario(write(tmp_path, "bad.scn", doc))

    def test_float_probability_rejected(self, tmp_path):
        doc = {
            "format": 1,
            "atoms": ["a", "b"],
            "rvs": {"U": {"a": 0, "b": 1}},
            "credal": {"vertices": [{"a": 0.5, "b": 0.5}]},
            "pragmatic": {"joint": {"a": "1/2", "b": "1/2"}},
        }
        with pytest.raises(ValidationError):
            parse_scenario(write(tmp_path, "f.scn", doc))

    def test_unknown_atom_rejected(self, tmp_path):
        doc = {
            "format": 1,
            "atoms": ["a", "b"],
            "rvs": {"U": {"a": 0, "b": 1, "c": 2}},
            "credal": {"vertices": [{"a": "1"}]},
            "pragmatic": {"joint": {"a": "1"}},
        }
        with pytest.raises(ValidationError):
            parse_scenario(write(tmp_path, "u.scn", doc))

    def test_missing_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_scenario(write(tmp_path, "v.scn", {"atoms": ["a"]}))

    def test_infeasible_constraints_rejected_at_load(self, tmp_path):
        doc = {
            "format": 1,
            "atoms": ["a", "b"],
            "rvs": {"U": {"a": 0, "b": 1}},
            "credal": {"constraints": [
                {"coeffs": {"a": "1"}, "rel": "=", "rhs": "2"}
            ]},
            "pragmatic": {"joint": {"a": "1/2", "b": "1/2"}},
        }
        with pytest.raises(ValidationError):
            parse_scenario(write(tmp_path, "inf.scn", doc))

    def test_malformed_json_gives_location(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text('{"format": 1,\n  "atoms": [}', encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            parse_scenario(path)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("name", BUNDLED)
    def test_round_trip(self, name, tmp_path):
        first = parse_scenario(bundled_scenario(name))
        emitted = emit_scenario(first)
        path = tmp_path / name
        path.write_text(emitted, encoding="utf-8")
        second = parse_scenario(path)
        assert emit_scenario(second) == emitted
        if first.events is None:
            assert second.pragmatic == first.pragmatic
            assert second.space.atoms == first.space.atoms
        else:
            assert second.events == first.events


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCli:
    def test_check_marginal_exit_zero(self, capsys):
        code, out = run_cli(capsys, "check", str(bundled_scenario("dilation.scn")),
                            "--u", "U", "--v", "V", "--notion", "marginal")
        assert code == 0
        assert "HOLDS" in out

    def test_check_valid_exit_one_with_counterexample(self, capsys):
        code, out = run_cli(capsys, "check", str(bundled_scenario("dilation.scn")),
                            "--u", "U", "--v", "V", "--notion", "valid")
        assert code == 1
        assert "counterexample" in out

    def test_check_extension_witness_has_no_mass_on_two(self, capsys):
        code, out = run_cli(capsys, "check", str(bundled_scenario("dilation3.scn")),
                            "--u", "U", "--v", "V", "--notion", "unbiased", "--json")
        assert code == 1
        report = json.loads(out)
        vertex = report["verdicts"]["unbiased"]["counterexample"]["vertex"]
        assert not any(atom.startswith("u2") for atom in vertex)

    def test_check_indicator_average_holds(self, capsys):
        code, _ = run_cli(capsys, "check", str(bundled_scenario("dilation3.scn")),
                          "--u", "IND1", "--v", "V", "--notion", "unbiased")
        assert code == 0

    def test_check_pivotal_with_named_pivot(self, capsys):
        code, _ = run_cli(capsys, "check", str(bundled_scenario("monty.scn")),
                          "--u", "U", "--v", "V", "--notion", "pivotal",
                          "--pivot", "CAR_FOUND")
        assert code == 0

    def test_check_calibrated_naive_monty(self, capsys):
        code, _ = run_cli(capsys, "check", str(bundled_scenario("monty-naive.scn")),
                          "--u", "U", "--v", "V", "--notion", "calibrated")
        assert code == 1

    def test_check_with_stratifier(self, capsys):
        # ignoring V per stratum of V itself is exactly validity, which
        # fails in the dilation scenario while plain marginal validity holds
        code, _ = run_cli(capsys, "check", str(bundled_scenario("dilation.scn")),
                          "--u", "U", "--v", "V", "--notion", "marginal", "--w", "V")
        assert code == 1
        # a trivial stratifier must reproduce the unstratified answer
        code, _ = run_cli(capsys, "check", str(bundled_scenario("monty.scn")),
                          "--u", "U", "--v", "V", "--notion", "pivotal",
                          "--pivot", "CAR_FOUND", "--w", "W0")
        assert code == 0
        # stratifying by the conditioner itself kills the pivot property
        # inside the strata: the conditioned credal members disagree
        code = main(["check", str(bundled_scenario("monty.scn")),
                     "--u", "U", "--v", "V", "--notion", "pivotal",
                     "--pivot", "CAR_FOUND", "--w", "V"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("notion", [n for n in NOTIONS if n != "pivotal"])
    def test_pivot_only_with_pivotal(self, capsys, notion):
        code = main(["check", str(bundled_scenario("dilation.scn")),
                     "--u", "U", "--v", "V", "--notion", notion, "--pivot", "NOPE"])
        assert code == 2
        message = "--pivot is only supported with the pivotal notion"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_rv_exit_two(self, capsys):
        code = main(["check", str(bundled_scenario("dilation.scn")),
                     "--u", "NOPE", "--v", "V", "--notion", "valid"])
        assert code == 2

    def test_missing_file_exit_two(self):
        assert main(["check", "no-such-file.scn",
                     "--u", "U", "--v", "V", "--notion", "valid"]) == 2

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "binary.scn"
        path.write_bytes(b"\xff\xfe{bad")
        assert main(["check", str(path), "--u", "U", "--v", "V", "--notion", "valid"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_exit_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path), "--u", "U", "--v", "V", "--notion", "valid"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_huge_decimal_exponent_exits_two_at_once(self, tmp_path, capsys):
        doc = _with(VERTEX_DOC, ("rvs", "U", "a"), "1e100000000")
        start = time.perf_counter()
        code = main(["check", str(write(tmp_path, "huge.scn", doc)),
                     "--u", "U", "--v", "V", "--notion", "valid"])
        assert code == 2 and time.perf_counter() - start < 1
        assert "exceeds the limit" in capsys.readouterr().err

    def test_usage_error_exit_two(self, capsys):
        assert main(["check"]) == 2

    def test_report_command(self, capsys):
        code, out = run_cli(capsys, "report", str(bundled_scenario("dilation.scn")),
                            "--u", "U", "--v", "V", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["marginal"]["holds"] is True
        assert report["verdicts"]["valid"]["holds"] is False
        assert report["verdicts"]["calibrated"]["holds"] is True

    def test_events_commands(self, capsys):
        code, _ = run_cli(capsys, "events", str(bundled_scenario("monty-events.scn")))
        assert code == 1
        code, _ = run_cli(capsys, "events", str(bundled_scenario("partition-events.scn")))
        assert code == 0

    def test_coverage_command(self, capsys):
        code, out = run_cli(capsys, "coverage", "--family", "expmean", "--n", "5",
                            "--theta0", "2.0", "--a", "0.05", "--b", "0.95",
                            "--samples", "20000", "--seed", "12", "--json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["coverage"] - 0.9) < 0.02

    def test_demos_exit_zero(self, capsys):
        for name in ("dilation", "monty-hall", "gamble"):
            code, out = run_cli(capsys, "demo", name)
            assert code == 0, (name, out)

    def test_reports_are_deterministic(self, capsys):
        args = ("report", str(bundled_scenario("monty.scn")), "--u", "U", "--v", "V", "--json")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_coverage_seed_outside_philox_keys_exits_two(self, capsys, seed):
        assert main(["coverage", "--family", "normal", "--n", "3", "--theta0", "0",
                     "--a", "0.1", "--b", "0.9", "--samples", "100", "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: seed must lie in [0, 2**128), got {seed}\n")

    def test_pivot_errors_print_readable_values(self, capsys):
        path = str(bundled_scenario("dilation.scn"))
        code = main(["check", path, "--u", "U", "--v", "V", "--notion", "pivotal",
                     "--pivot", "V"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: not injective at conditioning value 0: targets 0 and 1 both map to 0\n"
        )
        warning = ("pivotal safety not evaluated: conditional probability 1/2 at "
                   "conditioning value 0 is shared by outcomes (0,1)")
        _, out = run_cli(capsys, "report", path, "--u", "V", "--v", "U")
        assert f"warning: {warning}" in out.splitlines()
        _, out = run_cli(capsys, "report", path, "--u", "V", "--v", "U", "--json")
        assert json.loads(out)["warnings"] == [warning]

    def test_forecast_values_print_readable(self, capsys):
        # the calibration conditioner's values are encoded forecast rows
        path = str(bundled_scenario("dilation.scn"))
        _, out = run_cli(capsys, "report", path, "--u", "V", "--v", "U")
        assert "  v=((0,1/2),(1,1/2)) u=0 lhs=1 rhs=1/2" in out.splitlines()
        _, out = run_cli(capsys, "report", path, "--u", "V", "--v", "U", "--json")
        ce = json.loads(out)["verdicts"]["calibrated"]["counterexample"]
        assert ce["v"] == "((0,1/2),(1,1/2))"

    def test_exact_modules_load_without_the_float_stack(self):
        script = ("import sys, safeprob, safeprob.cli\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
        src = str(Path(safeprob.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == "[]\n"

    def test_coverage_deterministic_with_seed(self, capsys):
        args = ("coverage", "--family", "normal", "--n", "1", "--theta0", "0.0",
                "--a", "0.1", "--b", "0.9", "--samples", "5000", "--seed", "3")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_coverage_seed_outside_philox_keys_exits_two(self, capsys, seed):
        assert main(["coverage", "--family", "normal", "--n", "3", "--theta0", "0",
                     "--a", "0.1", "--b", "0.9", "--samples", "100", "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: seed must lie in [0, 2**128), got {seed}\n")


class TestParserReuse:
    """``main`` builds its argument parser once per process; reusing it
    changes no output."""

    SRC = str(Path(safeprob.__file__).resolve().parent.parent)

    def test_import_builds_no_parser(self):
        script = ("import argparse\n"
                  "built = []\n"
                  "init = argparse.ArgumentParser.__init__\n"
                  "def counted(self, *args, **kwargs):\n"
                  "    built.append(kwargs.get('prog'))\n"
                  "    init(self, *args, **kwargs)\n"
                  "argparse.ArgumentParser.__init__ = counted\n"
                  "import safeprob.cli\n"
                  "print(built)\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": self.SRC})
        assert done.stdout == "[]\n"

    def test_one_process_prints_what_fresh_interpreters_print(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        path = str(bundled_scenario("dilation.scn"))
        argvs = [["check", path, "--u", "U"],
                 ["check", path, "--u", "U", "--v", "V", "--notion", "valid"],
                 ["--version"],
                 ["report", path, "--u", "U", "--v", "V", "--json"]]
        for argv in argvs:
            code = main(argv)
            got = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "safeprob.cli", *argv],
                                   capture_output=True, text=True,
                                   env={**os.environ, "PYTHONPATH": self.SRC, "COLUMNS": "80"})
            assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert [main(argv) for argv in argvs] == [2, 1, 0, 0]


class TestVectorOutcomes:
    """Event outcomes may be numeric vectors, named in the prior by their
    rendering."""

    DOC = {"format": 1, "events": {"outcomes": [[1, 2], [3, 4]],
                                   "prior": {"(1,2)": "1/2", "(3,4)": "1/2"},
                                   "observables": [[[1, 2]], [[3, 4]]]}}

    def test_prior_names_vector_outcomes(self, tmp_path, capsys):
        code, out = run_cli(capsys, "events", str(write(tmp_path, "ev.scn", self.DOC)), "--json")
        assert code == 0
        assert json.loads(out)["is_partition"] is True
        parsed = parse_scenario(write(tmp_path, "ev.scn", self.DOC))
        assert parsed.events.prior == {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 2)}

    def test_unknown_rendering_still_rejected(self, tmp_path, capsys):
        doc = copy.deepcopy(self.DOC)
        doc["events"]["prior"] = {"(1,2)": "1/2", "(5,6)": "1/2"}
        assert main(["events", str(write(tmp_path, "ev.scn", doc))]) == 2
        assert capsys.readouterr().err == "error: prior mentions unknown outcomes {(5,6)}\n"

    def test_mixed_vector_and_symbol_sets_emit(self, tmp_path):
        doc = {"format": 1, "events": {"outcomes": [[1, 2], "a"],
                                       "prior": {"(1,2)": "1/2", "a": "1/2"},
                                       "observables": [["a", [1, 2]]]}}
        parsed = parse_scenario(write(tmp_path, "ev.scn", doc))
        emitted = emit_scenario(parsed)
        assert json.loads(emitted)["events"]["observables"] == [[["1", "2"], "a"]]
        again = parse_scenario(write(tmp_path, "again.scn", json.loads(emitted)))
        assert again.events == parsed.events


class TestReportWarnings:
    def test_pivotal_omitted_for_lack_of_support_is_warned(self, tmp_path, capsys):
        # V=1 has no pragmatic mass: the probability-of-outcome pivot is
        # defined, but pivotal safety needs full conditioner support
        doc = {
            "format": 1,
            "atoms": ["u0v0", "u1v0", "u0v1"],
            "rvs": {"U": {"u0v0": 0, "u1v0": 1, "u0v1": 0},
                    "V": {"u0v0": 0, "u1v0": 0, "u0v1": 1}},
            "credal": {"vertices": [{"u0v0": "1/3", "u1v0": "2/3"},
                                    {"u0v0": "2/3", "u1v0": "1/3"}]},
            "pragmatic": {"joint": {"u0v0": "1/3", "u1v0": "2/3"}},
        }
        path = str(write(tmp_path, "support.scn", doc))
        message = "V lacks full support under the pragmatic distribution"
        code, out = run_cli(capsys, "report", path, "--u", "U", "--v", "V", "--json")
        report = json.loads(out)
        assert code == 0 and len(report["verdicts"]) == 7
        assert "pivotal" not in report["verdicts"]
        assert report["warnings"] == [f"pivotal safety not evaluated: {message}"]
        _, out = run_cli(capsys, "report", path, "--u", "U", "--v", "V")
        assert out.splitlines()[-1] == f"warning: pivotal safety not evaluated: {message}"
        assert main(["check", path, "--u", "U", "--v", "V", "--notion", "pivotal"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("target", ["C", "K"])
    def test_average_notions_omitted_for_a_symbol_target_are_warned(self, capsys, target):
        # the full-distribution verdicts stay; the average-mode ones and the
        # probability-of-outcome pivot (shared 1/4 or 1/2 at V=0) are left out
        path = str(Path(__file__).resolve().parent / "scenarios" / "symbol-target.scn")
        code, out = run_cli(capsys, "report", path, "--u", target, "--v", "V", "--json")
        report = json.loads(out)
        assert code == 0
        assert list(report["verdicts"]) == ["valid", "dist-unbiased", "marginal", "calibrated"]
        numeric = f"average-mode query needs a numeric target, got {target!r}"
        assert report["warnings"][:3] == [f"{name} not evaluated: {numeric}"
                                          for name in ("sqerr", "unbiased", "range")]
        assert len(report["warnings"]) == 4
        assert report["warnings"][3].startswith("pivotal safety not evaluated: conditional")
        _, text = run_cli(capsys, "report", path, "--u", target, "--v", "V")
        assert text.splitlines()[-4:] == [f"warning: {w}" for w in report["warnings"]]


class TestReadableValueErrors:
    """Values in update-rule and event errors print through format_value."""

    @pytest.mark.parametrize("rows, message", [
        ({"0": {"0": "0"}, "1": {"0": "1"}}, "row 0 does not sum to exactly 1"),
        ({"0": {"0": "-1/2", "1": "3/2"}, "1": {"0": "1"}}, "row 0 has a negative probability"),
        ({"0": {"7": "1", "9": "0"}, "1": {"0": "1"}},
         "row 0 mentions unknown target values {7, 9}"),
        ({"0": {"0": "1"}, "1": {"0": "1"}, "3": {"0": "1"}, "2": {"0": "1"}},
         "rule rows must cover the conditioner range exactly (missing [], extra [2, 3])"),
    ])
    def test_update_rule(self, tmp_path, capsys, rows, message):
        doc = {
            "format": 1,
            "atoms": ["a", "b", "c", "d"],
            "rvs": {"U": {"a": 0, "b": 1, "c": 0, "d": 1},
                    "V": {"a": 0, "b": 0, "c": 1, "d": 1}},
            "credal": {"vertices": [{"a": "1/4", "b": "1/4", "c": "1/4", "d": "1/4"}]},
            "pragmatic": {"conditional": {"u": "U", "v": "V", "rows": rows}},
        }
        path = str(write(tmp_path, "rule.scn", doc))
        assert main(["check", path, "--u", "U", "--v", "V", "--notion", "valid"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("prior, observables, message", [
        ({"1": "1/2", "2": "1/2", "5": "0", "4": "0"}, [[1, 2]],
         "prior mentions unknown outcomes {4, 5}"),
        ({"1": "1/2", "2": "1/2"}, [[1, 2], [5, 2, 3]],
         "observable set [2, 3, 5] leaves the base outcomes"),
    ])
    def test_event_scenario(self, tmp_path, capsys, prior, observables, message):
        doc = {"format": 1, "events": {"outcomes": [1, 2, 3], "prior": prior,
                                       "observables": observables}}
        assert main(["events", str(write(tmp_path, "ev.scn", doc))]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


VERTEX_DOC = {
    "format": 1,
    "atoms": ["a", "b"],
    "rvs": {"U": {"a": 0, "b": 1}, "V": {"a": 0, "b": 0}},
    "credal": {"vertices": [{"a": "1/2", "b": "1/2"}]},
    "pragmatic": {"joint": {"a": "1/2", "b": "1/2"}},
}
EVENT_DOC = {"format": 1, "events": {"outcomes": [1, 2], "prior": {"1": "1/2", "2": "1/2"},
                                     "observables": [[1], [2]]}}
CONSTRAINT = {"coeffs": {"a": 1}, "rel": "<=", "rhs": "1/2"}
CONDITIONAL = {"u": "U", "v": "V", "rows": {"0": {"0": "1/2", "1": "1/2"}}}
BAD_FORMAT = "missing or unsupported format version (expected 1)"


def _with(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestSchema:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_and_emitted_files_validate(self, name):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(bundled_scenario("scenario.schema.json").read_text(encoding="utf-8"))
        validator = jsonschema.Draft202012Validator(schema)
        path = bundled_scenario(name)
        validator.validate(json.loads(path.read_text(encoding="utf-8")))
        validator.validate(json.loads(emit_scenario(parse_scenario(path))))


class TestWrongJsonTypes:
    """A field of the wrong JSON type is an input error (exit 2) naming
    the field, not a crash."""

    @pytest.mark.parametrize("doc, message", [
        (_with(EVENT_DOC, ("events", "prior"), [["1", "1/2"]]), "events.prior: expected an object"),
        (_with(EVENT_DOC, ("events", "outcomes"), 12), "events.outcomes: expected an array"),
        (_with(EVENT_DOC, ("events", "outcomes"), "12"), "events.outcomes: expected an array"),
        (_with(EVENT_DOC, ("events", "observables"), {"1": 1}),
         "events.observables: expected an array"),
        (_with(EVENT_DOC, ("events", "observables", 1), 2),
         "events.observables[1]: expected an array"),
        (_with(VERTEX_DOC, ("credal", "vertices"), {"a": "1"}),
         "credal.vertices: expected an array"),
        (_with(VERTEX_DOC, ("credal",), {"constraints": 5}),
         "credal.constraints: expected an array"),
        (_with(VERTEX_DOC, ("credal",), {"constraints": [{**CONSTRAINT, "coeffs": ["a"]}]}),
         "credal.constraints[0].coeffs: expected an object"),
        (_with(VERTEX_DOC, ("pragmatic",), {"conditional": 5}),
         "pragmatic.conditional: expected an object"),
        (_with(VERTEX_DOC, ("pragmatic",), {"conditional": {**CONDITIONAL, "rows": []}}),
         "pragmatic.conditional.rows: expected an object"),
        (_with(VERTEX_DOC, ("pragmatic",), {"conditional": {**CONDITIONAL, "rows": {"0": 1}}}),
         "pragmatic.conditional.rows[0]: expected an object"),
        (_with(VERTEX_DOC, ("pragmatic",), {"conditional": {**CONDITIONAL, "u": ["U"]}}),
         "pragmatic.conditional: unknown rv ['U']"),
        (_with(VERTEX_DOC, ("format",), True), BAD_FORMAT),
        (_with(VERTEX_DOC, ("format",), 1.0), BAD_FORMAT),
        (_with(VERTEX_DOC, ("atoms",), 2), "atoms: expected an array"),
        (_with(VERTEX_DOC, ("atoms",), "ab"), "atoms: expected an array"),
        (_with(VERTEX_DOC, ("atoms",), ["a", ["b"]]), "atoms: expected an array of strings"),
        (_with(VERTEX_DOC, ("credal", "vertices"), []), "vertex form must be non-empty"),
        (_with(VERTEX_DOC, ("credal",), {}), "credal: needs either 'vertices' or 'constraints'"),
        (_with(VERTEX_DOC, ("pragmatic",), {}), "pragmatic: needs either 'joint' or 'conditional'"),
        (_with(VERTEX_DOC, ("credal",), {"constraints": [{**CONSTRAINT, "rhs": "x"}]}),
         "credal.constraints[0].rhs: not an exact number: 'x'"),
        (_with(VERTEX_DOC, ("credal",), {"constraints": [{**CONSTRAINT, "rhs": None}]}),
         "credal.constraints[0].rhs: expected a number, got None"),
        (_with(VERTEX_DOC, ("rvs", "U", "a"), 0.5),
         "rvs[U][a]: floats are inexact, use strings or integers"),
        (_with(VERTEX_DOC, ("rvs", "U", "a"), None), "rvs[U][a]: cannot read value literal None"),
        (_with(VERTEX_DOC, ("rvs", "U", "b"), [1, 2]), "rv 'U' mixes numeric arities [1, 2]"),
        (_with(VERTEX_DOC, ("atoms",), []), "outcome space must be non-empty"),
        (_with(VERTEX_DOC, ("atoms",), ["a", "a"]), "atom identifiers must be unique"),
        (_with(VERTEX_DOC, ("credal",), {"constraints": [{**CONSTRAINT, "coeffs": {"a": 0}}]}),
         "constraint needs at least one nonzero coefficient"),
        (_with(VERTEX_DOC, ("credal",), {"constraints": [{**CONSTRAINT, "rel": "<"}]}),
         "relation must be '=', '<=' or '>=', got '<'"),
        (_with(EVENT_DOC, ("events", "outcomes"), [1, 1]), "base outcomes must be distinct"),
        (_with(EVENT_DOC, ("events", "observables"), []), "need at least one observable set"),
        (_with(EVENT_DOC, ("events", "observables"), [[1], []]),
         "observable sets must be non-empty"),
        (_with(EVENT_DOC, ("events", "prior", "2"), "1/4"),
         "prior must be a pmf summing to exactly 1"),
    ])
    def test_exit_two_naming_the_field(self, tmp_path, capsys, doc, message):
        path = str(write(tmp_path, "bad.scn", doc))
        argv = ["events", path] if "events" in doc else [
            "check", path, "--u", "U", "--v", "V", "--notion", "valid"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.scn"
        path.write_text('{"format": 1, "atoms": ' + "[" * 100000 + "]" * 100000 + "}",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_scenario(path)
        assert main(["check", str(path), "--u", "U", "--v", "V", "--notion", "valid"]) == 2
        assert "nested too deeply" in capsys.readouterr().err


class TestCliSnapshot:
    def test_snapshot_of_one_bundled_file(self, tmp_path):
        script = Path(__file__).resolve().parent / "cli_snapshot.py"
        src = str(Path(safeprob.__file__).resolve().parent.parent)
        out = tmp_path / "snap.json"
        subprocess.run([sys.executable, str(script), str(out), "--scn", "dilation.scn"],
                       check=True, env={**os.environ, "PYTHONPATH": src})
        snap = json.loads(out.read_text(encoding="utf-8"))
        assert all(isinstance(code, int) and isinstance(stdout, str) and isinstance(stderr, str)
                   for code, stdout, stderr in snap.values())
        code, stdout, stderr = snap["check dilation.scn --u U --v V --notion valid"]
        assert (code, stderr) == (1, "")
        assert "input: dilation.scn (sha256:" in stdout
        assert json.loads(snap["report dilation.scn --u U --v V --json"][1])["command"] == "report"
        for argv in ("demo dilation", "demo monty-hall --json", "events dilation.scn"):
            assert argv in snap
        code, stdout, stderr = snap["demos/01_dilation_and_the_hierarchy.py"]
        assert (code, stderr) == (0, "") and stdout.startswith("Ignoring an observation")
        assert snap["check dilation.scn --u NO_SUCH_RV --v NO_SUCH_RV2 --w NO_SUCH_RV3 "
                    "--notion valid"][2] == "error: unknown rv 'NO_SUCH_RV'\n"

    def test_compare_lists_the_invocations_that_differ(self, tmp_path):
        script = Path(__file__).resolve().parent / "cli_snapshot.py"
        env = {**os.environ, "PYTHONPATH": str(Path(safeprob.__file__).resolve().parent.parent)}

        def snapshot(out, *extra):
            return subprocess.run([sys.executable, str(script), str(out), "--scn",
                                   "partition-events.scn", *extra],
                                  capture_output=True, text=True, env=env)

        old = tmp_path / "old.json"
        assert snapshot(old).returncode == 0
        same = snapshot(tmp_path / "same.json", "--compare", str(old))
        assert (same.returncode, same.stdout) == (0, "")
        entries = json.loads(old.read_text(encoding="utf-8"))
        entries["events partition-events.scn"][1] += "changed"
        del entries["demo gamble"]
        entries["demo nothing"] = [0, "", ""]
        old.write_text(json.dumps(entries), encoding="utf-8")
        differ = snapshot(tmp_path / "new.json", "--compare", str(old))
        assert differ.returncode == 1
        assert differ.stdout.splitlines() == ["events partition-events.scn", "demo gamble",
                                              "demo nothing"]


class TestDemoNumbersAreComputed:
    def test_dilation_numbers_move_with_marginal(self):
        from safeprob.demos import run_dilation_demo

        base = run_dilation_demo()
        moved = run_dilation_demo(Fraction(4, 5))
        ce_base = base["report"]["valid"].counterexample
        ce_moved = moved["report"]["valid"].counterexample
        assert (ce_base.lhs, ce_base.rhs) != (ce_moved.lhs, ce_moved.rhs)

    def test_monty_numbers_move_with_host_bias(self):
        from safeprob.demos import run_monty_demo

        base = run_monty_demo()
        moved = run_monty_demo(Fraction(9, 10))
        assert base["pivotal"].holds and not moved["pivotal"].holds
        assert not moved["ok"]

    def test_gamble_numbers_move_with_parameter(self):
        from safeprob.demos import run_gamble_demo

        base = run_gamble_demo()
        moved = run_gamble_demo(theta_bar=-0.5)
        assert base["actual_expected_loss"] != moved["actual_expected_loss"]
