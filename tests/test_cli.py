"""Command-line surface: golden outputs, exit codes, JSON, batch isolation."""

import json

import pytest

from fthresh import Ring, parse_polynomial, parse_result_json
from fthresh.cli import run
from fthresh.parsing import ParseError, parse_ring

from hypothesis import given

from helpers import poly_strategy

R7 = Ring(7, ("a", "b"))


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestGoldenOutputs:
    def test_fpt_exact(self, capsys):
        code, out, _ = invoke(capsys, "fpt", "--char", "5", "--vars", "x,y,z", "x^3+y^3+z^3+x*y*z")
        assert code == 0 and out == "4/5"

    def test_nu_generalized_power(self, capsys):
        code, out, _ = invoke(
            capsys,
            "nu", "--char", "3", "--vars", "x,y", "-e", "4",
            "--ideal", "x,y", "--power", "5", "--containment", "power",
        )
        assert code == 0 and out == "26"
        # the long spelling is accepted too
        code, out, _ = invoke(
            capsys,
            "nu", "--char", "3", "--vars", "x,y", "-e", "4",
            "--ideal", "x,y", "--power", "5", "--containment", "frobenius-power",
        )
        assert code == 0 and out == "26"

    def test_fpt_numeric_final_attempt(self, capsys):
        code, out, _ = invoke(
            capsys,
            "fpt", "--char", "5", "--vars", "x,y", "--numeric", "-e", "3",
            "--final-attempt", "--guess-strategy", "denominator-power",
            "2*x^10*y^8+x^4*y^7-2*x^3*y^8",
        )
        assert code == 0 and out == "{0.142067, 0.144}"

    def test_nu_return_list(self, capsys):
        code, out, _ = invoke(
            capsys,
            "nu", "--char", "5", "--vars", "x,y,z", "-e", "5",
            "--return-list", "x^2*y^4 + y^2*z^7 + z^2*x^8",
        )
        assert code == 0 and out == "{0, 1, 8, 44, 224, 1124}"

    def test_nu_infinity(self, capsys):
        code, out, _ = invoke(
            capsys, "nu", "--char", "7", "--vars", "x,y", "-e", "3", "(x - 1)^3 - (y - 2)^2"
        )
        assert code == 0 and out == "infinity"

    def test_inline_ring_spec(self, capsys):
        code, out, _ = invoke(capsys, "fpt", "--ring", "ZZ/5[x,y,z]", "x^17+y^20+z^24")
        assert code == 0 and out == "94/625"

    def test_is_fpt(self, capsys):
        code, out, _ = invoke(
            capsys,
            "is-fpt", "--char", "5", "--vars", "x,y,z", "--at-origin",
            "-t", "997/6250", "x^2*y^6*z^10 + x^10*y^5*z^3",
        )
        assert code == 0 and out == "true"

    def test_is_fjumping_default_global(self, capsys):
        code, out, _ = invoke(
            capsys,
            "is-fjumping", "--char", "13", "--vars", "x,y",
            "-t", "3/4", "y*((y + 1) - (x - 1)^2)*(x - 2)*(x + y - 2)",
        )
        assert code == 0 and out == "true"

    def test_snc(self, capsys):
        code, out, _ = invoke(capsys, "snc", "--char", "7", "--vars", "x,y,z", "x^2 - y^2")
        assert code == 0 and out == "true"

    def test_fsignature(self, capsys):
        code, out, _ = invoke(
            capsys,
            "fsignature", "--char", "5", "--vars", "x,y", "-e", "3", "-a", "16",
            "2*x^10*y^8+x^4*y^7-2*x^3*y^8",
        )
        assert code == 0 and out == "793/15625"

    def test_lex_order_flag(self, capsys):
        code, out, _ = invoke(
            capsys, "fpt", "--char", "5", "--vars", "x,y,z", "--order", "lex",
            "x^3+y^3+z^3+x*y*z",
        )
        assert code == 0 and out == "4/5"

    def test_compare_fpt(self, capsys):
        code, out, _ = invoke(
            capsys,
            "compare-fpt", "--char", "5", "--vars", "x,y,z", "--at-origin",
            "-t", "1/2", "x^3+y^3+z^3+x*y*z",
        )
        assert code == 0 and out == "-1"

    def test_test_ideal(self, capsys):
        code, out, _ = invoke(
            capsys,
            "test-ideal", "--char", "5", "--vars", "x,y,z",
            "-t", "1/2", "x^3+y^3+z^3+x*y*z",
        )
        assert code == 0 and out == "ideal(1)"


class TestJson:
    def test_fpt_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys, "fpt", "--char", "5", "--vars", "x,y,z", "--json", "x^5 + y^6 + z^7 + (x*y*z)^3"
        )
        assert code == 0
        result = parse_result_json(out)
        assert result.kind == "interval"
        assert not result.lower_closed and not result.upper_closed

    def test_nu_json(self, capsys):
        code, out, _ = invoke(
            capsys, "nu", "--char", "11", "--vars", "x,y,z", "-e", "3", "--json",
            "x^3 + y^3 + z^3 + x*y*z",
        )
        assert code == 0 and json.loads(out) == {"kind": "integer", "value": "1209"}

    def test_boolean_json(self, capsys):
        code, out, _ = invoke(
            capsys, "snc", "--char", "7", "--vars", "x,y,z", "--json", "x^2 - y*z"
        )
        assert code == 0 and json.loads(out) == {"kind": "boolean", "value": False}


class TestErrors:
    def test_parse_error_exit_code(self, capsys):
        code, _, err = invoke(capsys, "fpt", "--char", "5", "--vars", "x,y", "x^^2")
        assert code == 2 and "error" in err

    def test_unknown_variable(self, capsys):
        code, _, err = invoke(capsys, "fpt", "--char", "5", "--vars", "x,y", "x + w")
        assert code == 2 and "unknown variable" in err

    def test_domain_error_exit_code(self, capsys):
        code, _, err = invoke(capsys, "fpt", "--char", "5", "--vars", "x,y", "3")
        assert code == 1 and "error" in err

    def test_composite_characteristic(self, capsys):
        code, _, err = invoke(capsys, "fpt", "--char", "6", "--vars", "x,y", "x")
        assert code == 1 and "not prime" in err

    def test_missing_ring(self, capsys):
        code, _, err = invoke(capsys, "fpt", "x")
        assert code == 2

    def test_negative_attempts_rejected(self, capsys):
        code, out, err = invoke(capsys, "fpt", "--char", "5", "--vars", "x,y", "--attempts", "-3", "x*y")
        assert code == 2 and out == "" and "--attempts" in err


class TestBatch:
    def test_batch_runs_all_lines(self, tmp_path, capsys):
        batch = tmp_path / "requests.txt"
        batch.write_text(
            "fpt --char 5 --vars x,y,z x^3+y^3+z^3+x*y*z\n"
            "\n"
            "nu --char 3 --vars x,y -e 4 --ideal x,y --power 5 --containment power\n"
        )
        code, out, _ = invoke(capsys, "batch", str(batch))
        assert code == 0
        assert out.splitlines() == ["4/5", "26"]

    def test_batch_empty_file(self, tmp_path, capsys):
        batch = tmp_path / "empty.txt"
        batch.write_text("")
        code, out, _ = invoke(capsys, "batch", str(batch))
        assert code == 0 and out == ""

    def test_batch_isolates_failures(self, tmp_path, capsys):
        batch = tmp_path / "mixed.txt"
        batch.write_text(
            "fpt --char 5 --vars x,y x^^oops\n"
            "fpt --char 5 --vars x,y,z x^17+y^20+z^24\n"
        )
        code, out, err = invoke(capsys, "batch", str(batch))
        assert code == 0
        assert out.splitlines() == ["94/625"]
        assert "error" in err

    def test_batch_json_array(self, tmp_path, capsys):
        batch = tmp_path / "requests.json"
        batch.write_text(json.dumps([
            ["fpt", "--char", "5", "--vars", "x,y,z", "x^17+y^20+z^24"],
            "snc --char 7 --vars x,y,z (x-y)*(x+y)",
        ]))
        code, out, _ = invoke(capsys, "batch", str(batch))
        assert code == 0
        assert out.splitlines() == ["94/625", "true"]

    @pytest.mark.parametrize(
        "text",
        ['[ "fpt -p 5 x^2+y^3", ', "[1, 2]", '["fpt --char 5 --vars x,y \\"x"]', 'fpt --char 5 "x\n'],
    )
    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys, text):
        batch = tmp_path / "bad.json"
        batch.write_text(text)
        code, out, err = invoke(capsys, "batch", str(batch))
        assert code == 2 and out == "" and "error" in err

    def test_batch_entry_is_refused(self, tmp_path, capsys):
        # a file that runs itself would recurse without end
        batch = tmp_path / "loop.txt"
        batch.write_text(f"fpt --char 5 --vars x,y x^2+y^3\nbatch {batch}\n")
        code, out, err = invoke(capsys, "batch", str(batch))
        assert code == 2 and out == "" and "batch" in err

    def test_unreadable_file(self, capsys):
        code, _, err = invoke(capsys, "batch", "/nonexistent/path.txt")
        assert code == 1 and "error" in err


class TestRingParsing:
    def test_parse_ring(self):
        ring = parse_ring("ZZ/7[a, b]")
        assert ring.characteristic == 7 and ring.variables == ("a", "b")

    def test_parse_ring_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_ring("GF(9)[x]")
        with pytest.raises(ParseError):
            parse_ring("ZZ/4[x]")

    @pytest.mark.parametrize("text", ["(" * 5000 + "a" + ")" * 5000, "b" + "-" * 5000 + "a"])
    def test_deep_nesting_is_a_parse_error(self, capsys, text):
        with pytest.raises(ParseError):
            parse_polynomial(text, R7)
        code, out, err = invoke(capsys, "fpt", "--char", "7", "--vars", "a,b", text)
        assert code == 2 and out == "" and "nested too deeply" in err

    def test_moderate_nesting_parses(self):
        assert parse_polynomial("(" * 90 + "a" + ")" * 90, R7) == R7.variable("a")
        assert parse_polynomial("-" * 90 + "a", R7) == R7.variable("a")

    @given(f=poly_strategy(R7))
    def test_round_trip_through_text(self, f):
        assert parse_polynomial(str(f), R7) == f
