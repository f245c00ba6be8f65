import json
import time

import pytest

from ecta.automaton import format_ecta, get_example
from ecta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_region_default(self, capsys):
        code, out, err = run(capsys, "check", "ainf")
        assert code == 0
        assert out.strip() == "non_empty"
        assert err == ""

    def test_region_json(self, capsys):
        code, out, _ = run(capsys, "check", "ainf", "--json")
        data = json.loads(out)
        assert data["method"] == "region"
        assert data["verdict"] == "non_empty"
        assert data["cmax"] == 1
        assert data["variant"] == "classic"
        assert data["quantifier"] == "exists"
        assert data["states"] == 59

    def test_region_options(self, capsys):
        code, out, _ = run(
            capsys, "check", "ainf", "--refined", "--forall", "--cmax", "2",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["variant"] == "refined"
        assert data["quantifier"] == "forall"
        assert data["verdict"] == "non_empty"

    def test_forward(self, capsys):
        code, out, _ = run(
            capsys, "check", "ainf", "--method", "forward", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "non_empty"
        assert data["witness"][0]["location"] == "q0"
        assert data["witness"][-1]["location"] == "q1"

    def test_backward_fuel_runs_out(self, capsys):
        code, out, _ = run(
            capsys, "check", "backdiv", "--method", "backward", "--fuel", "2"
        )
        assert code == 0
        assert out.strip() == "unknown"

    def test_backward_literal_accept(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "backdiv", "--method", "backward", "--fuel", "50",
            "--literal-accept", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "non_empty"
        assert data["steps"] == 8

    def test_negative_fuel(self, capsys):
        for method in ("forward", "backward"):
            code, out, err = run(
                capsys, "check", "ainf", "--method", method, "--fuel", "-3"
            )
            assert code == 2
            assert out == ""
            assert "error:" in err

    def test_negative_cmax(self, capsys):
        code, out, err = run(
            capsys, "check", "ainf", "--method", "region", "--cmax", "-1"
        )
        assert code == 2
        assert out == ""
        assert "natural number" in err

    def test_boolean_cmax_in_file(self, capsys, tmp_path):
        data = json.loads(format_ecta(get_example("ainf")))
        data["cmax"] = True
        target = tmp_path / "ainf.json"
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(target), "--json")
        assert code == 2
        assert out == ""
        assert "natural number" in err

    def test_cmax_too_small(self, capsys):
        code, out, err = run(capsys, "check", "ainf", "--cmax", "0")
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ["check", "ainf", "--method", "backward", "--fuel", "\u0661_\u0660"],
        ["check", "ainf", "--method", "forward", "--fuel", "1_0"],
        ["check", "ainf", "--cmax", "\u0662"],
        ["check", "ainf", "--max-states", "\u0665\u0660"],
        ["untime", "ainf", "--cmax", "+2"],
        ["bounded-lang", "ainf", "-k", "\u0663"],
    ])
    def test_numbers_in_ascii_digits_only(self, capsys, argv):
        # int() reads these as 10, 10, 2, 50, 2 and 3
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not an integer in ASCII digits" in captured.err

    def test_region_budget_ends_in_unknown(self, capsys, tmp_path):
        target = tmp_path / "ainf.json"
        target.write_text(format_ecta(get_example("ainf"), cmax=100))
        start = time.monotonic()
        code, out, err = run(capsys, "check", str(target), "--max-states", "2000", "--json")
        assert time.monotonic() - start < 5
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["verdict"], data["cmax"], data["max_states"]) == ("unknown", 100, 2000)
        assert data["states"] > 2000

    @pytest.mark.parametrize("cmax", [100, 200])
    def test_region_budget_holds_from_the_first_region(self, capsys, tmp_path, cmax):
        # ainf's initial zone meets about cmax² regions; the build draws
        # them one at a time and stops at the first state past the budget
        target = tmp_path / "ainf.json"
        target.write_text(format_ecta(get_example("ainf"), cmax=cmax))
        start = time.monotonic()
        code, out, err = run(capsys, "check", str(target), "--max-states", "2000", "--json")
        assert time.monotonic() - start < 1
        data = json.loads(out)
        assert (code, err, data["verdict"], data["cmax"]) == (0, "", "unknown", cmax)
        assert data["states"] <= 2001

    def test_region_budget_with_a_huge_cmax(self, capsys, tmp_path):
        # the ranks of a free clock are offered one at a time, not listed
        target = tmp_path / "ainf.json"
        target.write_text(format_ecta(get_example("ainf"), cmax=10**7))
        start = time.monotonic()
        code, out, err = run(capsys, "check", str(target), "--max-states", "10")
        assert time.monotonic() - start < 1
        assert (code, out, err) == (0, "unknown\n", "")

    def test_cmax_past_the_cell_limit(self, capsys, tmp_path):
        target = tmp_path / "ainf.json"
        target.write_text(format_ecta(get_example("ainf"), cmax=2**70))
        code, out, err = run(capsys, "check", str(target), "--max-states", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: cmax=") and "too large" in err

    def test_region_budget_it_fits(self, capsys):
        code, out, _ = run(capsys, "check", "ainf", "--max-states", "59", "--json")
        assert (code, json.loads(out)["verdict"], json.loads(out)["states"]) == (0, "non_empty", 59)
        code, out, _ = run(capsys, "check", "ainf", "--max-states", "58")
        assert (code, out) == (0, "unknown\n")

    def test_negative_region_budget(self, capsys):
        code, out, err = run(capsys, "check", "ainf", "--max-states", "-1")
        assert (code, out) == (2, "")
        assert "max_states must be a natural number" in err

    def test_cmax_from_the_file(self, capsys, tmp_path):
        target = tmp_path / "ainf.json"
        target.write_text(format_ecta(get_example("ainf"), cmax=2))
        code, out, _ = run(capsys, "check", str(target), "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["cmax"], data["states"]) == (2, 123)
        code, out, _ = run(capsys, "check", str(target), "--cmax", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["cmax"], data["states"]) == (3, 211)
        code, out, _ = run(capsys, "untime", str(target))
        assert code == 0
        assert json.loads(out)["cmax"] == 2
        target.write_text(format_ecta(get_example("ainf"), cmax=0))
        code, out, err = run(capsys, "check", str(target))
        assert code == 2
        assert out == ""
        assert "below the largest guard constant" in err

    def test_unnameable_letter_in_file(self, capsys, tmp_path):
        for letters in (["a.b"], [1], "ab"):
            data = json.loads(format_ecta(get_example("ainf")))
            data["alphabet"] = letters
            target = tmp_path / "bad.json"
            target.write_text(json.dumps(data))
            code, out, err = run(capsys, "check", str(target))
            assert code == 2
            assert out == ""
            assert "error:" in err

    def test_deeply_nested_guard_in_file(self, capsys, tmp_path):
        for guard in (
            "!" * 600 + "h.b = 1",
            " && ".join(["h.b = 1"] * 2000),
            "!" * 990 + "h.b = 1",
            "(" * 3000 + "h.b = 1" + ")" * 3000,
        ):
            data = json.loads(format_ecta(get_example("ainf")))
            data["edges"][0]["guard"] = guard
            target = tmp_path / "deep.json"
            target.write_text(json.dumps(data))
            for argv in (("check", "--method", "forward"), ("show",)):
                code, out, err = run(capsys, *argv, str(target))
                assert code == 2
                assert out == ""
                assert "error:" in err and "nested deeper" in err

    def test_long_guards_in_file(self, capsys, tmp_path):
        # 3^90 and 2^90 disjuncts in normal form, few zones met
        negated = " && ".join(f"!(h.a = {k % 3})" for k in range(90))
        repeated = " && ".join(["(h.a < 1 || h.a < 1)"] * 90)
        for guard, verdict in ((negated, "non_empty"), (repeated, "empty")):
            data = json.loads(format_ecta(get_example("ainf")))
            data["edges"][2]["guard"] = guard  # the a-edge into q1
            target = tmp_path / "long.json"
            target.write_text(json.dumps(data))
            code, out, err = run(capsys, "check", "--method", "forward", str(target))
            assert (code, out.strip(), err) == (0, verdict, "")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.json")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["check", "show"])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, command):
        target = tmp_path / "bad.json"
        target.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, command, str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad automaton file:")

    @pytest.mark.parametrize("kind", ["deep", "long_integer"])
    def test_json_that_the_decoder_refuses(self, capsys, tmp_path, kind):
        # too deep for the decoder's recursion, or an integer past the
        # interpreter's digit limit
        target = tmp_path / f"{kind}.json"
        target.write_text("[" * 200_000 if kind == "deep" else '{"cmax": ' + "9" * 5000 + "}")
        code, out, err = run(capsys, "check", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad automaton file:")


class TestUntime:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "untime", "ainf", "--cmax", "2")
        assert code == 0
        data = json.loads(out)
        assert data["state_count"] == 123
        assert data["edge_count"] == 122

    def test_dot_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "ra.dot"
        code, out, _ = run(
            capsys, "untime", "ainf", "--dot", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("digraph")

    def test_refined_regions_name_their_differences(self, capsys):
        code, out, _ = run(capsys, "untime", "ainf", "--refined", "--cmax", "2")
        assert code == 0
        regions = {state["region"] for state in json.loads(out)["states"]}
        for difference in (" in (2,3)", ">4", "=3"):
            region = f"h.a=bot, h.b=bot, p.a=0, p.b>2; sv(p.a)-sv(p.b){difference}"
            assert region in regions
        assert "h.a=bot, h.b=bot, p.a>2, p.b=0; sv(p.a)-sv(p.b)<-4" in regions

    def test_closed_stdout_is_not_malformed_input(self, capsys, monkeypatch, tmp_path):
        # what ``ecta untime ... | head -n 1`` meets once head has exited
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr("sys.stdout", ClosedPipe(target.fileno()))
            code = main(["untime", "ainf", "--refined", "--cmax", "3"])
        assert code == 1
        assert capsys.readouterr().err == ""


class TestMember:
    def test_accept(self, capsys):
        code, out, _ = run(
            capsys, "member", "ainf", '[["b", 0], ["b", 1], ["a", 2]]'
        )
        assert code == 0
        assert out.strip() == "accepted"

    def test_reject_with_json(self, capsys):
        code, out, _ = run(capsys, "member", "ainf", '[["a", 0]]', "--json")
        assert code == 0
        data = json.loads(out)
        assert data["accepted"] is False

    def test_rational_timestamps(self, capsys):
        code, out, _ = run(
            capsys,
            "member", "ainf", '[["b", "1/2"], ["b", "3/2"], ["a", "5/2"]]',
        )
        assert code == 0
        assert out.strip() == "accepted"

    def test_malformed_words(self, capsys):
        for word in (
            "not json",
            '{"a": 1}',
            '[["b"]]',
            '[["b", 0.5]]',
            '[["b", true]]',
            '[["b", 2], ["a", 1]]',
            '["b0", "b1", "a2"]',
            '[{"b": 0, "x": 1}]',
        ):
            code, _, err = run(capsys, "member", "ainf", word)
            assert code == 2, word
            assert "error:" in err

    def test_words_that_time_parsing_rejects(self, capsys):
        for word in ('[["b", null]]', "123"):
            code, out, err = run(capsys, "member", "ainf", word)
            assert code == 2, word
            assert out == ""
            assert "error:" in err

    @pytest.mark.parametrize("kind", ["deep", "long_integer"])
    def test_json_that_the_decoder_refuses(self, capsys, kind):
        word = "[" * 200_000 if kind == "deep" else '[["a", ' + "9" * 5000 + "]]"
        code, out, err = run(capsys, "member", "ainf", word)
        assert (code, out) == (2, "")
        assert err.startswith("error: word is not valid JSON:")

    def test_exponent_timestamp_is_rejected(self, capsys):
        code, out, err = run(capsys, "member", "ainf", '[["b", "1e999999999"]]')
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("time", ["٠", "1_0"])
    def test_timestamp_in_other_digits_is_rejected(self, capsys, time):
        code, out, err = run(capsys, "member", "ainf", f'[["b", "{time}"], ["b", 1], ["a", 2]]')
        assert (code, out) == (2, "")
        assert "error: not a rational" in err


class TestBoundedLang:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "bounded-lang", "ainf", "-k", "4")
        assert code == 0
        assert out.splitlines() == ["ba", "bba", "bbba"]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "bounded-lang", "backdiv", "-k", "3", "--json"
        )
        data = json.loads(out)
        assert data == {"length": 3, "words": ["aab"]}

    def test_negative_length(self, capsys):
        code, out, err = run(capsys, "bounded-lang", "ainf", "-k", "-2")
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestShow:
    def test_round_trips_through_check(self, capsys, tmp_path):
        target = tmp_path / "ainf.json"
        code, out, _ = run(capsys, "show", "ainf", "-o", str(target))
        assert code == 0
        code, out, _ = run(capsys, "check", str(target))
        assert code == 0
        assert out.strip() == "non_empty"

    def test_location_that_is_not_a_string(self, capsys, tmp_path):
        data = json.loads(format_ecta(get_example("ainf")))
        data["locations"].append(1)
        data["accepting"].append(1)
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, "show", str(target))
        assert code == 2
        assert out == ""
        assert "error:" in err and "not a string" in err

    def test_prints_the_standard_form(self, capsys):
        code, out, _ = run(capsys, "show", "backdiv")
        assert code == 0
        assert out == format_ecta(get_example("backdiv"))


class TestDemo:
    def test_ainf(self, capsys):
        code, out, _ = run(capsys, "demo", "ainf")
        assert code == 0
        assert out.count("[pass]") == 2
        assert "first missed word: bbba" in out
        assert "first missed word: bbbbba" in out

    def test_backdiv_passes_both_backward_searches(self, capsys):
        code, out, _ = run(capsys, "demo", "backdiv")
        assert code == 0
        assert "[pass]   backward search within 50 steps: expected non_empty" in out
        assert "[pass]   backward search on ainf with literal acceptance" in out
        # the raw pre-image iteration shows the divergence itself
        assert "after 6 loop pre-image(s)" in out
        assert out.count(": holds]") == 6
        assert "[pass]   loop pre-images entail their growing bounds" in out

    def test_forwdiv_passes_both_forward_searches(self, capsys):
        code, out, _ = run(capsys, "demo", "forwdiv")
        assert code == 0
        assert "[pass]   forward search within 50 steps: expected non_empty" in out
        assert "[pass]   forward search on ainf with literal acceptance" in out

    def test_nofinite_prints_criterion_10(self, capsys):
        code, out, _ = run(capsys, "demo", "nofinite")
        assert code == 0
        assert out.count("[pass]") == 9 and "[FAIL]" not in out
        assert "[pass]   distinct untimed futures: expected 10, observed 10" in out
        assert "[pass]   refined regions at cmax 3 merge v_10 with: expected k >= 8" in out
