import json

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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.json")
        assert code == 2
        assert "error:" in err


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

    def test_exponent_timestamp_is_rejected(self, capsys):
        code, out, err = run(capsys, "member", "ainf", '[["b", "1e999999999"]]')
        assert code == 2
        assert out == ""
        assert "error:" in err


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

    def test_backdiv_reports_the_disagreement(self, capsys):
        code, out, _ = run(capsys, "demo", "backdiv")
        assert code == 0
        assert "[FAIL]" in out
        assert "expected unknown, observed non_empty" in out
        # the raw pre-image iteration shows the divergence itself
        assert "after 6 loop pre-image(s)" in out
        assert out.count(": holds]") == 6
        assert "[pass]   loop pre-images entail their growing bounds" in out

    def test_forwdiv_reports_the_disagreement(self, capsys):
        code, out, _ = run(capsys, "demo", "forwdiv")
        assert code == 0
        assert "[FAIL]" in out
