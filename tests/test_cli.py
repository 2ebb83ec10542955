import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from a1weyl import (
    ReflectableBase,
    Word,
    enumerate_alternating,
    format_word,
    semilattice_to_dict,
    toroidal_semilattice,
)
from a1weyl.cli import _HANDLERS, main

WORKED_LOOP_TEXT = "g2 g0 g2 g1 g0 g1 g0 g2 g1 g2 g1 g0".split()


@pytest.fixture
def baby2_config(tmp_path):
    path = tmp_path / "baby2.json"
    path.write_text(json.dumps({"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1]]}))
    return str(path)


@pytest.fixture
def toroidal2_config(tmp_path):
    path = tmp_path / "tor2.json"
    path.write_text(
        json.dumps({"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1], [1, 1]]})
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_validate_ok(capsys, baby2_config):
    code, out = run(capsys, "validate", "--config", baby2_config)
    assert code == 0
    assert "ok" in out


def test_validate_duplicate_coset(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "cosets": [[0, 0], [1, 0], [1, 0]]}))
    code = main(["validate", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "duplicate" in err


def test_missing_config_file(capsys, tmp_path):
    code = main(["validate", "--config", str(tmp_path / "nope.json")])
    assert code == 3


def test_validate_malformed_json_is_io_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2, "cosets": [[0, 0],')
    assert main(["validate", "--config", str(bad)]) == 3
    assert main(["eval", "--config", str(bad), "g0"]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b'{"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1]], "note": "\xff"}',  # not UTF-8
    b'{"rank": ' + b"9" * 5000 + b', "cosets": [[0]]}',  # past the int digit limit
    b"[" * 200_000 + b"]" * 200_000,  # nested past the recursion limit
], ids=["not-utf8", "long-int", "deep-nesting"])
def test_a_config_that_cannot_be_decoded_is_an_io_error(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["validate", "--config", str(bad)]) == 3
    assert "cannot read configuration" in capsys.readouterr().err


def test_eval_relation_flag(capsys, baby2_config):
    code, data = run_json(
        capsys, "eval", "--config", baby2_config, "--group", "W",
        "g0", "g1", "g2", "g0", "g1", "g2",
    )
    assert code == 0
    assert data["relation"] is True
    assert data["element"] == {"eps": 1, "t": [0, 0]}


def test_eval_extension_is_central_not_trivial(capsys, baby2_config):
    code, data = run_json(
        capsys, "eval", "--config", baby2_config, "--group", "Wt",
        "g0", "g1", "g2", "g0", "g1", "g2",
    )
    assert code == 0
    assert data["relation"] is False
    assert data["central"] is True


def test_eval_single_generator(capsys, baby2_config):
    code, data = run_json(capsys, "eval", "--config", baby2_config, "g0")
    assert code == 0
    assert data["element"] == {"eps": -1, "t": [0, 0]}


def test_eval_parse_error(capsys, baby2_config):
    assert main(["eval", "--config", baby2_config, "gX"]) == 4


@pytest.mark.parametrize("token", ["g1_0", "g\u0662", "+e:1_0,0", "+e:\u0661,0"])
def test_eval_non_ascii_digits_or_underscores_are_parse_errors(capsys, baby2_config, token):
    assert main(["eval", "--config", baby2_config, "g1", token]) == 4


def test_eval_root_outside_system(capsys, baby2_config):
    assert main(["eval", "--config", baby2_config, "+e:1,1"]) == 5


def test_check(capsys, baby2_config):
    code, data = run_json(capsys, "check", "--config", baby2_config, "g1", "g1")
    assert code == 0 and data["relation"] is True
    code, data = run_json(
        capsys, "check", "--config", baby2_config, "--group", "Wt",
        "g0", "g1", "g2", "g0", "g1", "g2",
    )
    assert code == 0 and data["relation"] is False


def test_alt_enum(capsys, baby2_config):
    code, data = run_json(capsys, "alt-enum", "--config", baby2_config, "--k", "2")
    assert code == 0
    assert data["count"] == 3
    assert data["tuples"] == ["g0 g0", "g1 g1", "g2 g2"]


def test_alt_enum_rows_are_the_formatted_words(capsys, toroidal2_config):
    base = ReflectableBase(toroidal_semilattice(2))
    tuples = list(enumerate_alternating(base.roots, 4))
    code, data = run_json(capsys, "alt-enum", "--config", toroidal2_config, "--k", "4")
    assert code == 0 and data["count"] == len(tuples) > 0
    assert data["tuples"] == [format_word(Word(2, t), base) for t in tuples]
    code, out = run(capsys, "alt-enum", "--config", toroidal2_config, "--k", "4")
    assert out.splitlines() == [f"count: {len(tuples)}", *data["tuples"]]


def test_alt_enum_odd_k(capsys, baby2_config):
    assert main(["alt-enum", "--config", baby2_config, "--k", "3"]) == 5


@pytest.mark.parametrize("option", ["--max-k", "--max-letters"])
def test_alt_enum_caps_are_not_options(capsys, baby2_config, option):
    with pytest.raises(SystemExit) as exc:  # with --k 14, --max-k 14 listed 272 835 tuples
        main(["alt-enum", "--config", baby2_config, "--k", "2", option, "14"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["alt-enum", "--k", "10"],
                                  ["presentation", "--kind", "alternating", "--kmax", "10"]])
def test_alternating_requests_past_max_tuples_exit_5(capsys, tmp_path, argv):
    config = tmp_path / "tor3.json"
    config.write_text(json.dumps(semilattice_to_dict(toroidal_semilattice(3))))
    code = main([*argv, "--config", str(config)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (5, "")
    assert "16003008 alternating 10-tuples exceed the cap 1000000" in captured.err


def test_presentation_verify(capsys, baby2_config):
    code, data = run_json(
        capsys, "presentation", "--config", baby2_config, "--kind", "baby", "--verify"
    )
    assert code == 0
    assert data["verified"] is True
    assert len(data["relators"]) == 4


def test_presentation_hyp_counts(capsys, toroidal2_config):
    code, data = run_json(
        capsys, "presentation", "--config", toroidal2_config, "--kind", "hyp", "--verify"
    )
    assert code == 0
    assert len(data["generators"]) == 4
    assert len(data["relators"]) == 8
    assert data["verified"] is True


def test_presentation_round_trip(capsys, baby2_config):
    from a1weyl import presentation_baby_w
    from a1weyl.presentation import presentation_from_dict

    code, data = run_json(capsys, "presentation", "--config", baby2_config, "--kind", "baby")
    assert code == 0
    data.pop("verified", None)
    data.pop("failures", None)
    assert presentation_from_dict(data) == presentation_baby_w(2)


def test_reduce_with_replay(capsys, baby2_config):
    code, data = run_json(capsys, "reduce", "--config", baby2_config, *WORKED_LOOP_TEXT)
    assert code == 0
    assert data["final_empty"] is True
    assert len(data["macros"]) == 3


def test_reduce_rejects_non_relation(capsys, baby2_config):
    assert main(["reduce", "--config", baby2_config, "g0", "g1"]) == 5


def test_path(capsys, baby2_config):
    code, data = run_json(capsys, "path", "--config", baby2_config, "g1", "g1")
    assert code == 0
    assert data["loop"] is True
    assert data["entries"] == [
        {"anchor": [0, 0], "orient": 1},
        {"anchor": [1, 0], "orient": -1},
        {"anchor": [0, 0], "orient": 1},
    ]


def test_render_svg(capsys, tmp_path, baby2_config):
    out = tmp_path / "loop.svg"
    code, data = run_json(
        capsys, "render-svg", "--config", baby2_config, "--out", str(out), *WORKED_LOOP_TEXT
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<polygon") == 12


def test_center_basis(capsys, toroidal2_config):
    code, data = run_json(capsys, "center-basis", "--config", toroidal2_config)
    assert code == 0
    assert data["count"] == 1
    (gen,) = data["generators"]
    assert gen["word"] == "g3 g1 g0 g2"
    assert gen["element"]["q"] == [[0, -1], [1, 0]]


def test_center_basis_of_the_wrong_dual_action_is_internal_check_failure(capsys, monkeypatch, toroidal2_config):
    from a1weyl import hyperbolic

    honest = hyperbolic._expected_dual_p
    monkeypatch.setattr(hyperbolic, "_expected_dual_p", lambda rank, pair, doubled: honest(rank, pair, not doubled))
    code = main(["center-basis", "--config", toroidal2_config])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err == "internal check failed: center word for pair (1, 2) has wrong dual action\n"


def test_oracle_compare(capsys, baby2_config):
    code, data = run_json(
        capsys, "oracle-compare", "--config", baby2_config, "--n", "100", "--len", "8"
    )
    assert code == 0
    assert data["mismatches"] == 0


def test_oracle_compare_deterministic(capsys, baby2_config):
    _, first = run(capsys, "oracle-compare", "--config", baby2_config, "--n", "20", "--seed", "5")
    _, second = run(capsys, "oracle-compare", "--config", baby2_config, "--n", "20", "--seed", "5")
    assert first == second


@pytest.mark.parametrize("flag", ["--n", "--len"])
def test_oracle_compare_negative_count_is_domain_error(capsys, baby2_config, flag):
    code, out = run(capsys, "oracle-compare", "--config", baby2_config, flag, "-3")
    assert code == 5
    assert out == ""


def test_element_json_round_trips(capsys, baby2_config):
    from a1weyl.hyperbolic import element_from_dict
    from a1weyl.weyl import element_from_dict as w_from_dict

    code, data = run_json(capsys, "eval", "--config", baby2_config, "g1", "g0")
    assert w_from_dict(data["element"]).shift == (-1, 0)
    code, data = run_json(
        capsys, "eval", "--config", baby2_config, "--group", "Wt", "g1", "g0"
    )
    assert element_from_dict(data["element"]).projection().shift == (-1, 0)


def test_presentation_negative_kmax_is_domain_error(capsys, baby2_config):
    code, out = run(capsys, "presentation", "--config", baby2_config, "--kind", "alternating",
                    "--kmax", "-2")
    assert code == 5
    assert out == ""


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_alt_enum_negative_k_is_domain_error(capsys, tmp_path, rank):
    config = tmp_path / "baby.json"
    cosets = [[0] * rank] + [[int(i == k) for i in range(rank)] for k in range(rank)]
    config.write_text(json.dumps({"rank": rank, "cosets": cosets}))
    code, out = run(capsys, "alt-enum", "--config", str(config), "--k", "-2")
    assert code == 5
    assert out == ""


def test_reduce_failed_replay_is_internal_check_failure(capsys, monkeypatch, baby2_config):
    import dataclasses

    from a1weyl import presentation

    honest = presentation.rewrite_to_identity

    def tampered(indices, nu):
        cert = honest(indices, nu)
        return dataclasses.replace(cert, steps=cert.steps[:-1])

    monkeypatch.setattr(presentation, "rewrite_to_identity", tampered)
    code = main(["reduce", "--config", baby2_config, *WORKED_LOOP_TEXT])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert "internal check failed" in captured.err
    assert main(["reduce", "--no-replay", "--config", baby2_config, *WORKED_LOOP_TEXT]) == 0


def test_word_token_starting_with_minus_goes_after_double_dash(capsys, baby2_config):
    code, out = run(capsys, "eval", "--config", baby2_config, "--", "g1", "-e:1,0")
    assert code == 0
    assert out.startswith("element: ")
    with pytest.raises(SystemExit) as exc:  # taken for an option: a usage error
        main(["eval", "--config", baby2_config, "g1", "-e:1,0"])
    assert exc.value.code == 2


def test_eval_wt_overflow_is_domain_error(capsys, tmp_path):
    config = tmp_path / "rank1.json"
    config.write_text(json.dumps({"rank": 1, "cosets": [[0], [1]]}))
    big = 2**62
    code, out = run(capsys, "eval", "--config", str(config), "--group", "Wt",
                    "--", f"+e:{big}", f"-e:{big}", f"-e:{big}")
    assert code == 5
    assert out == ""


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_eval_wt_central_agrees_with_is_central(capsys, tmp_path, nu):
    from a1weyl import ReflectableBase, Word, baby_semilattice, is_central
    from a1weyl.lattice import semilattice_to_dict
    from a1weyl.words import format_word, random_relation_indices, random_word

    s = baby_semilattice(nu)
    base = ReflectableBase(s)
    config = tmp_path / "baby.json"
    config.write_text(json.dumps(semilattice_to_dict(s)))
    rng = random.Random(nu)
    relations = [
        Word.from_indices(base, random_relation_indices(rng, nu, rng.randint(1, 8)))
        for _ in range(6)
    ]
    others = [random_word(rng, s, rng.randint(1, 12)) for _ in range(12)]
    seen = set()
    for word in relations + others:
        code, out = run(capsys, "eval", "--config", str(config), "--group", "Wt",
                        "--format", "json", "--", *format_word(word, base).split())
        assert code == 0
        data = json.loads(out)
        assert data["central"] is is_central(word)
        seen.add(data["central"])
    assert seen == {True, False}


@pytest.mark.parametrize("config", [
    {"rank": 1.9, "cosets": [[0], [1]]},
    {"rank": 1, "cosets": [[0], [1.7]]},
    {"rank": 1.0, "cosets": [[0], [1]]},
    {"rank": "1", "cosets": [[0], [1]]},
    {"rank": 1, "cosets": [[0], ["1"]]},
    {"rank": True, "cosets": [[0], [1]]},
    {"rank": 1, "cosets": [[0], [True]]},
    {"rank": 1, "cosets": [[False], [1]]},
], ids=["float-rank", "float-coset", "integral-float-rank", "string-rank", "string-coset",
        "bool-rank", "bool-coset", "bool-zero-coset"])
def test_validate_rejects_non_integer_values(capsys, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["validate", "--config", str(path)]) == 2
    assert "is not an integer" in capsys.readouterr().err
    assert main(["eval", "--config", str(path), "g0"]) == 2


def test_path_with_an_anchor_past_the_band_names_the_anchor(capsys, baby2_config):
    code = main(["path", "--config", baby2_config, "--anchor", "1180591620717411303424,0", "g1", "g1"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert "integer 1180591620717411303424 exceeds the signed 64-bit guard" in captured.err


def test_path_whose_walk_leaves_the_band_and_comes_back_names_the_first_anchor_outside(capsys, baby2_config):
    code = main(["path", "--config", baby2_config, "--anchor", "9223372036854775807,0", "g1", "g1"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert "integer 9223372036854775808 exceeds the signed 64-bit guard" in captured.err


@pytest.mark.parametrize("command", ["path", "render-svg"])
def test_path_and_render_svg_walk_the_word_once(capsys, monkeypatch, tmp_path, baby2_config, command):
    from a1weyl import geometry

    walks, walk = [], geometry._walk
    monkeypatch.setattr(geometry, "_walk", lambda word, base: walks.append(word) or walk(word, base))
    extra = ["--out", str(tmp_path / "loop.svg")] if command == "render-svg" else []
    code, data = run_json(capsys, command, "--config", baby2_config, *extra, *WORKED_LOOP_TEXT)
    assert code == 0 and len(walks) == 1 and len(walks[0]) == len(WORKED_LOOP_TEXT)
    entries = data["entries"]
    assert (entries if command == "render-svg" else len(entries)) == len(WORKED_LOOP_TEXT) + 1


@pytest.mark.parametrize("command", ["path", "render-svg"])
@pytest.mark.parametrize("anchor", ["1_0,٢", "1_0,2", "١,0", "1,２", " 1, 2", "1,2\n"])
def test_anchor_takes_the_digits_of_a_word_token_only(capsys, tmp_path, baby2_config, command, anchor):
    out = tmp_path / "loop.svg"
    extra = ["--out", str(out)] if command == "render-svg" else []
    code = main([command, "--config", baby2_config, *extra, "--anchor", anchor, "g1", "g1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"anchor {anchor!r} has a non-ASCII character or an '_'" in captured.err
    assert not out.exists()


def test_anchor_with_signs_parses_as_before(capsys, baby2_config):
    code, data = run_json(capsys, "path", "--config", baby2_config, "--anchor", "+1,-2", "g1", "g1")
    assert code == 0
    assert data["entries"][0] == {"anchor": [1, -2], "orient": 1}


@pytest.mark.parametrize("option, value", [
    ("--k", "٢"), ("--k", "0_2"), ("--k", "２"), ("--kmax", "٤"), ("--kmax", "0_4"),
    ("--orient", "١"), ("--orient", "0_1"), ("--n", "1_0"), ("--len", "٨"), ("--seed", "٥"),
    ("--k", " 2"), ("--kmax", "4 "), ("--seed", "\t5"),
])
def test_integer_options_take_the_digits_of_a_word_token_only(capsys, tmp_path, baby2_config,
                                                              option, value):
    out = tmp_path / "loop.svg"
    argv = {
        "--k": ["alt-enum", "--config", baby2_config],
        "--kmax": ["presentation", "--config", baby2_config, "--kind", "alternating"],
        "--orient": ["render-svg", "--config", baby2_config, "--out", str(out)],
        "--n": ["oracle-compare", "--config", baby2_config],
        "--len": ["oracle-compare", "--config", baby2_config],
        "--seed": ["oracle-compare", "--config", baby2_config],
    }[option]
    with pytest.raises(SystemExit) as exc:  # int() read each of these as a number
        main([*argv, option, value, *(["g1", "g1"] if option == "--orient" else [])])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {option}: invalid ascii_int value: {value!r}" in captured.err
    assert not out.exists()


def test_integer_options_with_signs_parse_as_before(capsys, baby2_config):
    code, data = run_json(capsys, "alt-enum", "--config", baby2_config, "--k", "+2")
    assert (code, data["k"], data["count"]) == (0, 2, 3)
    code, data = run_json(capsys, "path", "--config", baby2_config, "--orient", "-1", "g1", "g1")
    assert code == 0 and data["entries"][0] == {"anchor": [0, 0], "orient": -1}
    code, data = run_json(capsys, "oracle-compare", "--config", baby2_config,
                          "--n", "+5", "--len", "+4", "--seed", "-1")
    assert (code, data) == (0, {"n": 5, "mismatches": 0})


def test_an_anchor_coordinate_that_is_no_integer_is_a_parse_error(capsys, baby2_config):
    code = main(["path", "--config", baby2_config, "--anchor", "1,x", "g1", "g1"])
    assert code == 4
    assert "anchor '1,x' is not an integer" in capsys.readouterr().err


# --- one error map for every command -----------------------------------------------

COMMAND_ARGS = {
    "validate": [],
    "eval": ["g1", "g1"],
    "check": ["g1", "g1"],
    "alt-enum": ["--k", "2"],
    "presentation": [],
    "reduce": ["g1", "g1"],
    "path": ["g1", "g1"],
    "render-svg": ["--out", "loop.svg", "g1", "g1"],
    "center-basis": [],
    "oracle-compare": ["--n", "3"],
}


def test_the_error_map_tests_cover_every_command():
    assert set(COMMAND_ARGS) == set(_HANDLERS)


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_command_reports_an_invalid_config_as_a_configuration_error(
        capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "cosets": [[0, 0], [1, 0], [1, 0]]}))
    code = main([command, "--config", str(bad), *COMMAND_ARGS[command]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("configuration error: duplicate coset representative")
    assert not (tmp_path / "loop.svg").exists()


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_command_reports_a_missing_config_as_an_io_error(
        capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code = main([command, "--config", str(tmp_path / "nope.json"), *COMMAND_ARGS[command]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("i/o error: cannot read configuration")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_render_svg_into_a_missing_directory_is_an_io_error(capsys, tmp_path, baby2_config, fmt):
    out = tmp_path / "no" / "such" / "loop.svg"
    code = main(["render-svg", "--config", baby2_config, "--format", fmt, "--out", str(out),
                 *WORKED_LOOP_TEXT])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"i/o error: cannot write {str(out)!r}: ")
    assert not out.parent.exists()


def test_oracle_compare_prints_its_mismatches_then_fails(capsys, monkeypatch, baby2_config):
    from a1weyl import weyl

    monkeypatch.setattr(weyl, "matrix_of_word_w", lambda word: None)
    argv = ["oracle-compare", "--config", baby2_config, "--n", "4"]
    assert main(argv) == 6
    captured = capsys.readouterr()
    assert captured.out == "4 mismatches in 4 words\n"
    assert captured.err == ""
    code, data = run_json(capsys, *argv)
    assert code == 6
    assert data == {"n": 4, "mismatches": 4}


def test_python_dash_m_runs_the_cli(baby2_config, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "cosets": [[0, 0], [1, 0], [1, 0]]}))

    def run_module(config):
        return subprocess.run([sys.executable, "-m", "a1weyl", "validate", "--config", config],
                              capture_output=True, text=True, env=env, timeout=60)

    good = run_module(baby2_config)
    assert (good.returncode, good.stdout) == (0, "ok: rank 2, 3 coset representatives\n")
    dup = run_module(str(bad))
    assert dup.returncode == 2
    assert dup.stderr.startswith("configuration error: duplicate coset representative")


def test_presentation_spre_on_a_pairwise_config(capsys, tmp_path):
    from a1weyl import pairwise_semilattice, presentation_w_spre, support_pairs
    from a1weyl.presentation import presentation_to_dict

    config = tmp_path / "pairwise3.json"
    cosets = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]]
    config.write_text(json.dumps({"rank": 3, "cosets": cosets}))
    base = ReflectableBase(pairwise_semilattice(3))
    assert base.semilattice.cosets == tuple(map(tuple, cosets))
    code, out = run(capsys, "presentation", "--config", str(config), "--kind", "spre")
    assert code == 0
    assert out == "generators: 7\nrelators: 10\n"
    code, data = run_json(capsys, "presentation", "--config", str(config), "--kind", "spre")
    assert code == 0
    assert data == presentation_to_dict(presentation_w_spre(3, support_pairs(base).keys()))
    code, out = run(capsys, "presentation", "--config", str(config), "--kind", "spre", "--verify")
    assert code == 0
    assert out.splitlines()[-1] == "verified: true (failures: [])"


def test_reduce_names_the_failing_step_as_reduce_loop_does(capsys, monkeypatch, baby2_config):
    import dataclasses

    from a1weyl import InternalCheckError, base_simplex, geometry, path_of_word, presentation
    from a1weyl.lattice import baby_base

    indices = tuple(int(token[1:]) for token in WORKED_LOOP_TEXT)
    cert = presentation.rewrite_to_identity(indices, 2)
    steps = tuple(cert.steps)
    k = next(k for k, step in enumerate(steps) if k and step.rule == "cancel-involution")
    bad = dataclasses.replace(steps[k], pos=steps[k].pos + 1)
    forged = dataclasses.replace(cert, steps=steps[:k] + (bad,) + steps[k + 1 :])
    monkeypatch.setattr(presentation, "rewrite_to_identity", lambda indices, nu: forged)
    monkeypatch.setattr(geometry, "rewrite_to_identity", lambda indices, nu: forged)
    with pytest.raises(InternalCheckError) as info:
        geometry.reduce_loop(path_of_word(Word.from_indices(baby_base(2), indices), base_simplex(2)))
    assert str(info.value).startswith(f"certificate step {bad} does not apply: ")
    code = main(["reduce", "--config", baby2_config, *WORKED_LOOP_TEXT])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err == f"internal check failed: {info.value}\n"
    assert main(["reduce", "--no-replay", "--config", baby2_config, *WORKED_LOOP_TEXT]) == 0
