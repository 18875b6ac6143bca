import contextlib
import io

import pytest

from reflen.cli import main

S1 = "field F5\n3 3\n2 0 0\n1 1 0\n1 0 1\n"
SCALAR2 = "field F5\n3 3\n2 0 0\n0 2 0\n0 0 2\n"
GLIDE_Q = "field Q\n3 3\n1 0 1\n0 -1 0\n0 0 1\n"
TRANSLATION_F3 = "field F3\n3 3\n1 0 1\n0 1 0\n0 0 1\n"
TUPLE_CASE_III = (
    "field F5\n"
    "3 3\n2 0 0\n0 1 0\n0 0 1\n"
    "3 3\n1 0 0\n0 2 0\n0 0 1\n"
    "3 3\n1 0 0\n0 1 0\n0 0 2\n"
)


def run(argv, files=None, tmp_path=None):
    argv = list(argv)
    if files:
        for i, (name, content) in enumerate(files.items()):
            path = tmp_path / name
            path.write_text(content)
            argv = [str(path) if a == name else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def to_dict(output):
    d = {}
    for line in output.strip().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            d[k] = v
    return d


def test_analyze_reflection(tmp_path):
    code, out = run(
        ["--porcelain", "analyze", "m.txt"], {"m.txt": S1}, tmp_path
    )
    assert code == 0
    d = to_dict(out)
    assert d["field"] == "F5"
    assert d["mode"] == "GL"
    assert d["length"] == "1"
    assert d["is_reflection"] == "True"
    assert d["reflection_kind"] == "semisimple"
    assert d["beta"] == "2"


def test_analyze_human_format(tmp_path):
    code, out = run(["analyze", "m.txt"], {"m.txt": S1}, tmp_path)
    assert code == 0
    assert "length: 1" in out


def test_analyze_affine(tmp_path):
    code, out = run(
        ["--porcelain", "analyze", "--affine", "m.txt"],
        {"m.txt": GLIDE_Q},
        tmp_path,
    )
    assert code == 0
    d = to_dict(out)
    assert d["mode"] == "GA"
    assert d["class"] == "parabolic"
    assert d["length"] == "2"
    assert d["fix_aff"] == "empty"


def test_factor_scalar(tmp_path):
    code, out = run(
        ["--porcelain", "factor", "m.txt"], {"m.txt": SCALAR2}, tmp_path
    )
    assert code == 0
    d = to_dict(out)
    assert d["count"] == "3"
    assert "factor_0" in d and "factor_2" in d
    assert "product check: ok" in out


def test_factor_affine_translation(tmp_path):
    code, out = run(
        ["--porcelain", "factor", "--affine", "m.txt"],
        {"m.txt": TRANSLATION_F3},
        tmp_path,
    )
    assert code == 0
    d = to_dict(out)
    assert d["count"] == "2"
    assert "product check: ok" in out


def test_check_reduced(tmp_path):
    code, out = run(
        ["--porcelain", "check-reduced", "t.txt"],
        {"t.txt": TUPLE_CASE_III},
        tmp_path,
    )
    assert code == 0
    d = to_dict(out)
    assert d["k"] == "3"
    assert d["reduced"] == "True"
    assert d["length_by_criterion"] == "3"


def test_classify(tmp_path):
    code, out = run(
        ["--porcelain", "classify", "m.txt"], {"m.txt": TRANSLATION_F3}, tmp_path
    )
    assert code == 0
    d = to_dict(out)
    assert d["class"] == "hyperbolic"
    assert d["offset"] == "2"


def test_census_command():
    code, out = run(["--porcelain", "census", "GA", "2", "2"])
    assert code == 0
    d = to_dict(out)
    assert d["elements"] == "24"
    assert d["reflections"] == "6"
    assert d["translations"] == "3"
    assert d["nontranslation_hyperbolic"] == "6"


def test_verify_command_with_tuples_and_seed():
    code, out = run(
        ["--porcelain", "verify", "GL", "2", "2", "--tuples", "2", "--seed", "7"]
    )
    assert code == 0
    d = to_dict(out)
    assert d["disagreements"] == "0"
    assert d["tuple_failures"] == "0"
    assert d["sampled_failures"] == "0"


def test_porcelain_byte_stable():
    outs = {run(["--porcelain", "census", "GL", "2", "3"])[1] for _ in range(3)}
    assert len(outs) == 1


def test_exit_code_parse_error(tmp_path):
    code, _ = run(["analyze", "m.txt"], {"m.txt": "field F4\n1 1\n0\n"}, tmp_path)
    assert code == 2
    code, _ = run(["analyze", str(tmp_path / "missing.txt")])
    assert code == 2


def test_exit_code_domain_error(tmp_path):
    # singular input has no reflection length
    code, _ = run(
        ["analyze", "m.txt"], {"m.txt": "field F3\n2 2\n0 0\n0 0\n"}, tmp_path
    )
    assert code == 3
    # GA_1(F_2) has no reflections to verify against
    code, _ = run(["verify", "GA", "1", "2"])
    assert code == 3
    # cap exceeded
    code, _ = run(["census", "GL", "3", "5", "--cap", "100"])
    assert code == 3


def test_exit_code_dimension_below_one():
    for argv in (["verify", "GL", "0", "2"], ["census", "GA", "0", "3"],
                 ["verify", "GL", "-1", "2"]):
        code, out = run(argv)
        assert code == 3, argv
        assert out == ""


def test_verify_tuples_over_cap_refused():
    # 570 + 570^2 + 570^3 tuple checks are refused before any product
    code, out = run(["verify", "GA", "2", "5", "--tuples", "3"])
    assert code == 3
    assert out == ""


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["--porcelain"])
