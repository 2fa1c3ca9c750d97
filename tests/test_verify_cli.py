import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaq1.cli import main
from deltaq1.verify import run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_suite_reports_pass_and_are_deterministic():
    first = run_suite("eq1", n_max=3)
    second = run_suite("eq1", n_max=3)
    assert first["status"] == "pass"
    assert first["cases"] == 6
    first.pop("duration_seconds")
    second.pop("duration_seconds")
    assert json.dumps(first) == json.dumps(second)


def test_suite_without_cases_does_not_pass():
    report = run_suite("eq1", n_max=0)
    assert report["cases"] == 0
    assert report["status"] == "empty"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_expand_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "e"
    assert payload["terms"] == [
        {"partition": [2], "coeff": ["1", "1"]},
        {"partition": [1, 1], "coeff": ["1"]},
    ]


def test_expand_all_bases_match_oracle(capsys):
    for basis in ("e", "f", "m", "s"):
        code, out, _ = run_cli(
            capsys, "expand", "3", "2", "--basis", basis, "--oracle"
        )
        assert code == 0
        assert json.loads(out)["oracle_match"] is True


def test_expand_csv(capsys):
    code, out, _ = run_cli(capsys, "expand", "2", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,t^0,t^1"
    assert '"[2]",0,1' in lines
    assert '"[1, 1]",1,0' in lines


def test_expand_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "1", "2"])  # k > n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["expand", "2"])  # missing k
    assert exc.value.code == 2


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.splitlines()) == 1 and "error:" in err
    return err


def test_usage_guards_cover_every_command(capsys):
    assert "n <= 10" in usage_error(capsys, "hilbert", "11")
    assert "n <= 10" in usage_error(capsys, "verify", "eq1", "--n-max", "11")
    assert "n <= 10" in usage_error(capsys, "schur", "11", "2")
    assert "k <= n" in usage_error(capsys, "hilbert", "3", "--k", "4")
    assert "nonnegative" in usage_error(
        capsys, "verify", "involution", "--degree-max", "-3"
    )


def test_verify_cli_output_is_stable(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "eq2", "--n-max", "4")
    code2, out2, _ = run_cli(capsys, "verify", "eq2", "--n-max", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "duration_seconds" not in out1
    report = json.loads(out1)
    assert report["status"] == "pass"


def test_verify_cli_timing_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "hilbert", "--n-max", "2", "--timing"
    )
    assert code == 0
    assert "duration_seconds" in json.loads(out)


def test_verify_involution_audit(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "involution",
        "--n-max", "2",
        "--k-max", "1",
        "--degree-max", "2",
        "--audit", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    audit = report["audit"]
    assert audit["degree"] == 1
    for entry in audit["pairings"]:
        assert set(entry) == {"diagram", "partner"}


def test_phi_round_trip_cli(capsys):
    decorated = {"area_seq": [0, 1, 2, 3, 2, 3, 4, 2, 1, 2], "decorated_rows": [4, 6, 10]}
    code, out, _ = run_cli(capsys, "phi", json.dumps(decorated))
    assert code == 0
    seq = json.loads(out)
    assert seq == {
        "pairs": [[0, 4], [2, 3], [4, 0], [2, 1], [2, 0], [1, 2], [1, 0], [0, 0]]
    }
    code, out, _ = run_cli(capsys, "phi-inverse", json.dumps(seq))
    assert code == 0
    assert json.loads(out) == {
        "area_seq": [0, 1, 2, 3, 2, 3, 4, 2, 1, 2],
        "decorated_rows": [4, 6, 10],
    }


def test_phi_rejects_bad_objects(capsys):
    code, _, err = run_cli(
        capsys, "phi", '{"area_seq": [0, 2], "decorated_rows": []}'
    )
    assert code == 1
    assert "invalid" in err
    code, _, err = run_cli(capsys, "phi-inverse", '{"pairs": [[1, 1]]}')
    assert code == 1
    assert "a_1" in err


def test_hilbert_cli(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][2] == {"k": 3, "polynomial": ["6", "6", "3", "1"]}
    code, out, _ = run_cli(capsys, "hilbert", "3", "--k", "1")
    assert json.loads(out)["rows"] == [{"k": 1, "polynomial": ["7", "4", "1"]}]


def test_schur_cli(capsys):
    code, out, _ = run_cli(capsys, "schur", "2", "1")
    assert code == 0
    payload = json.loads(out)
    # coefficient of s_lam is the tableau polynomial of the conjugate shape:
    # e_11 + (1+t) e_2 = s_2 + (2+t) s_11
    assert payload["terms"] == [
        {"partition": [2], "coeff": ["1"]},
        {"partition": [1, 1], "coeff": ["2", "1"]},
    ]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(
        st.sampled_from(["area_seq", "decorated_rows", "pairs", "x"]), children,
        max_size=3,
    ),
    max_leaves=12,
)
small = st.integers(-1, 6)
shaped_objects = st.fixed_dictionaries(
    {"area_seq": st.lists(small, max_size=8),
     "decorated_rows": st.lists(small, max_size=4)}
) | st.fixed_dictionaries(
    {"pairs": st.lists(st.lists(small, min_size=2, max_size=2), max_size=8)}
)


@given(st.sampled_from(["phi", "phi-inverse"]), json_values | shaped_objects)
@settings(max_examples=300, deadline=None)
def test_phi_commands_accept_any_json(command, value):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        # "--" keeps a value such as -1e+16 from reading as an option
        code = main([command, "--", json.dumps(value)])
    assert code in (0, 1)
    if code == 1:
        assert len(stderr.getvalue().splitlines()) == 1
        assert "Traceback" not in stderr.getvalue()
