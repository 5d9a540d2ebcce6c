import json
import os
import subprocess
import sys
from pathlib import Path

from fszd.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_indicators_json(capsys):
    code, out, _ = run(capsys, "indicators", "--group", "S3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "S3"
    assert len(data["simples"]) == 8
    for simple in data["simples"]:
        for entry in simple["indicators"]:
            assert set(entry) == {"m", "value", "rational", "pretty", "approx"}
            assert entry["rational"] is True
            int(entry["pretty"])  # S3 indicators are all integers


def test_indicators_csv_and_m_filter(capsys):
    code, out, _ = run(capsys, "indicators", "--group", "S3", "--format", "csv", "--m", "2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("group,g_class,eta_index")
    assert len(lines) == 1 + 8 * 2


def test_indicators_table(capsys):
    code, out, _ = run(capsys, "indicators", "--group", "S3")
    assert code == 0
    assert "group S3  order 6  exponent 6" in out
    assert "m=6" in out


def test_indicators_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "indicators", "--group", "C4", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["group"] == "C4"


def test_indicators_bad_m(capsys):
    code, _, err = run(capsys, "indicators", "--group", "S3", "--m", "4")
    assert code == 2
    assert "error" in err


def test_empty_m_list_is_an_error(capsys):
    for verb in ("indicators", "bench"):
        for text in (",", ""):
            code, out, err = run(capsys, verb, "--group", "S3", "--m", text)
            assert code == 2 and out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1


def test_gamma_output(capsys):
    code, out, _ = run(capsys, "gamma", "--group", "S3", "--z-class", "0", "--m", "2")
    assert code == 0
    values = [line.split()[-1] for line in out.strip().splitlines()[2:]]
    assert values == ["4", "2", "3"]
    code, out2, _ = run(
        capsys, "gamma", "--group", "S3", "--z-class", "0", "--m", "2", "--backend", "cmc"
    )
    assert code == 0
    assert [line.split()[-1] for line in out2.strip().splitlines()[2:]] == ["4", "2", "3"]


def test_gamma_bad_class(capsys):
    code, _, err = run(capsys, "gamma", "--group", "S3", "--z-class", "9", "--m", "2")
    assert code == 2 and "z-class" in err


def test_fsz_exit_codes(capsys):
    code, out, _ = run(capsys, "fsz", "--group", "S4")
    assert code == 0 and "FSZ: true" in out
    code, out, _ = run(capsys, "fsz", "--group", "S3")
    assert code == 0 and "beta values checked: 0" in out
    code, out, _ = run(capsys, "fsz", "--group", "C25", "--d", "5")
    assert code == 0 and "FSZ_5: true" in out


def test_fsz_false_prints_the_witness_and_exits_1(capsys, sqrt5_beta_at_chi_3):
    code, out, _ = run(capsys, "fsz", "--group", "C25")
    assert (code, out) == (1, "FSZ: false  (witness: z-class 1, m=5, chi=3)\n")
    code, out, _ = run(capsys, "fsz", "--group", "C25", "--d", "5")
    assert code == 0 and out.startswith("FSZ_5: true")


def test_fsz_bad_d_exit_2_before_classes(capsys):
    code, out, err = run(capsys, "fsz", "--group", "S12", "--d", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "d must be a positive integer" in err


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "fsz", "--group", "Z99")
    assert code == 2 and "error" in err
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "fsz")[0] == 2  # missing --group


def test_resource_limit_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("FSZD_MAX_ORDER", "50")
    code, out, err = run(capsys, "indicators", "--group", "S5")
    assert code == 2 and "limit" in err and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_bad_env_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("FSZD_MAX_ORDER", "abc")
    code, _, err = run(capsys, "indicators", "--group", "S3")
    assert code == 2 and "FSZD_MAX_ORDER" in err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    code, _, err = run(capsys, "indicators", "--group", "S3", "--format", "json", "--out", str(target))
    assert code == 2 and str(target) in err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_selftest_checking_nothing_exits_2(capsys):
    code, _, err = run(capsys, "selftest", "--max-order", "0")
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--max-order", "100")
    assert code == 0
    assert "0 mismatches" in out.strip().splitlines()[-1]
    assert "skipped" in out  # S5 sits above this bound


def test_bench_smoke(capsys):
    code, out, _ = run(capsys, "bench", "--group", "S3")
    assert code == 0
    assert "speedup ratio" in out


def test_bench_rejects_bad_m_before_timing(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("nu_naive called")

    monkeypatch.setattr("fszd.oracle.nu_naive", fail)
    code, out, err = run(capsys, "bench", "--group", "S4", "--m", "5")
    assert code == 2
    assert "m=5 does not divide" in err and not out


def test_bench_obeys_the_oracle_order_limit(capsys, monkeypatch):
    # S8 (order 40320) is above the oracle's default limit of 5040: bench
    # must stop before any session, table or naive sweep
    def fail(*args, **kwargs):
        raise AssertionError("bench worked past the oracle limit")

    monkeypatch.delenv("FSZD_MAX_ORDER", raising=False)
    monkeypatch.setattr("fszd.indicators.Session", fail)
    monkeypatch.setattr("fszd.oracle.nu_naive", fail)
    code, out, err = run(capsys, "bench", "--group", "S8")
    assert code == 2 and not out
    assert err == "error: oracle limited to order 5040, group has 40320\n"


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "indicators", "--group", "S4", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "gamma", "--group", "Q8", "--z-class", "1", "--m", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert run(capsys, "fsz", "--group", "D6")[1] == run(capsys, "fsz", "--group", "D6")[1]


def test_max_degree_flag(capsys):
    code, _, err = run(capsys, "indicators", "--group", "S10", "--max-degree", "9")
    assert code == 2 and "degree" in err


def test_python_dash_m_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "fszd", "fsz", "--group", "S3"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
