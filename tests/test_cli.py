"""Command-line interface: payloads, exit codes, byte determinism."""

import json
import subprocess
import sys

from tsring.cli import main
from tsring.errors import UnrecognizedShape
from tsring.groupmodel import make_params
from tsring.mackey import MackeyOracle
from tsring.tring import basis_from_json, basis_from_label, basis_label, tring


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_basis_command(capsys):
    code, out = run_cli(["basis", "--p", "3", "--n", "2", "--e", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "tsring/1"
    assert doc["status"] == "ok"
    assert doc["payload"]["count"] == "12"
    assert len(doc["payload"]["elements"]) == 12


def test_basis_command_small(capsys):
    code, out = run_cli(["basis", "--p", "3", "--n", "1", "--e", "1"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["count"] == "3"


def test_basis_rejects_nonprime(capsys):
    code, _ = run_cli(["basis", "--p", "4", "--n", "1", "--e", "1"], capsys)
    assert code == 2


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(["verify", "--p", "3", "--n", "1", "--e", "1", "--which", "bogus"], capsys)
    assert code == 2


def test_table_json_row_count_and_values(capsys):
    code, out = run_cli(
        ["table", "--p", "3", "--n", "1", "--e", "1", "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    assert len(rows) == 9
    first = rows[0]
    assert basis_from_json(first["a"]) == basis_from_json(first["b"])
    assert first["product"][0]["coeff"] == "3"


def test_table_csv_agrees_with_json(capsys):
    _, json_out = run_cli(
        ["table", "--p", "3", "--n", "2", "--e", "2", "--format", "json"], capsys
    )
    _, csv_out = run_cli(
        ["table", "--p", "3", "--n", "2", "--e", "2", "--format", "csv"], capsys
    )
    json_rows = {}
    for row in json.loads(json_out)["payload"]["rows"]:
        key = (basis_from_json(row["a"]), basis_from_json(row["b"]))
        json_rows[key] = {
            basis_from_json(t["basis"]): int(t["coeff"]) for t in row["product"]
        }
    import csv as csv_mod
    import io

    csv_rows = {}
    reader = csv_mod.reader(io.StringIO(csv_out))
    header = next(reader)
    assert header == ["a", "b", "product"]
    for a_txt, b_txt, prod_txt in reader:
        prod = {}
        for term in prod_txt.split("+"):
            coeff, label = term.split("*", 1)
            prod[basis_from_label(label)] = int(coeff)
        csv_rows[(basis_from_label(a_txt), basis_from_label(b_txt))] = prod
    assert json_rows == csv_rows


def test_verify_oracle(capsys):
    code, out = run_cli(
        ["verify", "--p", "3", "--n", "2", "--e", "2", "--which", "oracle"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["checks"][0]["details"]["compared"] == "144"


def test_verify_oracle_failure_is_inconclusive(monkeypatch, capsys):
    # an oracle that cannot classify a summand has not decided the pair:
    # the report names the pair and the check exits 3, not the usage code
    def refuse(self, z):
        raise UnrecognizedShape("injected: no shape")

    monkeypatch.setattr(MackeyOracle, "classify_induced", refuse)
    code, out = run_cli(
        ["verify", "--p", "3", "--n", "2", "--e", "2", "--which", "oracle,assoc"], capsys
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "inconclusive"
    oracle_check, assoc_check = doc["payload"]["checks"]
    assert oracle_check["status"] == "inconclusive"
    first = basis_label(tring(make_params(3, 2, 2)).basis[0])
    assert oracle_check["details"] == {
        "pair": [first, first],
        "error": "injected: no shape",
        "compared": "0",
    }
    assert assoc_check["status"] == "ok"


def test_verify_theorem_d(capsys):
    code, out = run_cli(
        [
            "verify",
            "--p",
            "3",
            "--n",
            "1",
            "--e",
            "1",
            "--which",
            "theorem-d",
            "--field",
            "Q",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["checks"][0]["details"]["fields"][0]["dims"] == ["1", "2"]


def test_verify_semisimple_322(capsys):
    code, out = run_cli(
        [
            "verify",
            "--p",
            "3",
            "--n",
            "2",
            "--e",
            "2",
            "--which",
            "semisimple",
            "--field",
            "F2,F3,F5,F7",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    decisions = [f["decision"] for f in doc["payload"]["checks"][0]["details"]["fields"]]
    assert decisions == ["No", "No", "Yes", "Yes"]


def test_verify_semisimple_reports_violation_at_known_defect(capsys):
    # n = 1 at characteristic p: the certified decision contradicts the
    # stated invertibility criterion, and the tool must say so loudly
    code, out = run_cli(
        [
            "verify",
            "--p",
            "3",
            "--n",
            "1",
            "--e",
            "1",
            "--which",
            "semisimple",
            "--field",
            "F3",
        ],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violation"
    entry = doc["payload"]["checks"][0]["details"]["fields"][0]
    assert entry["decision"] == "No"
    assert entry["aut_order_invertible"] == "Yes"


def test_verify_multiple_checks(capsys):
    code, out = run_cli(
        [
            "verify",
            "--p",
            "3",
            "--n",
            "1",
            "--e",
            "1",
            "--which",
            "oracle,assoc,theorem-a,theorem-b,theorem-c",
            "--field",
            "Q,F2",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["status"] for c in doc["payload"]["checks"]] == ["ok"] * 5


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        ["basis", "--p", "3", "--n", "1", "--e", "1", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["payload"]["count"] == "3"


def test_byte_determinism_subprocess():
    cmd = [
        sys.executable,
        "-m",
        "tsring",
        "verify",
        "--p",
        "3",
        "--n",
        "2",
        "--e",
        "2",
        "--which",
        "oracle,theorem-a,theorem-c",
    ]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
