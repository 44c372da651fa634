from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

from jacring.cli import main

from test_cli import D5, write

TOOL = Path(__file__).parent / "digest_outputs.py"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_digest_tool_hashes_the_cli_bytes(tmp_path):
    """The tool's line for each of two certify-hodge jobs (the D5 system
    certified over Q and over F_1000003) carries the job's exit code and
    the digests of the bytes the CLI prints for it."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "1", "--only",
         "certify-d5-Q", "certify-d5-F1000003"],
        capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["job"] for line in lines] == ["certify-d5-Q",
                                              "certify-d5-F1000003"]
    path = write(tmp_path, D5)
    for line, field in zip(lines, ("Q", "F 1000003")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["certify", path, "--field", field, "--json"])
        assert line == {"workload": "certify-hodge", "seed": 1,
                        "job": line["job"], "rc": rc,
                        "stdout": _sha(out.getvalue()),
                        "stderr": _sha(err.getvalue())}
        assert rc == 0 and out.getvalue()


def test_every_benchmark_job_keeps_its_bytes():
    """Every job of both benchmark workloads at seeds 1 and 41 prints the
    bytes recorded in the golden digest. Regenerate the file only in a
    change meant to alter the CLI's bytes or the job list:
    python3 tests/digest_outputs.py --seeds 1 41 > tests/golden/digest-seeds-1-41.jsonl"""
    proc = subprocess.run([sys.executable, str(TOOL), "--seeds", "1", "41"],
                          capture_output=True, text=True, check=True)
    expected = (Path(__file__).parent / "golden"
                / "digest-seeds-1-41.jsonl").read_text(encoding="utf-8")
    assert proc.stdout.splitlines() == expected.splitlines()
