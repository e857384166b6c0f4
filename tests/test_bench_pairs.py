"""scripts/bench_pairs.py on stub checkouts whose run.py prints fixed output."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SPEC = {
    "run_seconds": 1,
    "end_to_end": [{"name": "op_p50_s", "better": "lower", "bound": 0.25}],
    "per_layer": [],
}


def stub_checkout(root: Path, digest: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"op_p50_s": {"value": 0.5}}}
    (root / "perfbench" / "run.py").write_text(
        f"print('inputs: workload=family seed=1 ops=1 sha256={digest}')\n"
        f"print({json.dumps(json.dumps(result))})\n"
    )
    return root


def bench(tmp_path: Path, parent_digest: str, change_digest: str):
    parent = stub_checkout(tmp_path / "parent", parent_digest)
    change = stub_checkout(tmp_path / "change", change_digest)
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), "--workload", "family",
         "--pairs", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    return proc, json.loads(out.read_text())


def test_pairs_record_their_inputs(tmp_path):
    proc, data = bench(tmp_path, "abc", "abc")
    assert proc.returncode == 0, proc.stderr
    pairs = data["workloads"]["family"]["pairs"]
    assert [p[side]["inputs_sha256"] for p in pairs for side in ("parent", "change")] == ["abc"] * 4


def test_pairs_fed_different_inputs_fail_after_writing(tmp_path):
    proc, data = bench(tmp_path, "abc", "def")
    assert proc.returncode == 1
    assert "different inputs" in proc.stderr
    assert len(data["workloads"]["family"]["pairs"]) == 2
