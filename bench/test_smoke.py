"""Smoke test of the benchmark itself: ``python -m pytest bench/test_smoke.py``.

Lives outside ``testpaths`` on purpose — it times real work, so it is not part
of the deterministic tier-1 run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_reports_every_metric_and_no_failures(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    assert set(results) == {w["name"] for w in spec["workloads"]}
    for name, result in results.items():
        assert result["failed_share"] == 0, (name, result["errors"])
        assert result["attempted"] > 0
        for metric in spec["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["value"] > 0, (name, metric["name"])
        missing = {m["name"] for m in spec["per_layer"]} - set(result["per_layer"])
        assert not missing, (name, sorted(missing))
