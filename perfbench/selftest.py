"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

Not collected by the repository's tier-1 run (the file name does not
match ``test_*.py``): the smoke runs spawn servers and take about a
minute.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer, check_nesting  # noqa: E402

from repro.serve.service import SkylineService  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    # paper-mixed is run by hand only (see README.md, "Run-to-run spread").
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in run.WORKLOADS if w != "paper-mixed"
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "0.05")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = dict(PER_LAYER if trace else END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


class WrongService(SkylineService):
    """Answers every query with its first skyline member missing."""

    def query(self, preference=None, **kwargs):
        answer = super().query(preference, **kwargs)
        return dataclasses.replace(answer, ids=answer.ids[1:])


def test_a_wrong_answer_fails_the_run():
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", "paper-mixed", "--seed", "1", "--seconds", "1",
             "--scale", "0.01"],
            service_cls=WrongService,
        )
    assert code == 1
    assert json.loads(out.getvalue().strip().splitlines()[-1])["correct"] is False


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "paper-mixed", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_spans_nest_and_share_request_ids(tmp_path):
    from common import make_data

    dataset, template = make_data(300)
    service = SkylineService(dataset, template, ipo_k=2,
                             storage_dir=str(tmp_path / "store"))
    tracer = Tracer()
    originals = (SkylineService.__dict__["query"], service.backend.prepare)
    tracer.install(backends=(service.backend, service.bitset))
    try:
        for pref in (None, template):
            service.query(pref, use_cache=False)
        service.insert_rows([dataset.row(0)])
        service.delete_rows([1])
        service.close()
        SkylineService.recover(str(tmp_path / "store")).close()
    finally:
        tracer.uninstall()
    assert (SkylineService.__dict__["query"], service.backend.prepare) == originals
    spans = tracer.spans
    names = {s[3] for s in spans}
    assert {"serve.query", "core.cache_key", "serve.insert", "updates.insert",
            "storage.log", "serve.recover", "storage.recover"} <= names
    assert any(s[1] for s in spans), "no span has a parent"
    assert check_nesting(spans) is None
    # The checker itself catches a child outside its parent.
    child = next(s for s in spans if s[1])
    broken = [list(s) for s in spans]
    for s in broken:
        if s[0] == child[0]:
            s[5] = max(p[5] for p in spans) + 1
    assert check_nesting(broken) is not None
