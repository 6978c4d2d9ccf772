"""Hosts must agree: one pipeline, three front ends.

``repro run``, ``repro batch`` (:func:`repro.batch.run_item`) and the
link server (a one-shot :func:`repro.serve.handlers.execute_request`)
all run :func:`repro.serve.handlers.run_pipeline`.  Every corpus
program, on every backend the case allows, must therefore produce the
identical written value and displayed output through all three — and
match the corpus golden.
"""

import pytest

from repro.batch import run_item
from repro.cli import main
from repro.obs import MetricsRegistry
from repro.serve.handlers import execute_request
from repro.serve.protocol import validate_request
from repro.serve.server import ServeConfig
from repro.units.cache import CacheStore

from tests.test_backend_differential import _matches_str
from tests.test_corpus import CASES

BACKENDS = ("interp", "machine", "pycode")

PAIRS = [(case, backend) for case in CASES for backend in BACKENDS
         if not (backend == "machine" and case.skip_machine)]


def _cli_stdout(value: str, output: str) -> str:
    """What ``repro run`` prints for a (value, output) observation."""
    if output and not output.endswith("\n"):
        output += "\n"
    return f"{output}=> {value}\n"


@pytest.mark.parametrize(
    "case,backend", PAIRS,
    ids=[f"{case.name}-{backend}" for case, backend in PAIRS])
def test_cli_batch_and_server_agree(case, backend, tmp_path, capsys):
    path = tmp_path / case.name
    path.write_text(case.source)
    lenient = ["--lenient"] if case.lenient else []

    capsys.readouterr()
    assert main(["run", "--backend", backend, *lenient, str(path)]) == 0
    cli = capsys.readouterr().out

    record = run_item(path, None, lenient=case.lenient, backend=backend)
    assert record["status"] == "ok", record

    req = validate_request({"op": "run", "source": case.source,
                            "backend": backend, "lenient": case.lenient,
                            "deadline_s": 60})
    response = execute_request(req, CacheStore(), MetricsRegistry(),
                               ServeConfig())
    assert response["status"] == "ok", response

    assert (response["value"], response["output"]) \
        == (record["value"], record["output"])
    assert cli == _cli_stdout(record["value"], record["output"])
    assert _matches_str(record["value"], case)
