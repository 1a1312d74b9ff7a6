"""The benchmark's span pins still match where the program calls.

``bench/worker.py`` lists, for each workload, the functions its ops must
reach and the module whose binding each call goes through
(``name@site``); ``bench/spans.py`` wraps those bindings.  A 2-op traced
pass of each gated workload, run here on the benchmark's own files
unchanged, fails as soon as a call moves to another binding site, which
otherwise shows only in ``bench/run.py --trace 1``.
"""

import pathlib

import pytest

import dpaudit
import dpaudit.cli  # noqa: F401 - the workloads read dpaudit.cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["rr-validity", "dpsgd-audit"])
def test_traced_pass_fires_every_pinned_span(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker

    workload = worker.WORKLOADS[name](dpaudit, 0)
    _, _, results, _, restored, missing = worker.traced_pass(workload, 2)
    assert [err for _, _, err in results] == [None, None]
    assert missing == []
    assert restored
