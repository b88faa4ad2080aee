"""The benchmark's tracer still installs over the library: every name it
requires exists and is a plain function it can wrap."""

import importlib.util
from pathlib import Path

from curvop import verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_traces_a_suite():
    tracer = load_tracer().Tracer()
    original = verify.run_suite
    try:
        # install raises SystemExit naming any required name that is gone or
        # no longer a plain function
        tracer.install()
        reports = [verify.run_suite(name, trials=2, seed=42, tol=1e-9) for name in ("prop-1.7", "spectrum")]
    finally:
        tracer.uninstall()
    for report in reports:
        assert report.passed, report.failures[:3]
    assert tracer.calls["verify.suite.prop-1.7"] == 1
    assert tracer.calls["verify.suite.spectrum"] == 1
    # per spectrum trial: two spectrum calls, each a jacobi_eigh over a batch
    # of one, and one batch of two through the wrapper in verify's namespace;
    # prop-1.7 takes its eigenbasis from LAPACK
    assert tracer.calls["operators.spectrum"] == 4
    assert tracer.calls["operators.jacobi_eigh"] == 4
    assert tracer.calls["operators.jacobi_eigh_batch"] == 6
    assert verify.run_suite is original
