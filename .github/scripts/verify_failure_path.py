"""The failure path of `curvop verify`: at a negative tolerance, which fails
comparisons across the suites, the run must exit 1 and still print one report
per suite, in the order of curvop.verify.SUITES, as one JSON array.

Run from the repository root: PYTHONPATH=src python .github/scripts/verify_failure_path.py
"""

import json
import subprocess
import sys

from curvop.verify import SUITES

argv = [sys.executable, "-m", "curvop", "verify", "--suite", "all", "--seed", "42", "--trials", "3", "--tol", "-1"]
done = subprocess.run(argv, capture_output=True, text=True)
if done.returncode != 1:
    sys.exit(f"expected exit code 1, got {done.returncode}\n{done.stderr}")
try:
    suites = [report["suite"] for report in json.loads(done.stdout)]
except (ValueError, TypeError, KeyError) as exc:
    sys.exit(f"stdout is not a JSON array of reports: {exc!r}")
if suites != list(SUITES):
    sys.exit(f"the reports name the suites {suites}, not {list(SUITES)}")
print(f"exit code 1 and {len(suites)} reports, one per suite in order")
