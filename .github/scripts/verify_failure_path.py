"""The failure path of `curvop verify`: at a negative tolerance, which fails
comparisons across the suites, the run must exit 1 and still print one report
per suite, in the order of curvop.verify.SUITES, as one JSON array.  Every
suite whose row has a tolerance must list a failure, so that each one's
comparisons read --tol, and every listed failure must report -1 as its
tolerance: a comparison that --tol governs compares at it, not at a scaled
or folded tolerance.

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
    reports = json.loads(done.stdout)
    suites = [report["suite"] for report in reports]
    failures = {report["suite"]: report["failures"] for report in reports}
    tolerances = [(report["suite"], failure["inputs-digest"], failure["tolerance"])
                  for report in reports for failure in report["failures"]]
except (ValueError, TypeError, KeyError) as exc:
    sys.exit(f"stdout is not a JSON array of reports: {exc!r}")
if suites != list(SUITES):
    sys.exit(f"the reports name the suites {suites}, not {list(SUITES)}")
with_tol = [name for name, (_, _, tol) in SUITES.items() if tol is not None]
unread = [name for name in with_tol if not failures[name]]
if unread:
    sys.exit(f"{unread} list no failure at --tol -1: none of their comparisons reads --tol")
for suite, digest, tolerance in tolerances:
    if tolerance != -1:
        sys.exit(f"{suite} failure {digest} reports tolerance {tolerance} at --tol -1")
print(f"exit code 1 and {len(suites)} reports, one per suite in order; "
      f"each of the {len(with_tol)} suites with a tolerance lists a failure, "
      f"and all {len(tolerances)} failures report tolerance -1")
