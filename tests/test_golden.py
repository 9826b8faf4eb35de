"""Byte-identity of every artifact against the committed table.

Each of the nine configs in ``tests/golden/`` is run end to end and the
sha256 of its five artifacts compared with ``tests/golden/table.json``.  A
change that moves one ulp anywhere in training moves a hash here.  The bits
depend on the BLAS kernel, so the table binds only on the numpy and BLAS it
records: elsewhere a mismatch skips, naming both environments, and
``tests/regenerate_golden.py`` rebuilds the table for the new one.
"""

import json

import pytest

from regenerate_golden import ARTIFACTS, RUNS, TABLE, environment, moved, run_hashes

GOLDEN = json.loads(TABLE.read_text())


def test_table_covers_every_run_and_artifact():
    assert sorted(GOLDEN["runs"]) == sorted(RUNS)
    for run in RUNS:
        assert tuple(GOLDEN["runs"][run]) == ARTIFACTS


@pytest.mark.parametrize("run", RUNS)
def test_artifacts_match_golden_hashes(run, tmp_path):
    changed = moved(run_hashes(run, tmp_path), GOLDEN["runs"][run])
    if not changed:
        return
    here = environment()
    recorded = {key: GOLDEN[key] for key in here}
    detail = (f"{run}: the sha256 of {', '.join(changed)} does not match "
              f"tests/golden/table.json; "
              f"table taken on numpy {recorded['numpy']} with BLAS "
              f"{recorded['blas']!r}, this run on numpy {here['numpy']} with "
              f"BLAS {here['blas']!r}")
    if here != recorded:
        pytest.skip(f"{detail}; the table binds only on its own environment")
    pytest.fail(detail)
