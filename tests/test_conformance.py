"""Seeded random-model conformance: the CLI's own GBZ cross-check on GT
models beyond the presets.

The models are the first 60 rows of ``default_rng(7).uniform(0.2, 6,
(200, 4))`` as (t1, t2, t3, t4), on 10 cells, with the default 160-site
obc_fit GBZ cross-checked against the charpoly GBZ at the default
``cross_tol``.  Over all 200 rows, rows 57, 72, 98, 122 and 145 fail, each
with t1 close to t2.
"""

import numpy as np
import pytest

from nhskin import CrossValidationError, Family, gbz_compute, make_model

MODELS = np.random.default_rng(7).uniform(0.2, 6, (200, 4))[:60]
T1_NEAR_T2 = pytest.mark.xfail(
    strict=True, raises=CrossValidationError,
    reason="t1 ~ t2: obc_fit keeps real eigenvalues whose middle roots sit near |beta| = 1 "
           "while the charpoly radii lie below it; the mismatch (q90 0.00182) does not "
           "shrink from 80 to 640 sites (item 24)")


@pytest.mark.parametrize("hops", [
    pytest.param(h, id=f"model-{i}", marks=T1_NEAR_T2 if i == 57 else ())
    for i, h in enumerate(MODELS)])
def test_obc_fit_gbz_passes_its_cross_check(hops):
    gbz_compute(make_model(Family.GT, *hops, n_cells=10), "obc_fit", cross_check=True)
