"""SAN compile at paper scale: the Table 1 tandems at J=1, 2 and 3.

``compile_join`` evaluates each activity once per distinct valuation of
its footprint.  The J=2 and J=3 tandems it compiles are pinned to the
canonical sha256 of ``tests/test_san_compile.py`` as the per-firing
compiler it replaced produced them (the two-pass oracle in
``tests/san_oracle.py`` gives the J=2 digest too, in about 25 s, so it is
not run here), and to that compiler's firing counts.  The timings are of
``compile_join`` alone at J=1 and J=2.
"""

import pytest

from repro.models import TandemParams, build_tandem
from repro.san import compile_join
from tests.test_san_compile import canonical_sha256

#: jobs -> (canonical sha256, firings) of the compiled Table 1 tandem.
PINS = {
    2: (
        "669456cdae1110882307db9a6bd1eb40f6b891c9a76d279bd702e011110a712c",
        1_422_720,
    ),
    3: (
        "4f9a8347379601e61e33226cbf4fee5a76255b410a68accce13de29410739ec0",
        6_787_584,
    ),
}


@pytest.mark.parametrize("jobs", sorted(PINS))
def test_paper_scale_compile_matches_pins(jobs):
    compiled = build_tandem(TandemParams(jobs=jobs))
    digest, firings = PINS[jobs]
    assert compiled.stats["firings"] == firings
    assert canonical_sha256(compiled) == digest


@pytest.mark.parametrize("jobs", [1, 2])
def test_compile_join(benchmark, jobs):
    join = build_tandem(TandemParams(jobs=jobs)).join
    compiled = benchmark(compile_join, join)
    assert compiled.stats["evaluations"] < compiled.stats["firings"]
