"""Golden-bytes gate for the drift scans.

The sha256 digests below are of ``scan_drift_condition(...).to_dict()`` as
JSON, taken before the drift layer was put on the coefficient table.  They
cover both single-unit kinds at gamma 100 and 2 on a fixed box, auto-sized
boxes (one of them capped along an axis where the exceptional set is
unbounded), a larger epsilon, a mean-field scan with violations on the
censored kr = 0 edge, an unpumped and an alpha = 0 chain, and an
inconclusive case.  Any change to a drift value, to the exceptional set or
to the report layout changes a digest.
"""

import hashlib
import json

import pytest

from spikesim import ModelParams, ProcessKind, scan_drift_condition

ONE, MF = ProcessKind.ONEUNIT, ProcessKind.MEANFIELD
P100 = ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
P2 = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)

# case id -> (kind, params, epsilon, scan box or None for auto-sized)
SCANS = {
    "oneunit_gamma100": (ONE, P100, 0.1, (300, 300)),
    "oneunit_gamma2": (ONE, P2, 0.1, (300, 300)),
    "meanfield_gamma100": (MF, P100, 0.1, (300, 300)),
    "meanfield_gamma2": (MF, P2, 0.1, (300, 300)),
    "oneunit_gamma100_eps0.5": (ONE, P100, 0.5, (300, 300)),
    "oneunit_gamma2_auto": (ONE, P2, 0.1, None),
    "meanfield_gamma2_auto": (MF, P2, 0.1, None),
    "oneunit_gamma_eq_beta_auto": (ONE, ModelParams(0.01, 2.0, 2.0, 7.0), 0.1, None),
    "meanfield_beta0.7": (MF, ModelParams(0.01, 0.7, 100.0, 7.0), 0.1, (300, 300)),
    "oneunit_unpumped": (ONE, ModelParams(0.5, 1.0, 2.0, 0.0), 0.1, (50, 50)),
    "meanfield_alpha0": (MF, ModelParams(0.0, 1.0, 2.0, 7.0), 0.1, (200, 200)),
    "oneunit_inconclusive": (ONE, ModelParams(0.01, 1.0, 0.5, 7.0), 0.1, None),
}

DIGESTS = {
    "oneunit_gamma100": "6f8670fa77ef4b926433cc9216ea4b6512fb38ef46040489328f7d8de77972e9",
    "oneunit_gamma2": "4bd4ff17c655752598066021d74b1d88f81714d5719f3eec743f8e716b7da11d",
    "meanfield_gamma100": "b9e56f35e70d51501a5d7d948a47f7e21fc73c5cfafc4776a94e03fbb89d66e6",
    "meanfield_gamma2": "1da29119ba08161cb9d3cee7d8d403fff9475f4bcac737414011f03ea6cd60b3",
    "oneunit_gamma100_eps0.5": "2122ff1f7c53468b054f22a1fca081dbf7b9e7776c2b80efd0106ed44f275867",
    "oneunit_gamma2_auto": "4f9c140c70018338319c1866656894e93e04161bba11c2db4ac6b68f5dcdbb74",
    "meanfield_gamma2_auto": "9b51df6d6ca19f287f50d22b2b6193391cceede0f82731d6bcf88f3a6d482c7f",
    "oneunit_gamma_eq_beta_auto": "733576cdf4f76cb37a8f4f05fa6bf7c67b5b30998b8db576ef4c5396163ff886",
    "meanfield_beta0.7": "8443689262796089701736aca7db75acd60a771954f9ad048fa89afd094556ff",
    "oneunit_unpumped": "dd79717554988fb8c01ae4abb66fe10258ef1a42fee7873035d57407f906f695",
    "meanfield_alpha0": "40f62c1bb2fbbe4fd28f609bb3d24ec1a4b345e5a72c0eac7b59dd520ed813c8",
    "oneunit_inconclusive": "13fd41002810a9516568cb846ec21f3b9b96ca96ca9951e91906ed49c345c784",
}


def scan_digest(kind, params, epsilon, box) -> str:
    report = scan_drift_condition(kind, params, epsilon=epsilon, scan_box=box)
    text = json.dumps({**report.to_dict(), "set_A": report.set_A.tolist()}, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(SCANS))
def test_scan_report_bytes_are_frozen(case):
    assert scan_digest(*SCANS[case]) == DIGESTS[case]
