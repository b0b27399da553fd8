"""Property tests: drives accept exactly the finite, non-negative rates and
finite detunings."""

import math

import pytest
from hypothesis import given, strategies as st

from stabsim.builders import RabiDrive, SidebandDrive

DRIVES = {
    "sideband": lambda rate, detuning: SidebandDrive("blue", rate, detuning),
    "rabi": lambda rate, detuning: RabiDrive(rate, detuning),
}

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# NaN, +-inf and every negative float; -0.0 compares >= 0 and is a valid rate
BAD_RATES = st.floats().filter(lambda r: not r >= 0) | st.just(math.inf)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@pytest.mark.parametrize("kind", sorted(DRIVES))
@given(rate=BAD_RATES, detuning=FINITE)
def test_bad_rate_rejected(kind, rate, detuning):
    with pytest.raises(ValueError, match="rate"):
        DRIVES[kind](rate, detuning)


@pytest.mark.parametrize("kind", sorted(DRIVES))
@given(rate=st.floats(min_value=0.0, allow_infinity=False), detuning=NON_FINITE)
def test_non_finite_detuning_rejected(kind, rate, detuning):
    with pytest.raises(ValueError, match="detuning"):
        DRIVES[kind](rate, detuning)


@pytest.mark.parametrize("kind", sorted(DRIVES))
@given(rate=st.floats(min_value=0.0, allow_infinity=False), detuning=FINITE)
def test_finite_drive_constructs(kind, rate, detuning):
    drive = DRIVES[kind](rate, detuning)
    assert (drive.rate, drive.detuning) == (rate, detuning)
