"""cos and sin in ``sources.field_terms`` against numpy on hypothesis-drawn phases."""

import numpy as np
import pytest

from test_sources import assert_kernel_matches_numpy

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=50))
def test_wide_range_matches_numpy(values):
    assert_kernel_matches_numpy(np.array(values))
