"""Shared hypothesis strategies for geometry and batches."""

import hypothesis.strategies as st
import numpy as np

from embedtrack import BoundingBox

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
span = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    x1 = draw(coord)
    y1 = draw(coord)
    return BoundingBox(x1, y1, x1 + draw(span), y1 + draw(span))


@st.composite
def grid_boxes(draw):
    """Boxes on a small integer grid: often identical, touching or nested."""
    x1 = draw(st.integers(0, 6))
    y1 = draw(st.integers(0, 6))
    return BoundingBox(x1, y1, x1 + draw(st.integers(1, 4)), y1 + draw(st.integers(1, 4)))


any_boxes = st.one_of(boxes(), grid_boxes())

# Unit-height boxes on one short row: different boxes often tie in IoU with a
# third, so which of two equal overlaps is taken first decides later matches.
row_boxes = st.builds(
    lambda x, w: BoundingBox(x, 0, x + w, 1), st.integers(0, 2), st.integers(1, 2)
)


@st.composite
def labeled_batches(draw, max_rows=8, feature_dim=3):
    """Random feature rows with identity labels, sized for exhaustive checks."""
    n = draw(st.integers(min_value=2, max_value=max_rows))
    feats = draw(
        st.lists(
            st.lists(
                st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=feature_dim,
                max_size=feature_dim,
            ),
            min_size=n,
            max_size=n,
        )
    )
    ids = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    return np.array(feats, dtype=np.float64), np.array(ids, dtype=np.int64)
