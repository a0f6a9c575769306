"""Hypothesis strategies for trajectory views: local programs and agent specs.

A view maps one shared local program through one agent's frame
(:class:`repro.motion.compiler.TrajectoryView`).  The draws aim at the places
where the affine map and the exact range cuts can slip: wake times from 0 up
to 1e6, clock rates and length units in [1/4, 4], both chiralities, and local
programs mixing ordinary durations with tiny and subnormal ones — next to a
large wake time those map long runs of rows onto one absolute time.
"""

import math

import numpy as np
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.motion.program import ColumnBlock

_DURATIONS = st.one_of(
    st.floats(min_value=0.01, max_value=8.0),
    st.sampled_from((0.25, 0.5, 1.0)),
    st.floats(min_value=1e-12, max_value=1e-6),
    st.floats(min_value=0.0, max_value=1e-300, exclude_min=True, allow_subnormal=True),
)

_WAKES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1e6),
    st.sampled_from((1e6, 2.0**19, 0.1)),
)


@st.composite
def local_programs(draw, max_rows=40):
    """A finite program as column blocks of random sizes (moves and waits)."""
    rows = draw(
        st.lists(
            st.tuples(st.booleans(), _DURATIONS, st.floats(0.0, 2.0 * math.pi)),
            max_size=max_rows,
        )
    )
    dx = [d * math.cos(a) if move else 0.0 for move, d, a in rows]
    dy = [d * math.sin(a) if move else 0.0 for move, d, a in rows]
    duration = [d for _, d, _ in rows]
    chunk = draw(st.integers(1, 8))
    return [
        ColumnBlock(
            np.array(dx[k : k + chunk], dtype=float),
            np.array(dy[k : k + chunk], dtype=float),
            np.array(duration[k : k + chunk], dtype=float),
        )
        for k in range(0, len(rows), chunk)
    ]


@st.composite
def agent_specs(draw):
    """Agent B of a random instance: any frame, clock rate, length unit and wake."""
    rate = draw(st.floats(min_value=0.25, max_value=4.0))
    unit = draw(st.floats(min_value=0.25, max_value=4.0))
    instance = Instance(
        r=0.5,
        x=draw(st.floats(-3.0, 3.0)),
        y=draw(st.floats(-3.0, 3.0)),
        phi=draw(st.floats(min_value=0.0, max_value=6.28)),
        tau=rate,
        v=unit / rate,
        t=draw(_WAKES),
        chi=draw(st.sampled_from([-1, 1])),
    )
    return instance.agent_b()
