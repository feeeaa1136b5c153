"""Shared hypothesis strategies for framework-shaped data."""

from fractions import Fraction

import hypothesis.strategies as st

from moralagg import ActionSet, EthicalFramework, SwfSpec, Theory, TrimMode
from moralagg.scenario import ScenarioDocument

ACTION_NAMES = ("a", "b", "c", "d")

# A pool of small exact values is mixed in so that exact ties happen often.
_POOL = tuple(Fraction(n, d) for n in (-2, -1, 0, 1, 2) for d in (1, 2))

rationals = st.one_of(
    st.fractions(min_value=-100, max_value=100, max_denominator=30),
    st.sampled_from(_POOL),
)

trim_levels = st.fractions(
    min_value=0, max_value=Fraction(49, 100), max_denominator=100
)

positive_trim_levels = st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(49, 100), max_denominator=100
)


@st.composite
def frameworks(
    draw,
    min_theories=1,
    max_theories=4,
    min_actions=1,
    max_actions=4,
    values=rationals,
):
    n_actions = draw(st.integers(min_actions, max_actions))
    actions = ActionSet(ACTION_NAMES[:n_actions])
    n_theories = draw(st.integers(min_theories, max_theories))
    theories = []
    for i in range(n_theories):
        row = draw(
            st.lists(values, min_size=n_actions, max_size=n_actions)
        )
        theories.append(Theory(f"t{i + 1}", dict(zip(actions.actions, row))))
    weights = draw(
        st.lists(st.integers(1, 40), min_size=n_theories, max_size=n_theories)
    )
    total = sum(weights)
    framework = EthicalFramework(
        theories,
        {t.id: Fraction(w, total) for t, w in zip(theories, weights)},
    )
    return framework, actions


ids = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@st.composite
def scenario_documents(draw):
    actions = tuple(
        draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    )
    theory_ids = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    weights = draw(
        st.lists(
            st.integers(1, 50),
            min_size=len(theory_ids),
            max_size=len(theory_ids),
        )
    )
    total = sum(weights)
    theories = [
        Theory(
            tid,
            {
                a: draw(
                    st.fractions(min_value=-50, max_value=50, max_denominator=40)
                )
                for a in actions
            },
        )
        for tid in theory_ids
    ]
    credences = {tid: Fraction(w, total) for tid, w in zip(theory_ids, weights)}
    swf = draw(
        st.one_of(
            st.none(),
            st.just(SwfSpec.mec()),
            st.just(SwfSpec.maximin()),
            st.just(SwfSpec.hm()),
            st.builds(
                SwfSpec.kthm,
                trim_levels,
                st.sampled_from((TrimMode.LITERAL, TrimMode.RENORMALIZED)),
            ),
        )
    )
    return ScenarioDocument(
        EthicalFramework(theories, credences), ActionSet(actions), swf
    )
