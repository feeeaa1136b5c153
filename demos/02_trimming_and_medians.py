"""
How trimming and the weighted median actually work
==================================================
"""

from fractions import Fraction

from moralagg import (
    ActionSet,
    EthicalFramework,
    Theory,
    bottom_k,
    sorted_evaluations,
    top_k,
    trimmed_wam,
    wmedian,
)

# Three theories, one action, credences 2/10, 2/10, 6/10.
framework = EthicalFramework(
    [
        Theory("low", {"act": 0}),
        Theory("mid", {"act": 1}),
        Theory("high", {"act": 2}),
    ],
    {"low": Fraction(2, 10), "mid": Fraction(2, 10), "high": Fraction(6, 10)},
)
actions = ActionSet(("act",))

print("evaluations sorted ascending:", sorted_evaluations(framework, "act"))

# bottom_k collects the longest prefix of the sorted order whose total
# credence stays at or below k; top_k mirrors it from the other end.
# With k = 45/100 both 'low' (2/10) and 'mid' (2/10 more, total 4/10)
# fit, but adding 'high' would overshoot.  From the top, 'high' alone
# already weighs 6/10 > k, so nothing gets trimmed on that side.
k = Fraction(45, 100)
print(f"bottom_k at k={k}:", sorted(bottom_k(framework, "act", k)))
print(f"top_k at k={k}:   ", sorted(top_k(framework, "act", k)))

# The trimmed mean then zeroes those credences.  In LITERAL mode the
# surviving weights are used as they are; RENORMALIZED divides by the
# surviving mass so the weights sum to 1 again.  Both orders agree when
# every action sheds the same mass, and can disagree otherwise.
print("literal trimmed mean:     ", trimmed_wam(framework, "act", k))
print(
    "renormalized trimmed mean:",
    trimmed_wam(framework, "act", k, "renormalized"),
)
print()

# The weighted median picks the evaluation at which the credence mass
# below and above are both at most 1/2.  With an exact fifty-fifty split
# two positions qualify and their values are averaged.
split = EthicalFramework(
    [Theory("a", {"act": 0}), Theory("b", {"act": 1})],
    {"a": Fraction(1, 2), "b": Fraction(1, 2)},
)
print("median of a 50/50 split:", wmedian(split, "act"))

# A theory holding more than half the credence is always the median,
# no matter how extreme everyone else gets.
packed = EthicalFramework(
    [
        Theory("fringe1", {"act": -(10**9)}),
        Theory("majority", {"act": 7}),
        Theory("fringe2", {"act": 10**9}),
    ],
    {
        "fringe1": Fraction(24, 100),
        "majority": Fraction(51, 100),
        "fringe2": Fraction(25, 100),
    },
)
print("median with a 51/100 majority:", wmedian(packed, "act"))
