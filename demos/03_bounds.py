"""Where the lower and upper bounds come from, pair by pair.

A bound report carries its provenance: each (name, value) entry names the
argument that produced the number, so you can see which side is the
construction and which side is the counting.
"""

from enabling import multicolour_report, two_colour_report


def show(report, label):
    if report.exact:
        head = f"{label}: exactly {report.lower}"
    else:
        head = f"{label}: {report.lower} <= n <= {report.upper}"
    print(head)
    for name, value in report.provenance:
        print(f"    {name}: {value}")


print("== two colours ==")
show(two_colour_report(3, 9), "n(3,9)")
print("  (the square-root bound is an integer and the extremal graph hits it)\n")

show(two_colour_report(2, 3), "n(2,3)")
print("  (the square-root value is irrational; the extremal graph still hits")
print("   its ceiling, and exhaustive search in the tests rules out 5 vertices)\n")

show(two_colour_report(1, 7), "n(1,7)")
print("  (a target of 1 is satisfied by any vertex alone, so the other")
print("   colour dictates everything)\n")

print("== many colours ==")
show(multicolour_report(3, 3), "n_3(3)")
print()
show(multicolour_report(4, 3), "n_4(3)")
print("  (the slope construction on 9 vertices beats the block value 16")
print("   and lands exactly on the lower bound, settling this value)")
