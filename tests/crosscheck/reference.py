"""Published figures the tests check the closed form and the oracle against.

The table ``table3`` checks stays in ``qmorse.reference``; these are read by
the tests alone.
"""

#: unambiguous reported ladder figures: molecule -> (count, E at the count index, eV)
REFERENCE_LADDER: dict[str, tuple[int, float]] = {
    "H2": (17, -1.231e-4),
    "CO": (83, -5.533e-7),
}

#: the LiH / HCl ladder figures (counts 24 and 29) are reported with
#: contradictory orderings in the source; the pair is resolved computationally
#: (see tests).  Candidate energies, as a set.
AMBIGUOUS_LADDER_ENERGIES: tuple[float, float] = (-1.303e-3, -1.270e-3)

#: high-accuracy variational reference values for H2 (exact centrifugal term,
#: no second-order expansion); used to characterize the expansion's validity.
REFERENCE_EXACT_H2: dict[tuple[int, int], str] = {
    (0, 0): "4.4760131", (0, 5): "4.2590180", (0, 10): "3.7247471",
    (5, 0): "2.2205369", (5, 5): "2.0528808", (5, 10): "1.6526902",
    (7, 0): "1.5374552", (7, 5): "1.3926614", (7, 10): "1.0526836",
}
