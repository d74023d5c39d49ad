"""The tableau crystal of a shape and its Demazure subsets.

Lists the crystal, walks a lowering string, applies evacuation, grows the
Demazure sets up the Bruhat order, and shows the atoms with their key
tableaux.
"""

from fivevertex import crystal, patterns, weyl

LAM = (2, 1, 0)


def fmt(tab):
    return "/".join("".join(map(str, row)) for row in tab) if tab else "empty"


def main():
    elements = sorted(patterns.enumerate_ssyt(LAM, 3))
    print(f"crystal of shape {LAM} in letters 1..3: {len(elements)} tableaux")
    print("  " + "  ".join(fmt(t) for t in elements), "\n")

    u = crystal.highest_weight_tableau(LAM)
    print(f"lowering string from the highest weight {fmt(u)} at index 1:")
    cur = u
    while cur is not None:
        print(f"  {fmt(cur)}  weight {patterns.weight(cur, 3)}")
        cur = crystal.lowering(cur, 1)
    print()

    print("evacuation pairs (an involution reversing weights):")
    for tab in elements:
        image = crystal.schuetzenberger(tab, 3)
        if tab <= image:
            print(f"  {fmt(tab)} <-> {fmt(image)}")
    print()

    print("Demazure sets growing along the Bruhat order:")
    for w in weyl.permutations_by_length(3):
        dem = crystal.demazure_crystal(LAM, w)
        atom = crystal.demazure_atom_set(LAM, w)
        keys = [t for t in atom.elements if crystal.is_key(t)]
        print(f"  w = {w}: {len(dem.elements)} elements, atom adds "
              f"{sorted(map(fmt, atom.elements))}, key {fmt(keys[0])}")


if __name__ == "__main__":
    main()
