"""Demazure characters and atoms from divided differences.

Builds every character and atom for a three-variable shape, shows the
atoms tiling each character along the Bruhat order, and counts monomials
against the tableau enumeration.
"""

from fivevertex import laurent, patterns, weyl

LAM = (2, 1, 0)


def main():
    flags = weyl.permutations_by_length(3)
    print(f"shape {LAM}, full character has "
          f"{len(patterns.enumerate_ssyt(LAM, 3))} tableaux\n")
    for w in flags:
        char = laurent.demazure_char(LAM, w)
        atom = laurent.demazure_atom(LAM, w)
        below = [y for y in flags if weyl.bruhat_leq(y, w)]
        total = laurent.zero(3)
        for y in below:
            total = total + laurent.demazure_atom(LAM, y)
        ok = "ok" if total == char else "MISMATCH"
        print(f"w = {w} (length {weyl.length(w)})")
        print(f"  character: {laurent.format_poly(char)}")
        print(f"  atom:      {laurent.format_poly(atom)}")
        print(f"  sum of {len(below)} atoms below w reproduces the character: {ok}")
        print(f"  dimension: {laurent.eval_ones(char)}\n")
    schur = laurent.zero(3)
    for tab in patterns.enumerate_ssyt(LAM, 3):
        schur = schur + laurent.monomial(patterns.weight(tab, 3))
    w0 = (3, 2, 1)
    print("character at the longest element equals the Schur polynomial:",
          laurent.demazure_char(LAM, w0) == schur)


if __name__ == "__main__":
    main()
