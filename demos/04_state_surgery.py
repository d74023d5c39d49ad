"""State surgery on the three-color worked example.

Starts from the unique open state of a prescribed pattern, converts it to
the closed state with the same flag and pattern (first adjustment), then
uncrosses a pair of paths to climb one Bruhat cover in the flag (second
adjustment).  Writes an SVG figure of each stage next to this script.
"""

from pathlib import Path

from fivevertex import adjust, lattice, render, weyl

LAM = (3, 2, 0)
PATTERN = ((5, 3, 0), (3, 1), (1,))


def describe(name, state):
    meets = lattice.meetings(state)
    crossings = {(a, b): [v for v in meets.get((a, b), [])
                          if lattice.crosses(state, v)]
                 for a in (1, 2) for b in range(a + 1, 4)}
    print(f"{name}: family {state.spec.family}, flag {state.spec.w}, "
          f"pattern {lattice.gtp_of_state(state)}")
    for pair, at in crossings.items():
        where = f"cross at {at[0]}" if at else "do not cross"
        print(f"   paths {pair}: {where}")
    out = Path(__file__).with_name(f"{name}.svg")
    out.write_text(render.render_svg(state))
    print(f"   wrote {out.name}\n")


def main():
    flag, open_state = lattice.open_state_of_pattern(LAM, PATTERN)
    print(f"pattern {PATTERN} forces the flag {flag} "
          f"(exit colors {weyl.inverse(flag)})\n")
    describe("stage1-open", open_state)

    closed = adjust.to_closed(open_state)
    describe("stage2-closed", closed)

    raised = adjust.to_closed(adjust.raise_flag(closed, 1, 2))
    describe("stage3-raised", raised)

    print("round trip back to the open state:",
          adjust.to_open(closed) == open_state)


if __name__ == "__main__":
    main()
