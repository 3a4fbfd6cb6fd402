package circuit

import "strings"

// s27Bench is the ISCAS89 s27 benchmark netlist — the suite's smallest
// sequential circuit (4 inputs, 1 output, 3 flip-flops, 10 gates) —
// embedded for tests and examples.
const s27Bench = `# s27 (ISCAS89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
G17 = NOT(G11)
`

// c17Bench is the ISCAS85 c17 benchmark — the canonical 6-NAND
// combinational example.
const c17Bench = `# c17 (ISCAS85)
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
`

// S27 parses the embedded s27 netlist.
func S27() *Circuit {
	c, err := ParseBench("s27", strings.NewReader(s27Bench))
	if err != nil {
		panic("circuit: embedded s27 invalid: " + err.Error())
	}
	return c
}

// C17 parses the embedded c17 netlist.
func C17() *Circuit {
	c, err := ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		panic("circuit: embedded c17 invalid: " + err.Error())
	}
	return c
}
