// Package circuit models gate-level netlists in the ISCAS89 style: primary
// inputs, primary outputs, D flip-flops and basic combinational gates. It
// provides the `.bench` format reader/writer the ISCAS/ITC benchmark suites
// use, levelization of the combinational core (flip-flop outputs treated as
// pseudo primary inputs, their data inputs as pseudo primary outputs — the
// full-scan view), and a deterministic synthetic-circuit generator used to
// run the ATPG pipeline end to end where the original benchmark netlists
// are not redistributable.
package circuit

import (
	"fmt"
)

// GateType enumerates the supported primitives.
type GateType uint8

// Gate primitives (the ISCAS89 benchmark vocabulary).
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
)

var typeNames = map[GateType]string{
	Input: "INPUT", Buf: "BUFF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR", DFF: "DFF",
}

// String returns the .bench keyword for the type.
func (t GateType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Inverting reports whether the gate complements its core function
// (NOT/NAND/NOR/XNOR).
func (t GateType) Inverting() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// Gate is one netlist node; its output net carries the gate's name.
type Gate struct {
	Name  string
	Type  GateType
	Fanin []int // gate ids driving this gate's inputs
}

// Circuit is a named netlist. Gate ids are indices into Gates.
type Circuit struct {
	Name    string
	Gates   []Gate
	Inputs  []int // primary inputs, in declaration order
	Outputs []int // gates whose output is a primary output
	DFFs    []int // state elements, in declaration order

	byName map[string]int
	fanout [][]int
}

// New returns an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// AddGate appends a gate and returns its id. Fanin ids must already
// exist except when patched later via SetFanin (the .bench parser needs
// forward references).
func (c *Circuit) AddGate(name string, t GateType, fanin ...int) (int, error) {
	if _, dup := c.byName[name]; dup {
		return 0, fmt.Errorf("circuit: duplicate gate %q", name)
	}
	id := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Name: name, Type: t, Fanin: fanin})
	c.byName[name] = id
	c.fanout = nil
	switch t {
	case Input:
		c.Inputs = append(c.Inputs, id)
	case DFF:
		c.DFFs = append(c.DFFs, id)
	}
	return id, nil
}

// MarkOutput declares gate id a primary output.
func (c *Circuit) MarkOutput(id int) { c.Outputs = append(c.Outputs, id) }

// ByName resolves a gate name.
func (c *Circuit) ByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// Fanout returns the fanout lists, computed lazily.
func (c *Circuit) Fanout() [][]int {
	if c.fanout == nil {
		c.fanout = make([][]int, len(c.Gates))
		for id, g := range c.Gates {
			for _, f := range g.Fanin {
				c.fanout[f] = append(c.fanout[f], id)
			}
		}
	}
	return c.fanout
}

// Counts summarizes the netlist.
type Counts struct {
	Gates, Inputs, Outputs, DFFs, Combinational int
}

// Count tallies the netlist.
func (c *Circuit) Count() Counts {
	n := Counts{Gates: len(c.Gates), Inputs: len(c.Inputs), Outputs: len(c.Outputs), DFFs: len(c.DFFs)}
	n.Combinational = n.Gates - n.Inputs - n.DFFs
	return n
}

// Validate checks structural sanity: fanin ids in range, gates have the
// right arity, names unique (by construction), and the combinational core
// is acyclic.
func (c *Circuit) Validate() error {
	for id, g := range c.Gates {
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.Gates) {
				return fmt.Errorf("circuit: gate %s fanin %d out of range", g.Name, f)
			}
		}
		switch g.Type {
		case Input:
			if len(g.Fanin) != 0 {
				return fmt.Errorf("circuit: input %s has fanin", g.Name)
			}
		case Buf, Not, DFF:
			if len(g.Fanin) != 1 {
				return fmt.Errorf("circuit: %s %s needs exactly 1 fanin, has %d", g.Type, g.Name, len(g.Fanin))
			}
		default:
			if len(g.Fanin) < 2 {
				return fmt.Errorf("circuit: %s %s needs >= 2 fanins, has %d", g.Type, g.Name, len(g.Fanin))
			}
		}
		_ = id
	}
	_, err := c.levelize()
	return err
}

// Levelize returns a topological order of the combinational core: primary
// inputs and flip-flop outputs are sources; every other gate appears
// after all its fanins. Combinational cycles are an error.
func (c *Circuit) levelize() ([]int, error) {
	n := len(c.Gates)
	indeg := make([]int, n)
	for id, g := range c.Gates {
		if g.Type == Input || g.Type == DFF {
			continue // sources in the combinational view
		}
		indeg[id] = len(g.Fanin)
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for id := range c.Gates {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	fanout := c.Fanout()
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range fanout[id] {
			if c.Gates[s].Type == Input || c.Gates[s].Type == DFF {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("circuit: combinational cycle (%d of %d gates ordered)", len(order), n)
	}
	return order, nil
}

// Comb is the full-scan combinational view of a circuit: flip-flop
// outputs are pseudo primary inputs, flip-flop data inputs are pseudo
// primary outputs. Test patterns address PIs then PPIs, in order.
type Comb struct {
	C     *Circuit
	Order []int // levelized evaluation order

	// PatternFor maps pattern bit positions: positions [0,len(PIs)) are
	// the primary inputs, positions [len(PIs), Width) the scan cells.
	PIs  []int // primary input gate ids
	PPIs []int // DFF gate ids (pseudo inputs)

	// Observation points: primary outputs then pseudo outputs (the nets
	// feeding each DFF, in DFF order).
	POs  []int
	PPOs []int
}

// NewComb builds the full-scan view.
func NewComb(c *Circuit) (*Comb, error) {
	order, err := c.levelize()
	if err != nil {
		return nil, err
	}
	cb := &Comb{C: c, Order: order, PIs: c.Inputs, PPIs: c.DFFs}
	cb.POs = c.Outputs
	for _, d := range c.DFFs {
		cb.PPOs = append(cb.PPOs, c.Gates[d].Fanin[0])
	}
	return cb, nil
}

// Width returns the test-pattern width: one bit per PI and per scan cell.
func (cb *Comb) Width() int { return len(cb.PIs) + len(cb.PPIs) }

// InputAt returns the gate id addressed by pattern bit i.
func (cb *Comb) InputAt(i int) int {
	if i < len(cb.PIs) {
		return cb.PIs[i]
	}
	return cb.PPIs[i-len(cb.PIs)]
}

// ObsCount returns the number of observation points (POs + PPOs).
func (cb *Comb) ObsCount() int { return len(cb.POs) + len(cb.PPOs) }

// ObsAt returns the gate id observed at index i.
func (cb *Comb) ObsAt(i int) int {
	if i < len(cb.POs) {
		return cb.POs[i]
	}
	return cb.PPOs[i-len(cb.POs)]
}
