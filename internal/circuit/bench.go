package circuit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParseBench reads an ISCAS89-style .bench netlist:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G10 = NAND(G0, G1)
//	G7  = DFF(G10)
//
// Forward references are allowed; OUTPUT lines may precede the gate
// definition.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	c := New(name)
	type pending struct {
		gate   int
		fanins []string
	}
	var fixups []pending
	var outputs []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(strings.ToUpper(s), "INPUT("):
			n, err := parenArg(s)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if _, err := c.AddGate(n, Input); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
		case strings.HasPrefix(strings.ToUpper(s), "OUTPUT("):
			n, err := parenArg(s)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			outputs = append(outputs, n)
		default:
			lhs, rhs, ok := strings.Cut(s, "=")
			if !ok {
				return nil, fmt.Errorf("line %d: unrecognized statement %q", line, s)
			}
			gname := strings.TrimSpace(lhs)
			rhs = strings.TrimSpace(rhs)
			open := strings.IndexByte(rhs, '(')
			close := strings.LastIndexByte(rhs, ')')
			if open < 0 || close < open {
				return nil, fmt.Errorf("line %d: malformed gate %q", line, s)
			}
			tname := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			gt, err := typeByName(tname)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			var fanins []string
			for _, f := range strings.Split(rhs[open+1:close], ",") {
				fanins = append(fanins, strings.TrimSpace(f))
			}
			id, err := c.AddGate(gname, gt)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			fixups = append(fixups, pending{gate: id, fanins: fanins})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fx := range fixups {
		for _, fn := range fx.fanins {
			id, ok := c.byName[fn]
			if !ok {
				return nil, fmt.Errorf("circuit: gate %s references undefined net %q", c.Gates[fx.gate].Name, fn)
			}
			c.Gates[fx.gate].Fanin = append(c.Gates[fx.gate].Fanin, id)
		}
	}
	for _, on := range outputs {
		id, ok := c.byName[on]
		if !ok {
			return nil, fmt.Errorf("circuit: OUTPUT references undefined net %q", on)
		}
		c.MarkOutput(id)
	}
	c.fanout = nil
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parenArg(s string) (string, error) {
	open := strings.IndexByte(s, '(')
	close := strings.LastIndexByte(s, ')')
	if open < 0 || close < open {
		return "", fmt.Errorf("circuit: malformed declaration %q", s)
	}
	n := strings.TrimSpace(s[open+1 : close])
	if n == "" {
		return "", fmt.Errorf("circuit: empty name in %q", s)
	}
	return n, nil
}

func typeByName(s string) (GateType, error) {
	switch s {
	case "BUF", "BUFF":
		return Buf, nil
	case "NOT", "INV":
		return Not, nil
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "DFF":
		return DFF, nil
	}
	return 0, fmt.Errorf("circuit: unknown gate type %q", s)
}

// writeBench renders the circuit in .bench format, stable across runs.
func (c *Circuit) writeBench(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	for _, id := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[id].Name)
	}
	outs := append([]int(nil), c.Outputs...)
	sort.Ints(outs)
	for _, id := range outs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[id].Name)
	}
	for id, g := range c.Gates {
		if g.Type == Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
		_ = id
	}
	return bw.Flush()
}
