package circuit

import "fmt"

// Builder constructs a Circuit incrementally at the net level; Build
// expands fanout stems into branch lines and validates the result.
//
// Nets are referred to by the opaque handles returned from AddInput and
// AddGate.
type Builder struct {
	name    string
	nets    []builderNet
	byName  map[string]int
	outputs []int
	err     error
}

type builderNet struct {
	name   string
	isPI   bool
	gtype  GateType
	inputs []int // net handles
}

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]int)}
}

func (b *Builder) fail(format string, args ...interface{}) int {
	if b.err == nil {
		b.err = fmt.Errorf("circuit: "+format, args...)
	}
	return -1
}

func (b *Builder) addNet(n builderNet) int {
	if n.name == "" {
		return b.fail("empty signal name")
	}
	if _, dup := b.byName[n.name]; dup {
		return b.fail("duplicate signal %q", n.name)
	}
	b.nets = append(b.nets, n)
	id := len(b.nets) - 1
	b.byName[n.name] = id
	return id
}

// AddInput declares a primary input and returns its net handle.
func (b *Builder) AddInput(name string) int {
	return b.addNet(builderNet{name: name, isPI: true})
}

// AddGate declares a gate driving a new net called name and returns the
// net handle. Inputs are net handles from earlier AddInput/AddGate
// calls.
func (b *Builder) AddGate(t GateType, name string, inputs ...int) int {
	if t >= numGateTypes {
		return b.fail("invalid gate type for %q", name)
	}
	switch t {
	case Not, Buf:
		if len(inputs) != 1 {
			return b.fail("%s gate %q needs exactly 1 input, got %d", t, name, len(inputs))
		}
	default:
		if len(inputs) < 1 {
			return b.fail("%s gate %q needs at least 1 input", t, name)
		}
	}
	for _, in := range inputs {
		if in < 0 || in >= len(b.nets) {
			return b.fail("gate %q references unknown net %d", name, in)
		}
	}
	return b.addNet(builderNet{name: name, gtype: t, inputs: append([]int(nil), inputs...)})
}

// MarkOutput declares net as a primary output. A net may be both an
// output and feed gates; the output tap then becomes its own branch
// line, as in the path delay fault line model.
func (b *Builder) MarkOutput(net int) {
	if net < 0 || net >= len(b.nets) {
		b.fail("MarkOutput: unknown net %d", net)
		return
	}
	for _, o := range b.outputs {
		if o == net {
			b.fail("MarkOutput: net %q marked twice", b.nets[net].name)
			return
		}
	}
	b.outputs = append(b.outputs, net)
}

// Build expands the net list into the line-level Circuit.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nets) == 0 {
		return nil, fmt.Errorf("circuit: %q has no nets", b.name)
	}

	// consumer of a net: either a gate input pin or a PO tap.
	type consumer struct {
		gate int // gate (net handle of the consuming gate's output), or -1 for a PO tap
		pin  int // input pin index within the gate, or PO position
	}
	consumers := make([][]consumer, len(b.nets))
	for id, n := range b.nets {
		for pin, in := range n.inputs {
			if in >= id {
				return nil, fmt.Errorf("circuit: %q: gate %q consumes net %q declared later (combinational circuits must be acyclic)",
					b.name, n.name, b.nets[in].name)
			}
			consumers[in] = append(consumers[in], consumer{gate: id, pin: pin})
		}
	}
	isOutput := make(map[int]int) // net handle -> PO position
	for pos, o := range b.outputs {
		isOutput[o] = pos
		consumers[o] = append(consumers[o], consumer{gate: -1, pin: pos})
	}
	if len(b.outputs) == 0 {
		return nil, fmt.Errorf("circuit: %q has no primary outputs", b.name)
	}

	c := &Circuit{Name: b.name, piIndex: make(map[int]int)}

	// Pass 1: create the PI/stem line for every net, in declaration
	// order; record net handle -> line ID.
	netLine := make([]int, len(b.nets))
	gateOf := make([]int, len(b.nets)) // net handle -> gate index, or -1
	for id, n := range b.nets {
		ln := Line{
			ID:           len(c.Lines),
			Name:         n.name,
			Gate:         -1,
			Stem:         -1,
			ConsumerGate: -1,
		}
		if n.isPI {
			ln.Kind = LinePI
		} else {
			ln.Kind = LineStem
		}
		ln.Net = ln.ID
		netLine[id] = ln.ID
		gateOf[id] = -1
		c.Lines = append(c.Lines, ln)
		if n.isPI {
			c.piIndex[ln.ID] = len(c.PIs)
			c.PIs = append(c.PIs, ln.ID)
		}
	}

	// Pass 2: create the gates, with their input nets. Input pin line
	// IDs are fixed up in pass 3 once branches exist. Every gate's In
	// and InNets are sub-slices of one backing array.
	pins := 0
	for _, n := range b.nets {
		pins += len(n.inputs)
	}
	pinBuf := make([]int, 2*pins)
	inBuf, netBuf := pinBuf[:pins], pinBuf[pins:]
	for id, n := range b.nets {
		if n.isPI {
			continue
		}
		k := len(n.inputs)
		g := Gate{Type: n.gtype, Name: n.name, Out: netLine[id], In: inBuf[:k:k], InNets: netBuf[:k:k]}
		inBuf, netBuf = inBuf[k:], netBuf[k:]
		for pin, in := range n.inputs {
			g.InNets[pin] = netLine[in]
		}
		gateOf[id] = len(c.Gates)
		c.Lines[netLine[id]].Gate = len(c.Gates)
		c.Gates = append(c.Gates, g)
	}

	// Pass 3: wire consumers, creating branch lines where a net has
	// two or more consumers.
	poLine := make([]int, len(b.outputs)) // PO position -> PO-end line ID
	for id := range b.nets {
		stemID := netLine[id]
		cons := consumers[id]
		switch len(cons) {
		case 0:
			return nil, fmt.Errorf("circuit: %q: net %q drives nothing (not consumed, not an output)",
				b.name, b.nets[id].name)
		case 1:
			cn := cons[0]
			if cn.gate < 0 {
				c.Lines[stemID].IsPOEnd = true
				poLine[cn.pin] = stemID
			} else {
				gi := gateOf[cn.gate]
				c.Lines[stemID].ConsumerGate = gi
				c.Lines[stemID].Succs = []int{c.Gates[gi].Out}
				c.Gates[gi].In[cn.pin] = stemID
			}
		default:
			for _, cn := range cons {
				br := Line{
					ID:           len(c.Lines),
					Kind:         LineBranch,
					Net:          stemID,
					Gate:         -1,
					Stem:         stemID,
					ConsumerGate: -1,
				}
				if cn.gate < 0 {
					br.Name = b.nets[id].name + "->PO"
					br.IsPOEnd = true
					poLine[cn.pin] = len(c.Lines)
				} else {
					gi := gateOf[cn.gate]
					br.Name = b.nets[id].name + "->" + b.nets[cn.gate].name
					if pinCount(b.nets[cn.gate].inputs, id) > 1 {
						br.Name = fmt.Sprintf("%s.%d", br.Name, cn.pin)
					}
					br.ConsumerGate = gi
					br.Succs = []int{c.Gates[gi].Out}
					c.Gates[gi].In[cn.pin] = len(c.Lines)
				}
				c.Lines[stemID].Succs = append(c.Lines[stemID].Succs, len(c.Lines))
				c.Lines = append(c.Lines, br)
			}
		}
	}
	c.POs = poLine

	// Topological order: nets were validated to be declared before use,
	// so gate declaration order is already topological.
	c.order = make([]int, 0, len(c.Gates))
	for id, n := range b.nets {
		if !n.isPI {
			c.order = append(c.order, gateOf[id])
		}
	}
	c.resolveFanout()
	c.resolveLevels()
	return c, nil
}

// resolveFanout fills the fanout arrays. fanoutStart[net] first counts
// the pins net feeds, then becomes its end offset by a prefix sum; the
// fill walks the pins backwards, decrementing it down to the start
// offset, which leaves each net's gates in ascending gate order.
func (c *Circuit) resolveFanout() {
	c.fanoutStart = make([]int, len(c.Lines)+1)
	for gi := range c.Gates {
		for _, net := range c.Gates[gi].InNets {
			c.fanoutStart[net]++
		}
	}
	for i := 1; i < len(c.fanoutStart); i++ {
		c.fanoutStart[i] += c.fanoutStart[i-1]
	}
	c.fanout = make([]int, c.fanoutStart[len(c.Lines)])
	for gi := len(c.Gates) - 1; gi >= 0; gi-- {
		in := c.Gates[gi].InNets
		for k := len(in) - 1; k >= 0; k-- {
			c.fanoutStart[in[k]]--
			c.fanout[c.fanoutStart[in[k]]] = gi
		}
	}
}

// resolveLevels assigns each gate its topological level.
func (c *Circuit) resolveLevels() {
	c.level = make([]int, len(c.Gates))
	for _, gi := range c.order {
		lv := 0
		for _, net := range c.Gates[gi].InNets {
			if d := c.Lines[net].Gate; d >= 0 {
				lv = max(lv, c.level[d]+1)
			}
		}
		c.level[gi] = lv
	}
}

func pinCount(inputs []int, net int) int {
	n := 0
	for _, in := range inputs {
		if in == net {
			n++
		}
	}
	return n
}
