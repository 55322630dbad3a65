package justify

import (
	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// reqSim is the requirement simulation both justifiers search on: a
// three-plane simulator, the required value of every net, and the cone
// of the current cube, every net in the transitive fanin of a required
// net. A gate whose output lies in the cone reads only nets in the
// cone, so an assignment propagated within the cone changes every cone
// net, and finds every conflict, exactly as full propagation does.
type reqSim struct {
	c   *circuit.Circuit
	sim *circuit.Simulator
	im  *robust.Implier // derives the implications a caller does not hold

	req      []tval.Triple // per net; TX when unconstrained
	reqList  []int
	cone     []bool // per net
	coneList []int
}

func newReqSim(c *circuit.Circuit) reqSim {
	r := reqSim{c: c, sim: circuit.NewSimulator(c), im: robust.NewImplier(c),
		req: make([]tval.Triple, len(c.Lines)), cone: make([]bool, len(c.Lines))}
	for i := range r.req {
		r.req[i] = tval.TX
	}
	return r
}

// load resets the simulator to all-x and installs the cube's
// requirements and cone; clear undoes it.
func (r *reqSim) load(cube *robust.Cube) {
	r.sim.Reset()
	for i, net := range cube.Nets {
		r.req[net] = cube.Vals[i]
		r.reqList = append(r.reqList, net)
		r.mark(net)
	}
	for i := 0; i < len(r.coneList); i++ { // coneList is the work list
		if g := r.c.Lines[r.coneList[i]].Gate; g >= 0 {
			for _, in := range r.c.Gates[g].InNets {
				r.mark(in)
			}
		}
	}
}

func (r *reqSim) mark(net int) {
	if !r.cone[net] {
		r.cone[net] = true
		r.coneList = append(r.coneList, net)
	}
}

func (r *reqSim) clear() {
	for _, net := range r.reqList {
		r.req[net] = tval.TX
	}
	for _, net := range r.coneList {
		r.cone[net] = false
	}
	r.reqList, r.coneList = r.reqList[:0], r.coneList[:0]
}

// seed assigns every primary-input pattern value the cube implies, a
// necessary value each, propagating within (see apply). im holds the
// implications of the cube (robust.Implier.Extend leaves them); nil
// derives them. seed reports false on a conflict.
func (r *reqSim) seed(cube *robust.Cube, im *robust.Implier, within []bool) bool {
	if im == nil {
		if im = r.im; !im.ImplyConsistent(cube) {
			return false
		}
	}
	for _, pi := range r.c.PIs {
		for _, plane := range []int{0, 2} {
			if v := im.Value(pi, plane); v != tval.X && r.apply(pi, plane, v, within, nil) {
				return false
			}
		}
	}
	return true
}

// apply assigns pattern position plane∈{0,2} of primary input pi,
// propagating only into the nets marked in within (nil: every net),
// and reports whether a required value was contradicted. When the
// other pattern position holds the same value, the intermediate also
// becomes specified (the input is stable). touch, when non-nil, sees
// the nets each propagation changed.
func (r *reqSim) apply(pi, plane int, v tval.V, within []bool, touch func(changed []int)) (conflict bool) {
	if r.sim.Value(pi, plane) == v {
		return false
	}
	if r.check(r.sim.AssignWithin(pi, plane, v, within), plane, touch) {
		return true
	}
	if r.sim.Value(pi, 2-plane) == v && r.sim.Value(pi, 1) == tval.X {
		return r.check(r.sim.AssignWithin(pi, 1, v, within), 1, touch)
	}
	return false
}

func (r *reqSim) check(changed []int, plane int, touch func([]int)) (conflict bool) {
	if touch != nil {
		touch(changed)
	}
	for _, n := range changed {
		if want := r.req[n].At(plane); want != tval.X && r.sim.Value(n, plane) != want {
			return true
		}
	}
	return false
}

// covers reports whether the simulated values cover the cube (required
// stable values must be hazard-free).
func (r *reqSim) covers(cube *robust.Cube) bool {
	for i, net := range cube.Nets {
		if !cube.Vals[i].Covers(r.sim.Triple(net)) {
			return false
		}
	}
	return true
}

// extract returns the simulated input values as a test, with stable
// zeros on the inputs still unspecified.
func (r *reqSim) extract() circuit.TwoPattern {
	t := circuit.TwoPattern{P1: make([]tval.V, len(r.c.PIs)), P3: make([]tval.V, len(r.c.PIs))}
	for i, net := range r.c.PIs {
		t.P1[i], t.P3[i] = r.sim.Value(net, 0), r.sim.Value(net, 2)
		if t.P1[i] == tval.X {
			t.P1[i] = tval.Zero
		}
		if t.P3[i] == tval.X {
			t.P3[i] = tval.Zero
		}
	}
	return t
}
