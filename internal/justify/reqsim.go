package justify

import (
	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// reqSim is the requirement simulation both justifiers search on: the
// cone of the current cube, every net in the transitive fanin of a
// required net, compiled into a three-plane simulator together with
// every primary input, and the required value of every compiled net.
// A gate whose output lies in the cone reads only nets in the cone, so
// an assignment changes every cone net, and finds every conflict,
// exactly as it would in the whole circuit. The primary inputs outside
// the cone keep the values decisions give them and feed nothing.
type reqSim struct {
	c   *circuit.Circuit
	sim *circuit.Simulator
	im  *robust.Implier // derives the implications a caller does not hold

	req      []tval.Triple // per slot; TX when unconstrained
	cone     []bool        // per net
	coneList []int
}

func newReqSim(c *circuit.Circuit) reqSim {
	return reqSim{c: c, sim: circuit.NewSimulator(c), im: robust.NewImplier(c),
		cone: make([]bool, len(c.Lines))}
}

// load compiles the cube's cone into the simulator, with every value
// x, and installs the cube's requirements; clear undoes the marks.
func (r *reqSim) load(cube *robust.Cube) {
	for _, net := range cube.Nets {
		r.mark(net)
	}
	for i := 0; i < len(r.coneList); i++ { // coneList is the work list
		if g := r.c.Lines[r.coneList[i]].Gate; g >= 0 {
			for _, in := range r.c.Gates[g].InNets {
				r.mark(in)
			}
		}
	}
	r.sim.Compile(r.coneList)
	r.req = r.req[:0]
	for range r.sim.Len() {
		r.req = append(r.req, tval.TX)
	}
	for i, net := range cube.Nets {
		r.req[r.sim.Slot(net)] = cube.Vals[i]
	}
}

func (r *reqSim) mark(net int) {
	if !r.cone[net] {
		r.cone[net] = true
		r.coneList = append(r.coneList, net)
	}
}

func (r *reqSim) clear() {
	for _, net := range r.coneList {
		r.cone[net] = false
	}
	r.coneList = r.coneList[:0]
}

// seed assigns every primary-input pattern value the cube implies, a
// necessary value each. im holds the implications of the cube
// (robust.Implier.Extend leaves them); nil derives them. seed reports
// false on a conflict.
func (r *reqSim) seed(cube *robust.Cube, im *robust.Implier) bool {
	if im == nil {
		if im = r.im; !im.ImplyConsistent(cube) {
			return false
		}
	}
	for i, pi := range r.c.PIs {
		for _, plane := range []int{0, 2} {
			if v := im.Value(pi, plane); v != tval.X && r.apply(i, plane, v, nil) {
				return false
			}
		}
	}
	return true
}

// apply assigns pattern position plane∈{0,2} of primary input pi (its
// index in PIs) and reports whether a required value was contradicted.
// When the other pattern position holds the same value, the
// intermediate also becomes specified (the input is stable). touch,
// when non-nil, sees the slots each propagation changed and its plane.
func (r *reqSim) apply(pi, plane int, v tval.V, touch func(changed []int, plane int)) (conflict bool) {
	if r.sim.At(pi, plane) == v {
		return false
	}
	if r.check(r.sim.Assign(pi, plane, v), plane, touch) {
		return true
	}
	if r.sim.At(pi, 2-plane) == v && r.sim.At(pi, 1) == tval.X {
		return r.check(r.sim.Assign(pi, 1, v), 1, touch)
	}
	return false
}

func (r *reqSim) check(changed []int, plane int, touch func([]int, int)) (conflict bool) {
	if touch != nil {
		touch(changed, plane)
	}
	for _, k := range changed {
		if want := r.req[k].At(plane); want != tval.X && r.sim.At(k, plane) != want {
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
	for i := range r.c.PIs {
		t.P1[i], t.P3[i] = r.sim.At(i, 0), r.sim.At(i, 2)
		if t.P1[i] == tval.X {
			t.P1[i] = tval.Zero
		}
		if t.P3[i] == tval.X {
			t.P3[i] = tval.Zero
		}
	}
	return t
}
