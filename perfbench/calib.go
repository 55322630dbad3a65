package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host speed normalization.
//
// On a shared virtual machine the CPU's speed is not constant. On a
// 2-vCPU VM on a shared host, one s953 enrichment took 0.34 s
// or 0.52 s depending on the state of the host, states lasted seconds,
// each vCPU changed state on its own, and whole runs drifted by ±15%.
// Pinning the run to one vCPU alone still left jobs_per_s spreading
// 11-15% between seeds (README.md, "Steadiness"). A fixed kernel that
// uses only the standard library, so that no change to this repository
// can make it faster, slows down in step with the host. Every timed
// interval is therefore scaled by refKernel over the kernel's time
// measured just before and just after it, on every vCPU at once, and the
// end-to-end timings are reported in seconds of a host on which the
// kernel takes refKernel.

// refKernel is the reference duration of one kernel call, in seconds.
const refKernel = 0.004

// kernelState is one kernel's preallocated working set, so that
// sampling allocates nothing and leaves the GC and allocation figures
// of the workload alone.
type kernelState struct {
	xs   []int
	next []int32
}

// kernels holds one working set per sampling goroutine.
var kernels = func() []*kernelState {
	ks := make([]*kernelState, runtime.GOMAXPROCS(0))
	for i := range ks {
		ks[i] = &kernelState{xs: make([]int, 16384), next: ring(1 << 18)}
	}
	return ks
}()

// ring returns a random cyclic permutation for a pointer-chasing walk.
func ring(n int) []int32 {
	order := make([]int32, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range order {
		order[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	next := make([]int32, n)
	for i := range order {
		next[order[i]] = order[(i+1)%n]
	}
	return next
}

// run is a fixed mix of sorting, hashing and dependent memory loads.
func (st *kernelState) run() int {
	x := uint64(88172645463325252)
	for i := range st.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		st.xs[i] = int(x >> 1)
	}
	sort.Ints(st.xs)
	var h [32]byte
	for i := 0; i < 1000; i++ {
		h = sha256.Sum256(h[:])
	}
	p := int32(0)
	for i := 0; i < 1<<18; i++ {
		p = st.next[p]
	}
	return int(p) + int(h[0]) + st.xs[0]
}

// speedSample runs the kernel five times on every vCPU at once and
// returns the median duration per vCPU, averaged over the vCPUs, in
// seconds.
func speedSample() float64 {
	per := make([]float64, len(kernels))
	var wg sync.WaitGroup
	for i, st := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ts [5]float64
			for r := range ts {
				t := time.Now()
				st.run()
				ts[r] = time.Since(t).Seconds()
			}
			per[i] = median(ts[:])
		}()
	}
	wg.Wait()
	return mean(per)
}

// speed tracks the host speed across a sequence of timed intervals:
// each interval is scaled by refKernel over the mean of the samples
// taken just before and just after it.
type speed struct {
	last    float64
	factors []float64
}

func newSpeed() *speed {
	runtime.GC()
	return &speed{last: speedSample()}
}

// next ends an interval of work that took raw seconds. It first
// collects the garbage the work left and adds the collection's time to
// the interval, so the work pays for its own garbage: left running, the
// collector's mark workers would share the kernel's time slices on one
// vCPU (that tripled the kernel's spread). It then samples the host
// again and returns the interval's seconds at reference speed, and the
// factor it scaled them by.
func (s *speed) next(raw float64) (scaled, f float64) {
	t := time.Now()
	runtime.GC()
	raw += time.Since(t).Seconds()
	now := speedSample()
	f = refKernel / ((s.last + now) / 2)
	s.last = now
	s.factors = append(s.factors, f)
	return raw * f, f
}
