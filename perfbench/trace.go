package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer, recorded from
// outside the program. Times are nanoseconds since the recorder's epoch.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a job's root span
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory; Write dumps them when the run ends.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Do runs fn inside a span named name under parent, for job.
func (r *Recorder) Do(job, parent int, name string, fn func()) {
	id := r.start(job, parent, name)
	fn()
	r.end(id)
}

// Root opens a job's root span; close it with the returned function.
func (r *Recorder) Root(job int, name string) (id int, end func()) {
	id = r.start(job, 0, name)
	return id, func() { r.end(id) }
}

func (r *Recorder) start(job, parent int, name string) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(r.spans)
}

func (r *Recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Write saves the spans as one JSON document.
func (r *Recorder) Write(path string) error {
	b, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{r.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap each
// other or run past the parent; only their union inside the parent
// counts. The result is keyed by span ID.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the kids' intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums self time by span name over the given spans, and
// checks that for every job the self times of all its spans add up to
// its root spans' total duration. It returns seconds per name and the
// summed root duration in seconds.
func layerSelf(spans []Span) (map[string]float64, float64, error) {
	self := selfTimes(spans)
	byName := make(map[string]int64)
	jobSelf := make(map[int]int64)
	jobWall := make(map[int]int64)
	var wall int64
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		jobSelf[s.Job] += self[s.ID]
		if s.Parent == 0 {
			jobWall[s.Job] += s.End - s.Start
			wall += s.End - s.Start
		}
	}
	for job, w := range jobWall {
		if jobSelf[job] != w {
			return nil, 0, fmt.Errorf("job %d: self times sum to %dns, traced wall is %dns", job, jobSelf[job], w)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, ns := range byName {
		out[name] = float64(ns) / 1e9
	}
	return out, float64(wall) / 1e9, nil
}
