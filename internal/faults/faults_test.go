package faults

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mkFault(length int, firstLine int, dir Direction) Fault {
	path := make([]int, length)
	for i := range path {
		path[i] = firstLine + i
	}
	return Fault{Path: path, Dir: dir, Length: length}
}

func TestKeyDistinguishes(t *testing.T) {
	a := mkFault(3, 0, SlowToRise)
	b := mkFault(3, 0, SlowToFall)
	c := mkFault(3, 1, SlowToRise)
	if a.Key() == b.Key() {
		t.Error("directions must give different keys")
	}
	if a.Key() == c.Key() {
		t.Error("paths must give different keys")
	}
	if a.Key() != mkFault(3, 0, SlowToRise).Key() {
		t.Error("equal faults must share keys")
	}
	// Concatenation ambiguity: path [1,23] vs [12,3].
	d := Fault{Path: []int{1, 23}, Dir: SlowToRise}
	e := Fault{Path: []int{12, 3}, Dir: SlowToRise}
	if d.Key() == e.Key() {
		t.Error("key encoding ambiguous")
	}
}

func TestSourceSink(t *testing.T) {
	f := mkFault(4, 10, SlowToRise)
	if f.Path[0] != 10 || f.Sink() != 13 {
		t.Errorf("source/Sink = %d/%d, want 10/13", f.Path[0], f.Sink())
	}
}

func TestSortByLengthDesc(t *testing.T) {
	fs := []Fault{
		mkFault(3, 0, SlowToRise),
		mkFault(7, 0, SlowToRise),
		mkFault(5, 0, SlowToFall),
		mkFault(5, 0, SlowToRise),
		mkFault(5, 2, SlowToRise),
	}
	SortByLengthDesc(fs)
	for i := 1; i < len(fs); i++ {
		if fs[i].Length > fs[i-1].Length {
			t.Fatal("not sorted by decreasing length")
		}
	}
	// Deterministic tie-break: path order, then direction.
	if fs[1].Path[0] != 0 || fs[1].Dir != SlowToRise {
		t.Error("tie-break order wrong")
	}
	if fs[2].Dir != SlowToFall {
		t.Error("same path: STR before STF")
	}
}

func TestProfile(t *testing.T) {
	fs := []Fault{
		mkFault(9, 0, SlowToRise), mkFault(9, 0, SlowToFall),
		mkFault(7, 0, SlowToRise),
		mkFault(5, 0, SlowToRise), mkFault(5, 0, SlowToFall), mkFault(5, 2, SlowToRise),
	}
	prof := Profile(fs)
	want := []LengthCount{{9, 2, 2}, {7, 1, 3}, {5, 3, 6}}
	if !reflect.DeepEqual(prof, want) {
		t.Errorf("Profile = %v, want %v", prof, want)
	}
}

func TestProfileEmpty(t *testing.T) {
	if prof := Profile(nil); len(prof) != 0 {
		t.Errorf("empty profile = %v", prof)
	}
}

func TestPartitionPaperExample(t *testing.T) {
	// Reconstruct the s1423 situation of Table 2: N_p(L_16)=934 and
	// N_p(L_17)=1116; with N_P0=1000 the paper selects i0=17.
	var fs []Fault
	counts := []int{4, 8, 10, 14, 18, 30, 34, 42, 48, 48, 58, 64, 80, 98, 112, 131, 135, 182, 198, 224}
	length := 96
	for i, n := range counts {
		for k := 0; k < n; k++ {
			fs = append(fs, Fault{Path: []int{i, k + 1000}, Dir: SlowToRise, Length: length - i})
		}
	}
	p0, p1, i0 := Partition(fs, 1000)
	if i0 != 17 {
		t.Errorf("i0 = %d, want 17 (paper Table 2 with N_P0 = 1000)", i0)
	}
	if len(p0) != 1116 {
		t.Errorf("|P0| = %d, want 1116", len(p0))
	}
	if len(p0)+len(p1) != len(fs) {
		t.Error("partition loses faults")
	}
	// Boundary check: every P0 length ≥ 79, every P1 length < 79.
	for i := range p0 {
		if p0[i].Length < 96-17 {
			t.Fatalf("P0 contains length %d", p0[i].Length)
		}
	}
	for i := range p1 {
		if p1[i].Length >= 96-17 {
			t.Fatalf("P1 contains length %d", p1[i].Length)
		}
	}
}

func TestPartitionAllInP0(t *testing.T) {
	fs := []Fault{mkFault(5, 0, SlowToRise), mkFault(4, 0, SlowToRise)}
	p0, p1, _ := Partition(fs, 100)
	if len(p0) != 2 || len(p1) != 0 {
		t.Errorf("small set: P0=%d P1=%d, want 2/0", len(p0), len(p1))
	}
}

func TestPartitionEmpty(t *testing.T) {
	p0, p1, i0 := Partition(nil, 10)
	if p0 != nil || p1 != nil || i0 != 0 {
		t.Error("empty partition must be empty")
	}
}

func TestPartitionProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(200)
			fs := make([]Fault, n)
			for i := range fs {
				fs[i] = Fault{Path: []int{i}, Dir: SlowToRise, Length: 1 + r.Intn(20)}
			}
			SortByLengthDesc(fs)
			vals[0] = reflect.ValueOf(fs)
			vals[1] = reflect.ValueOf(1 + r.Intn(n))
		},
	}
	prop := func(fs []Fault, np0 int) bool {
		p0, p1, i0 := Partition(fs, np0)
		if len(p0)+len(p1) != len(fs) {
			return false
		}
		// |P0| ≥ min(np0, |fs|).
		want := np0
		if len(fs) < want {
			want = len(fs)
		}
		if len(p0) < want {
			return false
		}
		// i0 minimal: removing the shortest P0 length class drops below np0.
		prof := Profile(fs)
		if i0 > 0 && prof[i0-1].Cumulative >= np0 {
			return false
		}
		// Length boundary respected.
		if len(p1) > 0 && p1[0].Length >= p0[len(p0)-1].Length {
			minP0 := p0[0].Length
			for i := range p0 {
				if p0[i].Length < minP0 {
					minP0 = p0[i].Length
				}
			}
			for i := range p1 {
				if p1[i].Length >= minP0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPartitionK(t *testing.T) {
	var fs []Fault
	for l := 10; l >= 1; l-- {
		for k := 0; k < 10; k++ {
			fs = append(fs, Fault{Path: []int{l, k}, Dir: SlowToRise, Length: l})
		}
	}
	parts := PartitionK(fs, []int{15, 45})
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != len(fs) {
		t.Fatal("PartitionK loses faults")
	}
	// First set: lengths ≥ cut for cumulative ≥ 15 → classes 10,9 → 20 faults.
	if len(parts[0]) != 20 {
		t.Errorf("|set0| = %d, want 20", len(parts[0]))
	}
	// Second set: cumulative ≥ 45 → through class 6 → lengths 8,7,6 → 30.
	if len(parts[1]) != 30 {
		t.Errorf("|set1| = %d, want 30", len(parts[1]))
	}
	if len(parts[2]) != 50 {
		t.Errorf("|set2| = %d, want 50", len(parts[2]))
	}
	// Monotone: every fault in an earlier set is at least as long as
	// every fault in a later set.
	for s := 0; s+1 < len(parts); s++ {
		minEarlier := 1 << 30
		for _, f := range parts[s] {
			if f.Length < minEarlier {
				minEarlier = f.Length
			}
		}
		for _, f := range parts[s+1] {
			if f.Length >= minEarlier {
				t.Fatalf("set %d fault length %d ≥ set %d min %d", s+1, f.Length, s, minEarlier)
			}
		}
	}
}

func TestPartitionKEmpty(t *testing.T) {
	if parts := PartitionK(nil, []int{5}); parts != nil {
		t.Error("empty PartitionK must be nil")
	}
}

func TestDirectionString(t *testing.T) {
	if SlowToRise.String() != "STR" || SlowToFall.String() != "STF" {
		t.Error("direction names wrong")
	}
}
