// Package locksfix is the pdflint fixture for the locks analyzer:
// channel operations and blocking calls under a held mutex, and
// Lock without a reachable Unlock.
package locksfix

import (
	"sync"
	"time"
)

// Queue is a toy engine-shaped struct.
type Queue struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	ch    chan int
	items []int
}

// BadSend blocks on a channel send while holding the mutex.
func (q *Queue) BadSend(v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.ch <- v // want `channel send on q.ch while holding q.mu`
	q.mu.Unlock()
}

// BadRecv blocks on a receive under a deferred unlock.
func (q *Queue) BadRecv() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch // want `channel receive from q.ch while holding q.mu`
}

// BadSleep sleeps in the critical section.
func (q *Queue) BadSleep() {
	q.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding q.mu`
	q.mu.Unlock()
}

// BadSelect has no default clause, so it can park holding the lock.
func (q *Queue) BadSelect() {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want `blocking select while holding q.mu`
	case v := <-q.ch:
		q.items = append(q.items, v)
	case q.ch <- 0:
	}
}

// BadUnbalanced never releases.
func (q *Queue) BadUnbalanced() {
	q.rw.RLock() // want `q.rw locked with no reachable RUnlock`
	_ = len(q.items)
}

// GoodNonBlocking is the engine idiom: select with default under the
// lock never parks.
func (q *Queue) GoodNonBlocking(v int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}

// GoodEarlyUnlock releases before blocking.
func (q *Queue) GoodEarlyUnlock() int {
	q.mu.Lock()
	n := len(q.items)
	q.mu.Unlock()
	if n == 0 {
		return <-q.ch
	}
	return n
}

// GoodBranchUnlock releases on the early-return path and falls
// through still holding (no blocking op afterwards).
func (q *Queue) GoodBranchUnlock() int {
	q.mu.Lock()
	if len(q.items) == 0 {
		q.mu.Unlock()
		return <-q.ch
	}
	v := q.items[0]
	q.mu.Unlock()
	return v
}

// Worker owns a lock its goroutines take themselves.
type Worker struct {
	mu  sync.Mutex
	out chan int
}

// BadGoroutineSend sends from a goroutine body while holding the lock
// that body took: the literal is its own frame.
func (w *Worker) BadGoroutineSend() {
	go func() {
		w.mu.Lock()
		w.out <- 1 // want `channel send on w.out while holding w.mu`
		w.mu.Unlock()
	}()
}

// registryMu guards the package-level sleeper below.
var registryMu sync.Mutex

// badSleeper is a package-level function literal: no declaration
// encloses it, and it sleeps while holding registryMu.
var badSleeper = func() {
	registryMu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding registryMu`
	registryMu.Unlock()
}

// BadTwoReceivers still holds a.mu after releasing b.mu: both belong
// to one lock class, but the held-set is kept per receiver.
func BadTwoReceivers(a, b *Queue) int {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	v := <-a.ch // want `channel receive from a.ch while holding a.mu`
	a.mu.Unlock()
	return v
}

// GoodDeferredLiteral defers a literal that receives: the literal is
// its own frame with an empty held-set, so nothing is reported.
func (q *Queue) GoodDeferredLiteral() {
	q.mu.Lock()
	defer func() {
		<-q.ch
	}()
	q.mu.Unlock()
}

// BadIncDecRecv receives inside an increment statement under the lock.
func (q *Queue) BadIncDecRecv(counts map[int]int) {
	q.mu.Lock()
	counts[<-q.ch]++ // want `channel receive from q.ch while holding q.mu`
	q.mu.Unlock()
}
