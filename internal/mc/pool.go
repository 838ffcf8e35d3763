package mc

import (
	"sync"
	"sync/atomic"
)

// Pool is the checker's level scheduler, shared by the engine's BFS levels
// and the distributed shards' depth buckets: it runs one level of n items
// over its workers, admitting every item through a Meter before expanding
// it. With one worker (or one item) it is a plain loop in index order —
// the serial breadth-first order of the paper's Figures 5 and 8. With more,
// each worker owns a Chase-Lev deque seeded with a contiguous chunk of the
// level (LIFO local pops, FIFO steals once a chunk drains), so the
// frontier is contention-free in the common case. A Pool is reusable
// across levels but runs one level at a time.
type Pool struct {
	workers int
	deques  []wsDeque
	// steals and stealFails count deque traffic: successful steals and
	// lost steal races. Scheduling telemetry, not deterministic.
	steals     atomic.Int64
	stealFails atomic.Int64
}

// NewPool returns a level scheduler with the given worker count (<= 0
// means 1).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	return &Pool{workers: workers, deques: make([]wsDeque, workers)}
}

// Level calls expand(i, w) for the items i in [0, n) that m admits, w
// being the calling worker's index in [0, workers) — expand may use
// per-worker workspaces indexed by w. It stops admitting once m is
// exhausted and returns after every started expansion has finished.
func (p *Pool) Level(n int, m *Meter, expand func(i, w int)) {
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if !m.AdmitState() {
				return
			}
			expand(i, 0)
			if m.Exhausted() {
				return
			}
		}
		return
	}
	chunk := (n + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := min(w*chunk, n)
		hi := min(lo+chunk, n)
		p.deques[w].reset(lo, hi-lo)
	}
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !m.Exhausted() {
				idx, ok := p.deques[w].pop()
				if !ok {
					idx, ok = p.stealWork(w)
					if !ok {
						return
					}
				}
				if !m.AdmitState() {
					return
				}
				expand(int(idx), w)
			}
		}(w)
	}
	wg.Wait()
}

// stealWork scans the other workers' deques round-robin for an item. It
// returns ok=false only once every deque is empty; a lost CAS (the item
// went to someone else) counts as a steal failure and rescans.
func (p *Pool) stealWork(w int) (int32, bool) {
	for {
		drained := true
		for off := 1; off < p.workers; off++ {
			idx, ok, raced := p.deques[(w+off)%p.workers].steal()
			if ok {
				p.steals.Add(1)
				return idx, true
			}
			if raced {
				p.stealFails.Add(1)
				drained = false
			}
		}
		if drained {
			return 0, false
		}
	}
}

// wsDeque is a Chase-Lev work-stealing deque over level indexes: the owning
// worker pops at the bottom (LIFO, no contention in the common case),
// thieves steal from the top (FIFO, one CAS per steal). The Pool
// gives each worker one deque seeded with a contiguous chunk of the current
// level, so the frontier is contention-free until a worker drains its own
// chunk and starts stealing.
//
// The implementation is the classic array-based Chase-Lev deque specialised
// to one grow-free round: the Pool seeds the whole chunk up front and
// nothing is pushed mid-level, so the array never grows.
type wsDeque struct {
	items  []int32
	top    atomic.Int64 // next steal slot (front)
	bottom atomic.Int64 // one past the owner's next pop slot (back)
}

// reset re-seeds the deque with n items mapped by base: slot i holds
// base + i. Must be called before the workers that pop/steal are running.
func (d *wsDeque) reset(base, n int) {
	if cap(d.items) < n {
		d.items = make([]int32, n)
	}
	d.items = d.items[:n]
	for i := 0; i < n; i++ {
		d.items[i] = int32(base + i)
	}
	d.top.Store(0)
	d.bottom.Store(int64(n))
}

// pop removes and returns the bottom item (the owner's LIFO end); ok is
// false when the deque is empty. Owner-only.
func (d *wsDeque) pop() (v int32, ok bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(t)
		return 0, false
	}
	v = d.items[b]
	if t == b {
		// Last item: race the thieves for it (ok is false if a thief won).
		ok = d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		return v, ok
	}
	return v, true
}

// steal removes and returns the top item (the thieves' FIFO end). ok is
// false when the deque is empty or the CAS raced; raced distinguishes a
// lost race (retry may succeed) from emptiness.
func (d *wsDeque) steal() (v int32, ok, raced bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false, false
	}
	v = d.items[t]
	if !d.top.CompareAndSwap(t, t+1) {
		return 0, false, true
	}
	return v, true, false
}
