package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent bounded worker pool for index fan-outs: fn(0),
// …, fn(n-1) evaluated across at most Workers() goroutines, results
// deterministic because each index writes only its own slot. The
// goroutines are created once and reused across rounds, so a fleet
// running thousands of lock-step epochs pays the spawn cost once, keeps
// worker stacks warm, and can pin per-worker scratch to the worker
// index RunWorkers exposes. RunIndexed is a Pool that lives for one
// round.
//
// A Pool is owned by a single driving goroutine: Run, RunWorkers and
// Close must not be called concurrently with each other. The fn
// callbacks themselves run concurrently on the workers.
type Pool struct {
	workers int
	rounds  []chan *poolRound
	closed  bool
}

// poolRound is one fan-out: workers claim indices from next until n is
// exhausted, then check in on wg.
type poolRound struct {
	n    int
	fn   func(worker, i int)
	next atomic.Int64
	wg   sync.WaitGroup
}

// NewPool starts a pool of long-lived workers; workers <= 0 means one
// per CPU. Idle workers block on their round channel and cost nothing.
// Call Close when the pool's owner is done with it; a closed pool
// degrades to inline execution rather than erroring, so owners that
// outlive their hot loop (a Fleet kept alive for ops scrapes) stay
// usable.
func NewPool(workers int) *Pool {
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: w, rounds: make([]chan *poolRound, w)}
	for k := range p.rounds {
		ch := make(chan *poolRound, 1)
		p.rounds[k] = ch
		worker := k
		go func() {
			for r := range ch {
				for {
					i := int(r.next.Add(1)) - 1
					if i >= r.n {
						break
					}
					r.fn(worker, i)
				}
				r.wg.Done()
			}
		}()
	}
	return p
}

// Run evaluates fn(0), …, fn(n-1) across the pool and returns when all
// calls have completed. Results are index-deterministic: parallelism
// changes wall-clock time, never which fn call handles which index.
func (p *Pool) Run(n int, fn func(i int)) {
	p.RunWorkers(n, func(_, i int) { fn(i) })
}

// RunWorkers is Run with the worker index (0 … Workers()-1) passed to
// fn, so callers can reuse per-worker scratch across indices without
// locking: at most one index runs on a given worker at a time.
func (p *Pool) RunWorkers(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.closed || p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	r := &poolRound{n: n, fn: fn}
	r.wg.Add(w)
	for k := 0; k < w; k++ {
		p.rounds[k] <- r
	}
	r.wg.Wait()
}

// Close releases the worker goroutines. Close is idempotent; Run and
// RunWorkers on a closed pool execute inline on the calling goroutine.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.rounds {
		close(ch)
	}
}
