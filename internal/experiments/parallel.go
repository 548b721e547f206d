package experiments

import "runtime"

// MaxWorkers bounds the fan-out of RunIndexed. Zero or negative means
// one worker per CPU. It is read when a fan-out starts; set it before
// launching experiments, not concurrently with them. Code that needs a
// pool size of its own (several fan-outs alive in one process) should
// own a Pool instead of mutating this knob.
var MaxWorkers int

func workerCount(n int) int {
	w := MaxWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunIndexed evaluates fn(0), …, fn(n-1) across a bounded worker pool
// and returns the results in index order. Every experiment arm builds
// its own scheduler, account, and RNG stream from its seed, so arms
// share no mutable state and the result for each index is byte-
// identical whether the pool has one worker or many — parallelism
// changes wall-clock time, never output.
//
// Each call runs on a Pool of its own, sized from the package-level
// MaxWorkers knob and closed on return. Nested calls (kwo-bench fans
// out experiments, and each experiment fans out its arms) therefore
// never wait on one another's workers.
func RunIndexed[T any](n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	p := NewPool(workerCount(n))
	defer p.Close()
	p.Run(n, func(i int) { out[i] = fn(i) })
	return out
}
