package experiments

import "runtime"

// RunIndexed evaluates fn(0), …, fn(n-1) across a bounded worker pool
// and returns the results in index order. Every experiment arm builds
// its own scheduler, account, and RNG stream from its seed, so arms
// share no mutable state and the result for each index is byte-
// identical whether the pool has one worker or many — parallelism
// changes wall-clock time, never output.
//
// Each call runs on a Pool of its own of min(GOMAXPROCS, n) workers
// (so GOMAXPROCS=1 runs sequentially), closed on return. Nested calls
// (kwo-bench fans out experiments, and each experiment fans out its
// arms) therefore never wait on one another's workers.
func RunIndexed[T any](n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	p := NewPool(min(runtime.GOMAXPROCS(0), n))
	defer p.Close()
	p.Run(n, func(i int) { out[i] = fn(i) })
	return out
}
