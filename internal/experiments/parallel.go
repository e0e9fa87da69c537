package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(i) for every i in [0, n) across runtime.GOMAXPROCS
// goroutines. fn must write only to its own index's output slot; callers
// reduce the indexed outputs serially afterwards, so every sweep is
// bit-identical to its serial run (GOMAXPROCS=1) at any width.
func parallelFor(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
