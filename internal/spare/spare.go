// Package spare is the process's one way onto a core: Workers starts
// long-lived workers and holds their Ps, and on the Ps left at most
// GOMAXPROCS−1−reserved background goroutines take queued tasks in FIFO
// order, at most maxTasks queued or running. Go refuses what this
// budget cannot take, and nothing at GOMAXPROCS 1.
package spare

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxTasks bounds the tasks queued or running (DESIGN §8, "Spare cores").
const maxTasks = 16

var (
	mu       sync.Mutex
	drained  = sync.NewCond(&mu)
	queue    = make(chan func(), maxTasks)
	tasks    int // queued or running
	workers  int // background goroutines
	reserved atomic.Int64
)

// Go queues f for a background goroutine and returns true. It returns
// false, and f never runs, when maxTasks tasks are queued or running or
// no P is spare; the caller then does the work inline or skips it.
func Go(f func()) bool {
	mu.Lock()
	defer mu.Unlock()
	cores := runtime.GOMAXPROCS(0) - 1 - int(reserved.Load())
	if cores <= 0 || tasks == maxTasks {
		return false
	}
	tasks++
	queue <- f
	if workers < cores {
		workers++
		go work()
	}
	return true
}

func work() {
	mu.Lock()
	for len(queue) > 0 {
		f := <-queue
		mu.Unlock()
		f()
		mu.Lock()
		if tasks--; tasks == 0 {
			drained.Broadcast()
		}
	}
	workers--
	mu.Unlock()
}

// Workers runs fn(0), ..., fn(n-1) on goroutines of their own, for
// workers that hold a core for a whole run, and holds n−1 Ps out of the
// budget until join returns: the n-th is the caller's, which only
// coordinates or waits. join waits for every fn to return.
func Workers(n int, fn func(i int)) (join func()) {
	held := int64(n - 1)
	reserved.Add(held)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() { defer wg.Done(); fn(i) }()
	}
	return func() { wg.Wait(); reserved.Add(-held) }
}

// Idle waits until no task is queued or running.
//
//apna:testonly allocation tests in internal/crypto, internal/session, internal/ms and the root package wait through it for key refills and derivations before counting mallocs
func Idle() {
	mu.Lock()
	for tasks > 0 {
		drained.Wait()
	}
	mu.Unlock()
}

// maxHelpers bounds the spare-core tasks one Each queues, so that one
// fan-out never holds more than a quarter of the task cap and the key
// stock's refills always find room.
const maxHelpers = 4

// Each runs do(0), ..., do(n-1), each once, on the caller and on up to
// maxHelpers spare-core helpers that Go accepts. Items are claimed one
// at a time, so a helper that starts late — queued behind a key refill
// — finds less to do, not a share it must finish. Where the budget
// refuses (always at GOMAXPROCS 1) the caller does everything. It
// returns the error of the lowest failing item.
func Each(n int, do func(i int) error) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = do(i)
		}
	}
	for h := min(n, runtime.GOMAXPROCS(0), maxHelpers+1) - 1; h > 0; h-- {
		wg.Add(1)
		if !Go(func() { defer wg.Done(); run() }) {
			wg.Done()
			break
		}
	}
	run()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
