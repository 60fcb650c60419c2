package spare

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// procs sets GOMAXPROCS for one test and restores it afterwards.
func procs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goWithin calls Go(f) and fails the test if it does not return
// within ten seconds: Go never waits for room in the budget.
func goWithin(t *testing.T, f func()) bool {
	t.Helper()
	res := make(chan bool, 1)
	go func() { res <- Go(f) }()
	select {
	case ok := <-res:
		return ok
	case <-time.After(10 * time.Second):
		t.Fatal("Go blocked")
		return false
	}
}

// TestGoNothingAtOneProc: at GOMAXPROCS 1 no core is spare, so Go
// refuses every task and runs none.
func TestGoNothingAtOneProc(t *testing.T) {
	procs(t, 1)
	var ran atomic.Bool
	for range 3 {
		if Go(func() { ran.Store(true) }) {
			t.Fatal("Go took a task at GOMAXPROCS 1")
		}
	}
	Idle()
	if ran.Load() {
		t.Fatal("a refused task ran")
	}
}

// TestGoBound: with every background goroutine blocked, Go takes
// maxTasks tasks and refuses the rest at once; at most GOMAXPROCS−1 run
// at a time, and one background goroutine takes them in the order they
// were queued.
func TestGoBound(t *testing.T) {
	for _, p := range []int{2, 4} {
		procs(t, p)
		release := make(chan struct{})
		var running, most atomic.Int32
		var order []int // appended by the tasks; read after Idle
		took := 0
		for i := range 4 * maxTasks {
			if goWithin(t, func() {
				n := running.Add(1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				<-release
				if p == 2 {
					order = append(order, i)
				}
				running.Add(-1)
			}) {
				took++
			}
		}
		close(release)
		Idle()
		if took != maxTasks {
			t.Errorf("GOMAXPROCS %d: Go took %d tasks, bound %d", p, took, maxTasks)
		}
		if m := most.Load(); m < 1 || int(m) > p-1 {
			t.Errorf("GOMAXPROCS %d: %d tasks ran at once, want 1..%d", p, m, p-1)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("GOMAXPROCS %d: tasks ran in order %v, want FIFO", p, order)
			}
		}
	}
}

// TestWorkers: Workers runs every index once, each on a goroutine of
// its own, and join returns only once every fn has. At GOMAXPROCS 2 the
// two workers leave no P spare until join, and one worker reserves
// nothing.
func TestWorkers(t *testing.T) {
	procs(t, 2)
	const n = 2
	var counts [n]atomic.Int32
	var returned atomic.Int32
	started := make(chan struct{}, n)
	release := make(chan struct{})
	join := Workers(n, func(i int) {
		counts[i].Add(1)
		started <- struct{}{}
		<-release
		time.Sleep(10 * time.Millisecond)
		returned.Add(1)
	})
	for range n {
		<-started
	}
	if goWithin(t, func() {}) {
		t.Error("Go took a task while two workers held both Ps")
	}
	close(release)
	join()
	if r := returned.Load(); r != n {
		t.Errorf("join returned with %d of %d workers done", r, n)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
	if !goWithin(t, func() {}) {
		t.Error("Go refused a task after join")
	}
	Idle()

	var inside bool
	Workers(1, func(int) { inside = Go(func() {}) })()
	if !inside {
		t.Error("Go refused a task beside one worker")
	}
	Idle()
}

// TestIdleWaitsForEveryTask: Idle returns only once every task queued
// has finished, those behind the one running and, with nothing left
// in the queue, the one running.
func TestIdleWaitsForEveryTask(t *testing.T) {
	procs(t, 2)
	var done atomic.Int32
	started := make(chan struct{})
	for i := range 3 {
		if !Go(func() {
			if i == 2 {
				close(started)
			}
			time.Sleep(20 * time.Millisecond)
			done.Add(1)
		}) {
			t.Fatal("Go refused a task with the budget idle")
		}
		if i == 1 {
			Idle()
			if n := done.Load(); n != 2 {
				t.Fatalf("Idle returned with %d of 2 tasks done", n)
			}
		}
	}
	<-started // the last task runs, and nothing is queued
	Idle()
	if n := done.Load(); n != 3 {
		t.Fatal("Idle returned while a task ran")
	}
}

// TestEachRunsEveryIndexOnce: at one P and more, Each calls do once
// for every index, failing ones included, and returns the error of
// the lowest failing index whichever finished first.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		procs(t, p)
		for _, n := range []int{0, 1, 3, 100} {
			counts := make([]atomic.Int32, n)
			failAt := map[int]bool{n / 2: true, n - 1: true}
			err := Each(n, func(i int) error {
				counts[i].Add(1)
				if failAt[i] {
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("GOMAXPROCS %d, n %d: index %d ran %d times", p, n, i, c)
				}
			}
			want := ""
			if n > 0 {
				want = fmt.Sprintf("item %d", n/2)
			}
			if got := fmt.Sprint(err); n > 0 && got != want || n == 0 && err != nil {
				t.Errorf("GOMAXPROCS %d, n %d: err %v, want %q", p, n, err, want)
			}
		}
		Idle()
	}
}

// TestEachOnTheCallerAtOneProc: at GOMAXPROCS 1 Each queues no helper,
// so every item runs on the caller, in index order.
func TestEachOnTheCallerAtOneProc(t *testing.T) {
	procs(t, 1)
	var order []int
	err := Each(10, func(i int) error {
		mu.Lock()
		queued := tasks
		mu.Unlock()
		if queued != 0 {
			t.Errorf("item %d ran with %d tasks queued or running", i, queued)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("items ran in order %v, want 0..9", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("items ran in order %v, want 0..9", order)
		}
	}
}
