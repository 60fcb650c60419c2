// Package hot exercises hotpath propagation: findings appear in the
// annotated root and in everything it statically reaches, and nowhere
// else.
package hot

import "sync"

type proc struct {
	mu    sync.Mutex
	ch    chan int
	buf   []byte
	state [16]byte
}

//apna:hotpath
func (p *proc) Process(frame []byte) int {
	p.mu.Lock() // want `sync mutex acquisition \(Lock\)`
	n := helper(frame)
	p.ch <- n   // want `channel send`
	v := <-p.ch // want `channel receive`
	_ = v
	_ = make([]byte, 8) // want `make`
	q := &proc{}        // want `address-of composite literal`
	_ = q
	if frame == nil { //apna:coldpath
		expensiveInit()
	}
	boxes(n) // want `passing int boxes into an interface`
	kernel(&p.state, n)
	p.buf = append(p.buf, frame...) //apna:alloc-ok
	go drain(p.ch)                  // want `goroutine spawn`
	return n
}

// helper is hot transitively via Process.
func helper(b []byte) int {
	s := string(b) + "x" // want `string/\[\]byte conversion copies` `string concatenation`
	return len(s)
}

// expensiveInit is reachable only through the //apna:coldpath branch,
// so its allocations are out of scope.
func expensiveInit() {
	_ = make([]byte, 1<<16)
}

// kernel is implemented in assembly. A declaration without a body is a
// leaf of the hot graph: there is nothing to walk, so it is accepted
// under a root (the AES-NI MAC kernels are reached this way) — neither
// reported nor a reason to stop checking the caller.
func kernel(state *[16]byte, n int)

// notHot is never reached from a root: allocations are fine here.
func notHot() []byte {
	return make([]byte, 16)
}

func boxes(v interface{}) {}

func drain(ch chan int) {
	for range ch { // want `channel range`
	}
}
