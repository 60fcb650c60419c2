package apna

import "errors"

// ErrPending is returned by Pending.Result before the operation has
// resolved. Drive the simulator with Internet.AwaitAll or AwaitResult
// first.
var ErrPending = errors.New("apna: operation still pending")

// Op is a pending protocol operation as seen by the Await drivers. All
// *Async facade methods return an Op (concretely a *Pending[T]); ops
// from different hosts and of different result types can be awaited
// together in one shared timeline.
type Op interface {
	// Done reports whether the operation has resolved (with a result
	// or an error).
	Done() bool
	// Err returns the operation's error, or nil. Before resolution it
	// returns ErrPending.
	Err() error

	// settle is invoked by the Await drivers when the timeline
	// quiesces, giving idle-resolved operations (e.g. Send, whose
	// success is "the network fully processed the transmission") their
	// completion point.
	settle(idle bool)
}

// Pending is the result of a non-blocking facade operation: a
// single-assignment future resolved by simulator events. Pending values
// are not goroutine safe; like the simulator itself they belong to the
// driving goroutine.
type Pending[T any] struct {
	done bool
	val  T
	err  error
	// idleResolved operations complete when the event queue drains
	// rather than on an explicit reply packet.
	idleResolved bool
	// onIdleAbandon, if set, runs when the timeline drains with the
	// operation unresolved — its reply can no longer arrive, so the
	// initiator deregisters any routing state (ping/shutoff queues)
	// that would otherwise misdirect later replies.
	onIdleAbandon func()
}

// newPending returns an unresolved future.
func newPending[T any]() *Pending[T] { return &Pending[T]{} }

// failedPending returns a future already resolved with err, for
// operations that fail before anything is scheduled.
func failedPending[T any](err error) *Pending[T] {
	return &Pending[T]{done: true, err: err}
}

// idlePending returns a future that resolves with val when the awaited
// timeline quiesces.
func idlePending[T any](val T) *Pending[T] {
	return &Pending[T]{val: val, idleResolved: true}
}

// complete resolves the future. Later completions are ignored: the
// first resolution wins, matching at-most-once protocol replies.
func (p *Pending[T]) complete(val T, err error) {
	if p.done {
		return
	}
	p.done, p.val, p.err = true, val, err
	p.onIdleAbandon = nil // routing state consumed; release the closure
}

// Done reports whether the operation has resolved.
func (p *Pending[T]) Done() bool { return p.done }

// Err returns the operation's error: nil on success, ErrPending before
// resolution.
func (p *Pending[T]) Err() error {
	if !p.done {
		return ErrPending
	}
	return p.err
}

// Result returns the operation's value and error. Before resolution it
// returns the zero value and ErrPending.
func (p *Pending[T]) Result() (T, error) {
	if !p.done {
		var zero T
		return zero, ErrPending
	}
	return p.val, p.err
}

func (p *Pending[T]) settle(idle bool) {
	if !idle || p.done {
		return
	}
	if p.idleResolved {
		p.done = true
	} else if p.onIdleAbandon != nil {
		p.onIdleAbandon()
		p.onIdleAbandon = nil
	}
}

// awaitBudget bounds the events one Await call may execute, guarding
// against livelocked timelines exactly like RunUntilIdle. It is counted
// in events, not steps: a step that delivers a router a run of frames
// executes one event per frame. (Operations resolve in host and service
// handlers, which get their frames one by one, so a run never carries
// Await past the event that resolved what it was waiting for.)
const awaitBudget = 1 << 22

// AwaitAll steps the simulator until every given operation resolves,
// executing only as many events as that takes. If the event queue
// drains first, idle-resolved operations (sends) complete and any
// remaining unresolved operation makes AwaitAll return ErrTimeout.
//
// AwaitAll is the facade's concurrency primitive: initiate any number
// of *Async operations across any hosts, then resolve them against one
// shared timeline, letting handshakes, data transfers and revocations
// interleave exactly as their packet timings dictate.
func (in *Internet) AwaitAll(ops ...Op) error {
	// next is a cursor over ops: everything before it is done. Checking
	// only ops[next] per event keeps the loop O(events + ops) instead
	// of rescanning the whole batch after every event.
	next, start := 0, in.Sim.Events()
	for in.Sim.Events()-start < awaitBudget {
		for next < len(ops) && ops[next].Done() {
			next++
		}
		if next == len(ops) {
			break
		}
		if !in.Sim.Step() {
			break
		}
	}
	idle := in.Sim.Pending() == 0
	for _, op := range ops {
		op.settle(idle)
	}
	if idle {
		in.settleLive()
	} else {
		in.pruneLive()
	}
	if !allDone(ops) {
		return ErrTimeout
	}
	return nil
}

// removePending removes p from q by identity, preserving order.
func removePending[T any](q []*Pending[T], p *Pending[T]) []*Pending[T] {
	for i, e := range q {
		if e == p {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// queuePop removes and returns the first future queued under k, or nil
// if none remain. (Queues never hold resolved futures: completion only
// happens through this pop, and abandonment removes the entry.)
func queuePop[K comparable, T any](m map[K][]*Pending[T], k K) *Pending[T] {
	q := m[k]
	if len(q) == 0 {
		return nil
	}
	p := q[0]
	if len(q) == 1 {
		delete(m, k)
	} else {
		m[k] = q[1:]
	}
	return p
}

// queueRemove removes p from the queue under k, deleting the key when
// the queue empties.
func queueRemove[K comparable, T any](m map[K][]*Pending[T], k K, p *Pending[T]) {
	if m[k] = removePending(m[k], p); len(m[k]) == 0 {
		delete(m, k)
	}
}

// registerLive records an operation holding reply-routing state (ping,
// shutoff, resolve) so quiescence — any Await reaching idle, or
// RunUntilIdle — abandons it even when it is not among the awaited
// operations. Without this, a stale future would linger at the head of
// its queue and swallow the reply of a later operation sharing its key.
func (in *Internet) registerLive(op Op) { in.live = append(in.live, op) }

// settleLive settles every registered live operation at quiescence and
// clears the registry: each is now either resolved or abandoned (its
// routing state deregistered), so none needs tracking further.
func (in *Internet) settleLive() {
	for _, op := range in.live {
		op.settle(true)
	}
	clear(in.live) // a settled future must not stay reachable from the tail
	in.live = in.live[:0]
}

// pruneLive drops resolved operations from the registry so workloads
// that never fully quiesce (continuous background traffic, or an
// AwaitAll stopped by its event budget) do not grow it without bound.
func (in *Internet) pruneLive() {
	kept := in.live[:0]
	for _, op := range in.live {
		if !op.Done() {
			kept = append(kept, op)
		}
	}
	clear(in.live[len(kept):])
	in.live = kept
}

func allDone(ops []Op) bool {
	for _, op := range ops {
		if !op.Done() {
			return false
		}
	}
	return true
}

// Ops converts a batch of same-typed futures into the []Op the Await
// drivers accept, sparing callers the parallel-slice bookkeeping.
func Ops[T any](ps ...*Pending[T]) []Op {
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = p
	}
	return ops
}

// AwaitResult drives the simulator until p resolves and returns its
// result — the one-liner for "async call, synchronous answer".
func AwaitResult[T any](in *Internet, p *Pending[T]) (T, error) {
	if err := in.AwaitAll(p); err != nil {
		var zero T
		return zero, err
	}
	return p.Result()
}
