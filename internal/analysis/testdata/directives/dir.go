// Package directives exercises directive-placement validation: every
// //apna: comment must annotate the kind of node that honors it, or it
// is reported as unknown, misplaced or stale.
package directives

import "time"

// hotRoot carries a valid doc directive.
//
//apna:hotpath
func hotRoot() {}

// The function this annotated was deleted; the directive is stale.
//
//apna:hotpath // want `misplaced or stale //apna:hotpath`

var answer = 42 //apna:hotpath // want `misplaced or stale //apna:hotpath`

//apna:bogus // want `unknown directive //apna:bogus`

func stamp() time.Time {
	return time.Now() //apna:wallclock
}

var config = "x" //apna:wallclock // want `misplaced or stale //apna:wallclock`

func notAlloc() int {
	x := 1 //apna:alloc-ok // want `misplaced or stale //apna:alloc-ok`
	return x
}

func allocOK(xs []int) []int {
	return append(xs, 1) //apna:alloc-ok
}

//apna:verify-exempt
func exempt() {}

var state = map[string]bool{} //apna:verify-exempt // want `misplaced or stale //apna:verify-exempt`

func sliceRange(xs []int) {
	for range xs { //apna:unordered // want `misplaced or stale //apna:unordered`
	}
}

func mapRange(m map[int]int) int {
	n := 0
	for range m { //apna:unordered
		n++
	}
	return n
}

func coldBranch(b []byte) {
	if b == nil { //apna:coldpath
		_ = make([]byte, 1)
	}
}

// Observed carries a valid declaration-doc testonly directive.
//
//apna:testonly a test in another package reads it
func Observed() {}

// Marked types and values may carry it too.
//
//apna:testonly a test in another package reads it
var Marked = 1

func strayTestonly() {
	//apna:testonly not a declaration // want `misplaced or stale //apna:testonly`
}

// Only carries a valid declaration-doc only directive.
//
//apna:only apna/example/other
type Only int

func strayOnly() {
	//apna:only apna/example/other // want `misplaced or stale //apna:only`
}
