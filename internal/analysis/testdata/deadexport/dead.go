// Package deadexport exercises the deadexport analyzer. Its go.mod
// makes it a whole module on its own, so the analyzer runs on it. The
// analyzer covers every package of the module, so the findings are the
// same whether it loads under internal/ or not.
package deadexport

import "fmt"

// Unused has no caller at all.
func Unused() int { return 1 } // want `deadexport\.Unused is exported but no non-test code in the module uses it`

// TestedOnly is called from dead_test.go only.
func TestedOnly() int { return 2 } // want `deadexport\.TestedOnly is exported`

// Dead is dead, and Helper is called only from Dead: Helper shows once
// Dead is deleted (TestDeadexportCascade).
func Dead() int { return Helper() } // want `deadexport\.Dead is exported`

// Helper is reachable only from Dead.
func Helper() int { return 3 }

// Recursive calls itself; that is not a use.
func Recursive(n int) int { // want `deadexport\.Recursive is exported`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Color's String method satisfies fmt.Stringer and is exempt.
type Color int

func (c Color) String() string { return "red" }

// Square's Area satisfies the local shape interface and is exempt;
// Perimeter satisfies nothing and nothing calls it.
type Square struct{}

func (Square) Area() float64 { return 1 }

func (Square) Perimeter() float64 { return 4 } // want `deadexport\.Square\.Perimeter is exported`

type shape interface{ Area() float64 }

func describe(s shape) string { return fmt.Sprint(Color(1), s.Area()) }

var description = describe(Square{})

// Observed is how a test in another package sees production behaviour.
//
//apna:testonly the caller package's tests read it
func Observed() int { return 5 }

// NoReason carries the directive without the reason it needs.
//
//apna:testonly
func NoReason() int { return 6 } // want `//apna:testonly on deadexport\.NoReason needs a reason`

// Used has a non-test caller, so its directive is stale.
//
//apna:testonly nothing needs it any more
func Used() int { return 7 } // want `stale //apna:testonly: deadexport\.Used has a non-test caller`

var total = Used() + len(description)

// unexported names are never checked.
func unexported() int { return total }
