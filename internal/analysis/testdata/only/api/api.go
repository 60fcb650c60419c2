// Package api declares the names the //apna:only testdata guards.
package api

// Encode and Decode may be called by allowed alone.
//
//apna:only only/allowed
func Encode() int { return 1 }

//apna:only only/allowed
func Decode() int { return 6 }

// Router is open to all; its Verify method is not.
type Router struct{}

// Verify is the reference path.
//
//apna:only only/allowed
func (Router) Verify() bool { return true }

// HandlerFunc may be converted to by allowed alone.
//
//apna:only only/allowed
type HandlerFunc func()

// Stale lists a package that no longer uses it.
//
//apna:only only/allowed only/bad
func Stale() int { return 2 } // want `stale //apna:only: api\.Stale lists only/bad, whose non-test code no longer uses it`

// Bare carries the mark without its list.
//
//apna:only
func Bare() int { return 3 } // want `//apna:only on api\.Bare needs the import paths`

// Tested is used by allowed, and by bad's tests only.
//
//apna:only only/allowed
func Tested() int { return 4 }

// Internal may be used by its own package only if it lists itself.
//
//apna:only only/allowed
func Internal() int { return 5 }

var internal = Internal() // want `api\.Internal is //apna:only only/allowed: only/api may not use it`
