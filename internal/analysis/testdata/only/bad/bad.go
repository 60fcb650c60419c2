// Package bad is listed by no mark: each reference below fails.
package bad

import (
	"only/api"
	m "only/api"
)

func call() int { return api.Encode() } // want `api\.Encode is //apna:only only/allowed: only/bad may not use it`

func value(r api.Router) func() bool {
	return r.Verify // want `api\.Router\.Verify is //apna:only only/allowed: only/bad may not use it`
}

func renamed() int { return m.Decode() } // want `api\.Decode is //apna:only only/allowed: only/bad may not use it`

func conversion(f func()) func() {
	return api.HandlerFunc(f) // want `api\.HandlerFunc is //apna:only only/allowed: only/bad may not use it`
}
