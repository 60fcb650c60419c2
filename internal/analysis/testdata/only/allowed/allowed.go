// Package allowed is the package the marks list.
package allowed

import "only/api"

func use() int {
	var r api.Router
	_ = api.HandlerFunc(func() {})
	if r.Verify() {
		return api.Encode() + api.Decode() + api.Stale() + api.Bare() + api.Tested() + api.Internal()
	}
	return 0
}
