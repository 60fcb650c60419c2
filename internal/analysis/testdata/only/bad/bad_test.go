package bad

import (
	"testing"

	"only/api"
)

// A test's reference is not one.
func TestTested(t *testing.T) {
	if api.Tested() != 4 {
		t.Fatal("Tested")
	}
}
