package deadexport

import "testing"

func TestTestedOnly(t *testing.T) {
	if TestedOnly() != 2 {
		t.Fatal("TestedOnly")
	}
}

func TestCounters(t *testing.T) {
	count(1)
	if c.tested != 1 || c.observed != 1 {
		t.Fatal("count")
	}
}
