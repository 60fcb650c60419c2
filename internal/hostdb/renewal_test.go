package hostdb

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestRecordSize pins the published record at 80 bytes: the memo, the
// entry and the renewal word, with HID and Status on the memo's line.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 80 {
		t.Errorf("a record is %d bytes, want 80", got)
	}
	if off := unsafe.Offsetof(record{}.Status); off >= 64 {
		t.Errorf("Status at offset %d, off the record's first cache line", off)
	}
}

// TestRenewalBudgetFollowsTheHost: the budget lives in the host's record,
// so a re-keying Put and a strike keep what was charged, the window
// refills, a revoked host cannot charge, and GC frees the budget with
// the record: the HID registered again starts at zero.
func TestRenewalBudgetFollowsTheHost(t *testing.T) {
	const window, burst = 60, 3
	db := New()
	db.Put(entry(5))
	now := int64(1_000_000)
	charge := func() bool {
		t.Helper()
		ok, err := db.ChargeRenewal(5, now, window, burst)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	for i := 0; i < burst; i++ {
		if !charge() {
			t.Fatalf("renewal %d denied within the budget", i)
		}
	}
	rekeyed := entry(5)
	rekeyed.Keys.Enc[0] ^= 1
	db.Put(rekeyed)
	if charge() {
		t.Fatal("a re-keying Put refilled the budget")
	}
	if _, err := db.AddStrike(5); err != nil {
		t.Fatal(err)
	}
	if charge() {
		t.Fatal("a strike refilled the budget")
	}
	now += window - 1
	if charge() {
		t.Fatal("the budget refilled before the window ended")
	}
	now++
	if !charge() {
		t.Fatal("the budget did not refill at the window's end")
	}

	db.RevokeAt(5, now)
	if _, err := db.ChargeRenewal(5, now, window, burst); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked host charged: %v", err)
	}
	if _, err := db.ChargeRenewal(6, now, window, burst); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown host charged: %v", err)
	}
	if n := db.GC(now+1, 0); n != 1 {
		t.Fatalf("GC reaped %d hosts, want 1", n)
	}
	db.Put(entry(5))
	for i := 0; i < burst; i++ {
		if !charge() {
			t.Fatalf("renewal %d denied after GC freed the budget", i)
		}
	}
}

// TestRenewalBudgetUnderRepublish charges one HID from many goroutines
// while a writer keeps republishing its record with re-keying Puts and
// strikes. Every window must admit exactly burst renewals: a charge lost
// across a republish admits more, one counted twice admits fewer.
func TestRenewalBudgetUnderRepublish(t *testing.T) {
	const (
		window, burst = 60, 2000
		chargers      = 8
		attempts      = 2 * burst / chargers
		windows       = 4
	)
	db := New()
	db.Put(entry(7))
	for win := int64(0); win < windows; win++ {
		now := 1_000_000 + win*window
		var granted atomic.Int64
		stop := make(chan struct{})
		writer := make(chan struct{})
		go func() {
			defer close(writer)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					e := entry(7)
					e.Keys.MAC[0] = byte(i)
					db.Put(e)
				} else if _, err := db.AddStrike(7); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for c := 0; c < chargers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < attempts; i++ {
					ok, err := db.ChargeRenewal(7, now, window, burst)
					if err != nil {
						t.Error(err)
						return
					}
					if ok {
						granted.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-writer
		if got := granted.Load(); got != burst {
			t.Fatalf("window %d admitted %d renewals, want exactly %d", win, got, burst)
		}
	}
}
