package hostdb

import "apna/internal/ephid"

// Delete removes a host entirely. Production drops entries only in GC;
// the tests use Delete to race tombstones against readers directly.
func (db *DB) Delete(hid ephid.HID) {
	s := db.shardFor(hid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sl, _ := db.Locate(hid).find(); sl != nil {
		s.kill(sl)
	}
}

// Range calls fn for every entry (a copy, like Get) until fn
// returns false. It takes no lock: an entry in the database for the whole
// call is visited once, one put or deleted meanwhile may or may not be.
func (db *DB) Range(fn func(Entry) bool) {
	for i := range db.shards {
		for t, j := db.shards[i].t.Load(), 0; j < len(t.slots); j++ {
			if t.slots[j].w.Load()&slotLive == 0 {
				continue
			}
			if e := t.slots[j].e.Load(); e != nil && !fn(e.Entry) {
				return
			}
		}
	}
}
