package deadexport

import (
	"encoding/binary"
	"encoding/json"
	"io"
)

// counters is production state that production does not read.
type counters struct {
	written int // want `deadexport\.counters\.written is written but no non-test code in the module reads it`
	bumped  int // want `deadexport\.counters\.bumped is written`
	added   int // want `deadexport\.counters\.added is written`
	literal int // want `deadexport\.counters\.literal is written`
	tested  int // want `deadexport\.counters\.tested is written`
	// appended is only ever appended to itself; ranged is appended to
	// and also read.
	appended []int // want `deadexport\.counters\.appended is written`
	ranged   []int
	read     int
	// observed is a seam that a test reads.
	//
	//apna:testonly TestCounters reads it
	observed int
	// stale is marked, but production reads it.
	//
	//apna:testonly nothing needs it any more
	stale int // want `stale //apna:testonly: deadexport\.counters\.stale has a non-test reader`
}

var c = counters{literal: 1}

func count(n int) int {
	c.written = n
	c.bumped++
	c.added += n
	c.tested = n
	c.observed = n
	c.stale = n
	c.appended = append(c.appended, n)
	c.ranged = append(c.ranged, n)
	for _, v := range c.ranged {
		n += v
	}
	return c.read + c.stale + n
}

// pair is a map key: the map reads every field.
type pair struct{ a, b int }

var seen = map[pair]bool{{a: 1, b: 2}: true}

// point is compared whole, and so is the struct it holds by value.
type point struct {
	x, y int
	in   inner
}

type inner struct{ z int }

func same(p, q point) bool { return p == q }

// tagged carries a tag but is never handed to an encoder: the tag
// reads nothing.
type tagged struct {
	Name string `json:"name"` // want `deadexport\.tagged\.Name is written`
}

var named = tagged{Name: "x"}

// decoded is filled by json.Unmarshal, and so is what it points at.
type decoded struct {
	Count int
	Sub   *sub
}

type sub struct{ Deep int }

func decode(data []byte) (decoded, error) {
	var d decoded
	err := json.Unmarshal(data, &d)
	return d, err
}

// header goes out through encoding/binary.
type header struct{ Len, Kind uint16 }

func writeHeader(w io.Writer, n int) error {
	return binary.Write(w, binary.BigEndian, header{Len: uint16(n)})
}
