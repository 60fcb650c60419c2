package crypto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// RFC 4493 Section 4 test vectors (AES-128 key 2b7e1516...).
var cmacKey = []byte{
	0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
}

var cmacMsg = []byte{
	0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
	0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a,
	0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c,
	0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51,
	0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11,
	0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef,
	0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17,
	0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
}

// rfc4493 are the Section 4 vectors.
var rfc4493 = []struct {
	name string
	msg  []byte
	want []byte
}{
	{"empty", nil, []byte{
		0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28,
		0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75, 0x67, 0x46,
	}},
	{"16bytes", cmacMsg[:16], []byte{
		0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44,
		0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a, 0x28, 0x7c,
	}},
	{"40bytes", cmacMsg[:40], []byte{
		0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30,
		0x30, 0xca, 0x32, 0x61, 0x14, 0x97, 0xc8, 0x27,
	}},
	{"64bytes", cmacMsg, []byte{
		0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92,
		0xfc, 0x49, 0x74, 0x17, 0x79, 0x36, 0x3c, 0xfe,
	}},
}

// TestCMACRFC4493Vectors drives the RFC vectors through Sum,
// SumTruncated and Verify (and through the reference the differential
// tests trust); TestMACBatchRFC4493 does the same for the batch.
func TestCMACRFC4493Vectors(t *testing.T) {
	c, err := NewCMAC(cmacKey)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCMAC(t, cmacKey)
	for _, tc := range rfc4493 {
		t.Run(tc.name, func(t *testing.T) {
			if got := ref.tag(tc.msg); !bytes.Equal(got[:], tc.want) {
				t.Fatalf("reference CMAC = %x, want %x", got, tc.want)
			}
			got := c.Sum(nil, tc.msg)
			if !bytes.Equal(got, tc.want) {
				t.Errorf("CMAC = %x, want %x", got, tc.want)
			}
			for _, n := range []int{1, 8, 16} {
				short := make([]byte, n)
				if err := c.SumTruncated(short, n, tc.msg); err != nil || !bytes.Equal(short, tc.want[:n]) {
					t.Errorf("SumTruncated(n=%d) = %x, %v, want %x", n, short, err, tc.want[:n])
				}
				if !c.Verify(tc.want[:n], tc.msg) {
					t.Errorf("Verify rejected the correct %d-byte tag", n)
				}
			}
		})
	}
}

func TestCMACSegmentedEqualsContiguous(t *testing.T) {
	c, err := NewCMAC(cmacKey)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, cc []byte) bool {
		joined := append(append(append([]byte{}, a...), b...), cc...)
		return bytes.Equal(c.Sum(nil, a, b, cc), c.Sum(nil, joined))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCMACTamperDetection(t *testing.T) {
	c, err := NewCMAC(cmacKey)
	if err != nil {
		t.Fatal(err)
	}
	msg := append([]byte(nil), cmacMsg...)
	tag := c.Sum(nil, msg)
	for i := range msg {
		msg[i] ^= 0x01
		if c.Verify(tag, msg) {
			t.Fatalf("tamper at byte %d not detected", i)
		}
		msg[i] ^= 0x01
	}
	// Tampering the tag itself.
	for i := range tag {
		tag[i] ^= 0x80
		if c.Verify(tag, msg) {
			t.Fatalf("tag tamper at byte %d not detected", i)
		}
		tag[i] ^= 0x80
	}
}

func TestCMACVerifyBounds(t *testing.T) {
	c, err := NewCMAC(cmacKey)
	if err != nil {
		t.Fatal(err)
	}
	if c.Verify(nil, cmacMsg) {
		t.Error("empty tag accepted")
	}
	if c.Verify(make([]byte, 17), cmacMsg) {
		t.Error("over-long tag accepted")
	}
}

func TestCMACKeySizes(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		if _, err := NewCMAC(make([]byte, n)); err != nil {
			t.Errorf("key size %d rejected: %v", n, err)
		}
	}
	if _, err := NewCMAC(make([]byte, 15)); err == nil {
		t.Error("15-byte key accepted")
	}
}

func TestCMACSumTruncated(t *testing.T) {
	c, err := NewCMAC(cmacKey)
	if err != nil {
		t.Fatal(err)
	}
	full := c.Sum(nil, cmacMsg)
	var short [8]byte
	if err := c.SumTruncated(short[:], 8, cmacMsg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(short[:], full[:8]) {
		t.Errorf("truncated = %x, want %x", short, full[:8])
	}
	// A tag longer than the CMAC, an empty one, or one longer than its
	// buffer is an error that leaves the buffer alone, not a panic.
	var big [32]byte
	for _, n := range []int{17, 0, -1} {
		if err := c.SumTruncated(big[:], n, cmacMsg); !errors.Is(err, ErrTagSize) {
			t.Errorf("SumTruncated(n=%d) = %v, want ErrTagSize", n, err)
		}
	}
	if err := c.SumTruncated(big[:4], 8, cmacMsg); !errors.Is(err, ErrTagSize) {
		t.Errorf("SumTruncated into a short buffer = %v, want ErrTagSize", err)
	}
	if big != [32]byte{} {
		t.Error("a rejected SumTruncated wrote to its buffer")
	}
}

func TestCMACDifferentKeysDiffer(t *testing.T) {
	c1, _ := NewCMAC(make([]byte, 16))
	k2 := make([]byte, 16)
	k2[0] = 1
	c2, _ := NewCMAC(k2)
	if bytes.Equal(c1.Sum(nil, cmacMsg), c2.Sum(nil, cmacMsg)) {
		t.Error("different keys produced identical MACs")
	}
}
