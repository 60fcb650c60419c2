package wire

import (
	"testing"
	"testing/quick"

	"apna/internal/crypto"
)

func testMAC(t *testing.T) *PacketMAC {
	t.Helper()
	key := crypto.DeriveKey([]byte("host-as-secret"), "test/mac", crypto.SymKeySize)
	m, err := NewPacketMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func macFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	p := Packet{Header: sampleHeader(), Payload: payload}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestPacketMACApplyVerify(t *testing.T) {
	m := testMAC(t)
	frame := macFrame(t, []byte("payload bytes"))
	m.Apply(frame)
	if !m.Verify(frame) {
		t.Fatal("freshly MACed frame does not verify")
	}
}

func TestPacketMACWrongKey(t *testing.T) {
	m := testMAC(t)
	frame := macFrame(t, []byte("payload"))
	m.Apply(frame)

	other, err := NewPacketMAC(crypto.DeriveKey([]byte("different"), "test/mac", crypto.SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	if other.Verify(frame) {
		t.Error("MAC verified under wrong key — spoofing possible")
	}
}

func TestPacketMACDetectsTampering(t *testing.T) {
	m := testMAC(t)
	frame := macFrame(t, []byte("sensitive payload"))
	m.Apply(frame)
	for i := range frame {
		if i == offHopLimit {
			continue // deliberately not covered
		}
		frame[i] ^= 1
		if m.Verify(frame) {
			t.Fatalf("tampered byte %d accepted", i)
		}
		frame[i] ^= 1
	}
}

func TestPacketMACSurvivesHopLimitDecrement(t *testing.T) {
	// Shutoff evidence verification (Figure 5) happens after transit;
	// the MAC must survive hop-limit decrements.
	m := testMAC(t)
	frame := macFrame(t, []byte("evidence"))
	m.Apply(frame)
	for i := 0; i < 10; i++ {
		FrameDecrementHopLimit(frame)
	}
	if !m.Verify(frame) {
		t.Error("MAC broken by hop-limit decrement")
	}
}

func TestPacketMACPayloadSizesProperty(t *testing.T) {
	m := testMAC(t)
	f := func(payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		frame := macFrame(&testing.T{}, payload)
		m.Apply(frame)
		return m.Verify(frame)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMACBatchApplyMatchesApply holds the batch's tag-writing pass to
// PacketMAC.Apply frame by frame: payloads around the staged head and
// block boundaries, two keys interleaved, the hop limit varied (the MAC
// zeroes it), and the batch reused after Reset. Every frame the batch
// MACs must equal its per-frame twin byte for byte and pass Verify.
func TestMACBatchApplyMatchesApply(t *testing.T) {
	m := testMAC(t)
	other, err := NewPacketMAC(crypto.DeriveKey([]byte("other"), "test/mac", crypto.SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	var b MACBatch
	for round, sizes := range [][]int{{0}, {0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 40, 1454}, {100, 100, 100, 3, 3}} {
		b.Reset(0)
		var frames, want [][]byte
		for i, n := range sizes {
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = byte(round + i + j)
			}
			frame := macFrame(t, payload)
			frame[offHopLimit] = byte(i)
			pm := m
			if i%2 == 1 {
				pm = other
			}
			ref := append([]byte(nil), frame...)
			pm.Apply(ref)
			b.Add(pm, frame)
			frames, want = append(frames, frame), append(want, ref)
		}
		b.Apply()
		for i := range frames {
			if string(frames[i]) != string(want[i]) {
				t.Fatalf("round %d frame %d (%d payload bytes): batch MAC %x, Apply %x", round, i, sizes[i],
					frames[i][offMAC:offMAC+MACSize], want[i][offMAC:offMAC+MACSize])
			}
		}
		b.Verify()
		for i := range frames {
			if !b.OK(i) {
				t.Fatalf("round %d: Verify rejected frame %d the batch MACed", round, i)
			}
		}
	}
}
