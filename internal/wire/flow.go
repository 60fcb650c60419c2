package wire

import (
	"fmt"

	"apna/internal/ephid"
)

// Endpoint is one side of an APNA flow: the AID:EphID tuple that fully
// addresses a host (Section III-B). It is comparable so it can key maps,
// following the gopacket Flow/Endpoint idiom.
type Endpoint struct {
	AID   ephid.AID
	EphID ephid.EphID
}

// String renders the endpoint as AID:EphID.
func (e Endpoint) String() string { return fmt.Sprintf("%v:%v", e.AID, e.EphID) }

// Flow identifies a unidirectional packet flow by its two endpoints.
type Flow struct {
	Src, Dst Endpoint
}

// FlowFromHeader extracts the flow of a decoded header.
func FlowFromHeader(h *Header) Flow {
	return Flow{
		Src: Endpoint{AID: h.SrcAID, EphID: h.SrcEphID},
		Dst: Endpoint{AID: h.DstAID, EphID: h.DstEphID},
	}
}

// String renders the flow as src->dst.
func (f Flow) String() string { return f.Src.String() + "->" + f.Dst.String() }
