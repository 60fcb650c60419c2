// Webservice: a public server with a receive-only EphID in DNS
// (paper Section VII-A).
//
// The server publishes a receive-only EphID under "shop.example"; a
// client resolves the name over an encrypted DNS session, connects, and
// the server answers from a *serving* EphID, so shutoff requests can
// never target the published identifier. The example also shows the
// 0-RTT establishment variant of Section VII-C.
package main

import (
	"fmt"
	"log"
	"time"

	"apna"
	"apna/internal/ephid"
	"apna/internal/host"
)

func main() {
	// A three-AS line declared with the topology generator: the client
	// sits in AS 10, the server in AS 12, AS 11 carries transit.
	in, err := apna.New(7,
		apna.WithLine(10, 3, 15*time.Millisecond),
		apna.WithHosts(12, "server"),
		apna.WithHosts(10, "client"))
	if err != nil {
		log.Fatal(err)
	}
	server, client := in.Host("server"), in.Host("client")

	// The server acquires a long-lived receive-only EphID for DNS and
	// a serving EphID — both issuance exchanges overlap — and then
	// publishes the name.
	pRecv := server.NewEphIDAsync(ephid.KindReceiveOnly, 24*3600)
	pServe := server.NewEphIDAsync(ephid.KindData, 3600)
	must(in.AwaitAll(pRecv, pServe))
	recvOnly, err := pRecv.Result()
	if err != nil {
		log.Fatal(err)
	}
	must(server.Publish("shop.example", &recvOnly.Cert))
	fmt.Printf("published shop.example -> receive-only EphID %v\n", recvOnly.Cert.EphID)

	// The server application: answer every request.
	server.Stack.OnMessage(func(m host.Message) {
		fmt.Printf("server got %q on serving EphID %v\n", m.Payload, m.Flow.Dst.EphID)
		if err := server.Stack.Respond(m, append([]byte("echo: "), m.Payload...)); err != nil {
			log.Printf("respond: %v", err)
		}
	})

	// Client: resolve (Lookup dials the resolver from EphIDs of its
	// own, so the query is not linked to the connection), then connect
	// with 0-RTT data riding on the very first packet.
	resolved, err := client.Lookup("shop.example")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resolved shop.example (kind=%v)\n", resolved.Kind)
	idConn, err := client.NewEphID(ephid.KindData, 900)
	if err != nil {
		log.Fatal(err)
	}
	conn, err := client.Connect(idConn, resolved, []byte("GET /catalog (0-RTT)"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connection migrated to serving EphID %v (receive-only stays shielded)\n",
		conn.Peer().EphID)

	// A regular request after establishment.
	must(client.Send(conn, []byte("GET /checkout")))
	for _, m := range client.Stack.Inbox() {
		fmt.Printf("client got: %q\n", m.Payload)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
