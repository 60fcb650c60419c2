package accountability

// AddRemoteSink registers an install target for remote revocations
// without a router's local-revocation oracle role. E12's harness
// (dissemination_test.go) installs lightweight sinks in place of border
// routers through it.
func (e *Engine) AddRemoteSink(s RemoteSink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sinks = append(e.sinks, s)
}
