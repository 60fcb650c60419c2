package netsim

// Label returns the attachment label.
func (p *Port) Label() string { return p.label }
