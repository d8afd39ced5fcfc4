package transport

// Addr returns the endpoint's listening address.
func (e *tcpEndpoint) Addr() string { return e.listener.Addr().String() }
