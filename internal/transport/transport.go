// Package transport provides the message-passing substrate beneath the
// CA-action runtime, mirroring the paper's prototype architecture (Fig. 8):
// every participating thread owns an endpoint with a receive buffer, sends
// are asynchronous (remote procedure calls without out parameters), and the
// network guarantees reliable FIFO delivery per sender/receiver pair —
// exactly Assumptions 1 and 2 of §3.3.3.
//
// Two implementations are provided: Sim, an in-process network with a
// configurable latency model, fault injection and per-kind message counters
// (driven by any vclock.Clock, so whole experiments run in deterministic
// virtual time), and TCP, a network of batched binary-codec frames over TCP
// for genuinely distributed deployments.
package transport

import (
	"errors"
	"sync"
	"time"

	"caaction/internal/protocol"
)

// Delivery is one received message.
type Delivery struct {
	From string
	Msg  protocol.Message
	// Corrupt marks a message damaged in transit by fault injection; the
	// §3.4 extension treats such messages as a failure exception.
	Corrupt bool
}

// deliveryPool recycles the *Delivery boxes that travel through receive
// queues. Queues store `any`, so putting a Delivery by value would box it
// (one heap allocation per message); every transport instead enqueues a
// pooled pointer and the receive side copies the value out and returns the
// box. This is what makes a steady-state sim send allocation-free.
var deliveryPool = sync.Pool{New: func() any { return new(Delivery) }}

// borrowDelivery fills a pooled delivery box.
func borrowDelivery(from string, msg *protocol.Message, corrupt bool) *Delivery {
	d := deliveryPool.Get().(*Delivery)
	d.From, d.Msg, d.Corrupt = from, *msg, corrupt
	return d
}

// releaseDelivery clears and returns a delivery box to the pool. Callers
// must have copied the value out first and must not touch the box again.
func releaseDelivery(d *Delivery) {
	*d = Delivery{}
	deliveryPool.Put(d)
}

// unboxDelivery adapts a queue pop into the value-typed Endpoint.Recv
// contract, recycling the box.
func unboxDelivery(x any, ok bool) (d Delivery, _ bool) {
	if !ok {
		return d, false
	}
	dp := x.(*Delivery)
	d = *dp
	releaseDelivery(dp)
	return d, true
}

// Endpoint is one thread's attachment to the network.
type Endpoint interface {
	// Addr returns the endpoint's logical address.
	Addr() string

	// Send asynchronously transmits msg to the named endpoint. Delivery is
	// reliable and FIFO with respect to other sends to the same
	// destination, unless a fault injector says otherwise.
	Send(to string, msg protocol.Message) error

	// Recv blocks until a message arrives; ok is false once the endpoint
	// is closed and drained.
	Recv() (d Delivery, ok bool)

	// RecvTimeout is Recv with a deadline; ok is false on timeout or
	// close.
	RecvTimeout(timeout time.Duration) (d Delivery, ok bool)

	// Pending reports the number of buffered deliveries.
	Pending() int

	// Close detaches the endpoint.
	Close() error
}

// Network creates endpoints bound to logical addresses.
type Network interface {
	// Endpoint binds a new endpoint to addr.
	Endpoint(addr string) (Endpoint, error)

	// Close shuts the network down.
	Close() error
}

// Errors returned by transports.
var (
	ErrClosed        = errors.New("transport: closed")
	ErrDuplicateAddr = errors.New("transport: address already bound")
	ErrUnknownAddr   = errors.New("transport: unknown address")
)
