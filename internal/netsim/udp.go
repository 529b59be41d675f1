package netsim

import (
	"fmt"
	"net"
	"net/netip"
	"sync"

	"rtpb/internal/clock"
)

// UDPTransport adapts a real UDP socket to xkernel.Transport, letting the
// cmd/ daemons run the identical protocol graph over a physical network.
// Inbound datagrams are posted onto the clock's executor so protocol code
// keeps the serial execution model it has under simulation.
type UDPTransport struct {
	clk  clock.Clock
	conn *net.UDPConn
	recv func(from string, payload []byte)
	done chan struct{}

	// dests caches each destination's resolved address, so Send resolves
	// a peer once rather than on every datagram.
	mu    sync.Mutex
	dests map[string]*net.UDPAddr
}

const (
	// maxDatagram bounds receive buffers.
	maxDatagram = 64 * 1024
	// readBuffer is the socket receive buffer NewUDP requests: room for a
	// registration burst (one Register per object, hundreds at once)
	// while the reader goroutine waits for the executor. The kernel caps
	// the request at its limit (net.core.rmem_max on Linux).
	readBuffer = 4 << 20
	// maxSenders bounds the reader's cache of sender address strings.
	maxSenders = 1024
)

// NewUDP opens a UDP socket bound to listenAddr ("ip:port"; an empty or
// ":0" address picks an ephemeral port) and starts its reader goroutine.
func NewUDP(clk clock.Clock, listenAddr string) (*UDPTransport, error) {
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netsim: resolve %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %q: %w", listenAddr, err)
	}
	// Best effort: a smaller buffer only costs datagrams under a burst,
	// which the protocol's retries already cover.
	_ = conn.SetReadBuffer(readBuffer)
	t := &UDPTransport{clk: clk, conn: conn, done: make(chan struct{}), dests: make(map[string]*net.UDPAddr)}
	go t.readLoop()
	return t, nil
}

func (t *UDPTransport) readLoop() {
	defer close(t.done)
	buf := make([]byte, maxDatagram)
	// senders caches each sender's address string, formatted as
	// ReadFromUDP's address would be, so a datagram from a known peer
	// is not formatted again.
	senders := make(map[netip.AddrPort]string)
	for {
		n, ap, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		from, ok := senders[ap]
		if !ok {
			if len(senders) >= maxSenders {
				clear(senders)
			}
			from = net.UDPAddrFromAddrPort(ap).String()
			senders[ap] = from
		}
		t.clk.Post(func() {
			if t.recv != nil {
				t.recv(from, payload)
			}
		})
	}
}

// Send implements xkernel.Transport; to is "ip:port".
func (t *UDPTransport) Send(to string, payload []byte) error {
	t.mu.Lock()
	raddr, ok := t.dests[to]
	t.mu.Unlock()
	if !ok {
		var err error
		if raddr, err = net.ResolveUDPAddr("udp", to); err != nil {
			return fmt.Errorf("netsim: resolve %q: %w", to, err)
		}
		t.mu.Lock()
		t.dests[to] = raddr
		t.mu.Unlock()
	}
	_, err := t.conn.WriteToUDP(payload, raddr)
	return err
}

// SetReceiver implements xkernel.Transport. The receiver is read on the
// clock executor, so SetReceiver must be called there too (for example
// from a clock.Post callback): a call from another goroutine races with
// the delivery of datagrams already posted.
func (t *UDPTransport) SetReceiver(fn func(from string, payload []byte)) {
	t.recv = fn
}

// LocalAddr implements xkernel.Transport.
func (t *UDPTransport) LocalAddr() string { return t.conn.LocalAddr().String() }

// Close implements xkernel.Transport: it closes the socket and waits for
// the reader goroutine to exit.
func (t *UDPTransport) Close() error {
	err := t.conn.Close()
	<-t.done
	return err
}
