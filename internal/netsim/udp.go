package netsim

import (
	"fmt"
	"net"

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
}

// maxDatagram bounds receive buffers.
const maxDatagram = 64 * 1024

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
	t := &UDPTransport{clk: clk, conn: conn, done: make(chan struct{})}
	go t.readLoop()
	return t, nil
}

func (t *UDPTransport) readLoop() {
	defer close(t.done)
	buf := make([]byte, maxDatagram)
	for {
		n, addr, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		from := addr.String()
		t.clk.Post(func() {
			if t.recv != nil {
				t.recv(from, payload)
			}
		})
	}
}

// Send implements xkernel.Transport; to is "ip:port".
func (t *UDPTransport) Send(to string, payload []byte) error {
	raddr, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return fmt.Errorf("netsim: resolve %q: %w", to, err)
	}
	_, err = t.conn.WriteToUDP(payload, raddr)
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
