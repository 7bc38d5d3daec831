package main

import (
	"io"
	"net"
	"sync"
	"time"
)

// pipeBuf is the per-direction slack of an in-process subscriber
// connection: a few frames, like a small socket buffer, so a slow reader
// pushes back on the hub's sender instead of queueing without bound.
const pipeBuf = 8 << 10

// ring is one direction of a buffered in-process connection.
type ring struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []byte
	r, n   int  // guarded by mu: read offset, bytes buffered
	closed bool // guarded by mu
}

func newRing() *ring {
	q := &ring{buf: make([]byte, pipeBuf)}
	q.cond.L = &q.mu
	return q
}

func (q *ring) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// putLocked copies what fits of b and returns how many bytes it took.
func (q *ring) putLocked(b []byte) int {
	took := 0
	for len(b) > 0 && q.n < len(q.buf) {
		w := (q.r + q.n) % len(q.buf)
		end := len(q.buf)
		if w < q.r {
			end = q.r
		}
		m := copy(q.buf[w:end], b)
		b = b[m:]
		q.n += m
		took += m
	}
	return took
}

// writev lands a whole vector under one lock hold, blocking only while
// the buffer is full: the in-process analogue of one writev syscall.
func (q *ring) writev(bufs [][]byte) (int64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var total int64
	for _, b := range bufs {
		for len(b) > 0 {
			if q.closed {
				return total, io.ErrClosedPipe
			}
			m := q.putLocked(b)
			b = b[m:]
			total += int64(m)
			if m > 0 {
				q.cond.Broadcast()
			} else {
				q.cond.Wait()
			}
		}
	}
	return total, nil
}

func (q *ring) read(b []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		if q.closed {
			return 0, io.EOF
		}
		q.cond.Wait()
	}
	got := 0
	for len(b) > 0 && q.n > 0 {
		end := q.r + q.n
		if end > len(q.buf) {
			end = len(q.buf)
		}
		m := copy(b, q.buf[q.r:end])
		b = b[m:]
		q.r = (q.r + m) % len(q.buf)
		q.n -= m
		got += m
	}
	q.cond.Broadcast()
	return got, nil
}

// pipeEnd is one end of a buffered duplex in-process connection. It is a
// net.Conn and a hub.BuffersWriter, so the hub's zero-copy sender hands it
// each batch as one vectored write. Deadlines are accepted and ignored.
type pipeEnd struct {
	rd, wr *ring
}

func newPipe() (server, client *pipeEnd) {
	a, b := newRing(), newRing()
	return &pipeEnd{rd: a, wr: b}, &pipeEnd{rd: b, wr: a}
}

func (e *pipeEnd) Read(b []byte) (int, error) { return e.rd.read(b) }

func (e *pipeEnd) Write(b []byte) (int, error) {
	one := [1][]byte{b}
	n, err := e.wr.writev(one[:])
	return int(n), err
}

// WriteBuffers implements hub.BuffersWriter.
func (e *pipeEnd) WriteBuffers(bufs net.Buffers) (int64, error) { return e.wr.writev(bufs) }

// Close shuts both directions, failing the peer's pending reads and writes.
func (e *pipeEnd) Close() error {
	e.rd.close()
	e.wr.close()
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (e *pipeEnd) LocalAddr() net.Addr              { return pipeAddr{} }
func (e *pipeEnd) RemoteAddr() net.Addr             { return pipeAddr{} }
func (e *pipeEnd) SetDeadline(time.Time) error      { return nil }
func (e *pipeEnd) SetReadDeadline(time.Time) error  { return nil }
func (e *pipeEnd) SetWriteDeadline(time.Time) error { return nil }
