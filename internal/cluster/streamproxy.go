package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/stream"
)

// streamWriteTimeout bounds one outbound write burst on the router's
// stream surface, and streamIdleTimeout reaps client connections that
// send no frame for that long (idle or half-open peers), both
// mirroring the replica stream server's defaults.
const (
	streamWriteTimeout = 30 * time.Second
	streamIdleTimeout  = 5 * time.Minute
)

// streamProxy is the router's streaming listener: it speaks the same
// framed protocol as a replica's stream server, but each estimate
// frame is routed by schema and forwarded over the replica pools, so
// a streaming client gets fleet routing without a protocol change.
type streamProxy struct {
	rt   *Router
	ln   net.Listener
	idle time.Duration

	mu     sync.Mutex
	conns  map[*proxyConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// StartStream starts the router's stream listener on addr
// (host:port, empty host for all interfaces) and returns the bound
// address.
func (rt *Router) StartStream(addr string) (string, error) {
	return rt.startStream(addr, streamIdleTimeout)
}

// startStream is StartStream with an explicit idle bound, so a test
// can watch a reap without waiting minutes.
func (rt *Router) startStream(addr string, idle time.Duration) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	sp := &streamProxy{rt: rt, ln: ln, idle: idle, conns: make(map[*proxyConn]struct{})}
	rt.streamSrv = sp
	sp.wg.Add(1)
	go sp.acceptLoop()
	return ln.Addr().String(), nil
}

// StreamAddr returns the stream listener's bound address, "" before
// StartStream.
func (rt *Router) StreamAddr() string {
	if rt.streamSrv == nil {
		return ""
	}
	return rt.streamSrv.ln.Addr().String()
}

func (sp *streamProxy) close() {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return
	}
	sp.closed = true
	conns := make([]*proxyConn, 0, len(sp.conns))
	for c := range sp.conns {
		conns = append(conns, c)
	}
	sp.mu.Unlock()
	sp.ln.Close()
	for _, c := range conns {
		c.shutdown()
	}
	sp.wg.Wait()
}

func (sp *streamProxy) acceptLoop() {
	defer sp.wg.Done()
	for {
		nc, err := sp.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &proxyConn{
			sp:   sp,
			c:    nc,
			br:   bufio.NewReader(nc),
			out:  make(chan []byte, 256),
			done: make(chan struct{}),
		}
		if host, _, err := net.SplitHostPort(nc.RemoteAddr().String()); err == nil {
			c.client = host
		} else {
			c.client = nc.RemoteAddr().String()
		}
		sp.mu.Lock()
		if sp.closed {
			sp.mu.Unlock()
			nc.Close()
			return
		}
		sp.conns[c] = struct{}{}
		sp.mu.Unlock()
		sp.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// proxyConn is one accepted streaming connection: a read loop spawning
// one forwarding goroutine per estimate frame (bounded by the
// router's admission counters) and a writer draining the outbound
// queue, same shape as the replica's server side.
type proxyConn struct {
	sp     *streamProxy
	c      net.Conn
	br     *bufio.Reader
	out    chan []byte
	done   chan struct{}
	once   sync.Once
	client string // admission key: the remote host
}

func (c *proxyConn) shutdown() {
	c.once.Do(func() {
		close(c.done)
		c.c.Close()
		c.sp.mu.Lock()
		delete(c.sp.conns, c)
		c.sp.mu.Unlock()
	})
}

func (c *proxyConn) readLoop() {
	defer c.sp.wg.Done()
	defer c.shutdown()
	idle := stream.IdleDeadline{Conn: c.c, Timeout: c.sp.idle}
	for {
		idle.Arm()
		f, err := stream.ReadFrame(c.br)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.sp.rt.logger.Debug("stream proxy: connection read failed",
					"remote", c.c.RemoteAddr().String(), "error", err)
			}
			return
		}
		if f.Type != stream.FrameEstimate {
			c.sp.rt.logger.Warn("stream proxy: unexpected frame type from client",
				"type", int(f.Type))
			return
		}
		release, ok := c.sp.rt.admit(c.client)
		if !ok {
			c.sendError(f.Seq, errShed.msg, errShed.code)
			continue
		}
		// Forward concurrently: streams pipeline, and a frame parked on
		// a slow replica must not stall the frames behind it.
		c.sp.wg.Add(1)
		go func(f *stream.Frame) {
			defer c.sp.wg.Done()
			defer release()
			c.forward(f)
		}(f)
	}
}

func (c *proxyConn) forward(f *stream.Frame) {
	schema := peekSchema(f.Body)
	resp, rerr := c.sp.rt.estimate(context.Background(), schema, f.Body)
	if rerr != nil {
		c.sendError(f.Seq, rerr.msg, rerr.code)
		return
	}
	buf, err := stream.AppendFrame(nil, &stream.Frame{Type: stream.FrameResponse, Seq: f.Seq, Body: resp})
	if err != nil {
		c.sendError(f.Seq, "frame response: "+err.Error(), "internal")
		return
	}
	c.send(buf)
}

func (c *proxyConn) sendError(seq uint64, msg, code string) {
	body, err := json.Marshal(stream.Error{Message: msg, Code: code})
	if err != nil {
		return
	}
	buf, err := stream.AppendFrame(nil, &stream.Frame{Type: stream.FrameError, Seq: seq, Body: body})
	if err != nil {
		return
	}
	c.send(buf)
}

func (c *proxyConn) send(buf []byte) {
	select {
	case c.out <- buf:
	case <-c.done:
	}
}

func (c *proxyConn) writeLoop() {
	defer c.sp.wg.Done()
	defer c.shutdown()
	for {
		select {
		case buf := <-c.out:
			bufs := net.Buffers{buf}
			for len(bufs) < 64 {
				select {
				case more := <-c.out:
					bufs = append(bufs, more)
					continue
				default:
				}
				break
			}
			_ = c.c.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			if _, err := bufs.WriteTo(c.c); err != nil {
				return
			}
		case <-c.done:
			return
		}
	}
}
