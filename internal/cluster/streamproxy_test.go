package cluster

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// TestStreamProxyIdleReap: a client connection to the router's stream
// listener that sends no frame is closed once the idle timeout passes,
// releasing its goroutines and socket — the router-side counterpart of
// the replica's TestStreamIdleReap. The client is a raw socket that
// blocks in Read, so the reap shows up as the server hanging up; no
// accept-versus-reap ordering has to be observed.
func TestStreamProxyIdleReap(t *testing.T) {
	rt := newBareRouter(Options{})
	addr, err := rt.startStream("127.0.0.1:0", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sp := rt.streamSrv
	t.Cleanup(sp.close)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle connection not reaped: read returned %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		sp.mu.Lock()
		open := len(sp.conns)
		sp.mu.Unlock()
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d reaped connections still registered", open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
