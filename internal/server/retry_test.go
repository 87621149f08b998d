package server

import (
	"bufio"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dfdbm/internal/wire"
)

// stubServer speaks just enough of the wire protocol to script
// overload rejections: each accepted session handshakes, then answers
// the first rejectQueries queries with CodeOverloaded and every later
// one with a bare Stats frame. rejectDials sessions are refused with
// a dialCode Error instead of a Hello.
type stubServer struct {
	ln            net.Listener
	dials         atomic.Int64
	queries       atomic.Int64
	rejectDials   int64
	rejectQueries int64
	dialCode      string
}

func startStub(t *testing.T, rejectDials, rejectQueries int64) *stubServer {
	t.Helper()
	return serveStub(t, &stubServer{rejectDials: rejectDials, rejectQueries: rejectQueries, dialCode: wire.CodeOverloaded})
}

func serveStub(t *testing.T, st *stubServer) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st.ln = ln
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go st.session(conn)
		}
	}()
	return st
}

func (st *stubServer) session(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	f, err := wire.Read(br)
	if err != nil {
		return
	}
	h, ok := f.(*wire.Hello)
	if !ok {
		return
	}
	if st.dials.Add(1) <= st.rejectDials {
		_ = wire.WriteVersion(conn, &wire.Error{QueryID: wire.SessionQueryID,
			Code: st.dialCode, Msg: "session refused"}, h.Max)
		return
	}
	if err := wire.WriteVersion(conn, &wire.Hello{Min: h.Max, Max: h.Max, Engine: EngineCore, SessionID: 7}, h.Max); err != nil {
		return
	}
	for {
		f, err := wire.ReadVersion(br, h.Max)
		if err != nil {
			return
		}
		q, ok := f.(*wire.Query)
		if !ok {
			return
		}
		if st.queries.Add(1) <= st.rejectQueries {
			_ = wire.WriteVersion(conn, &wire.Error{QueryID: q.ID,
				Code: wire.CodeOverloaded, Msg: "queue full"}, h.Max)
			continue
		}
		_ = wire.WriteVersion(conn, &wire.Stats{QueryID: q.ID, Engine: EngineCore}, h.Max)
	}
}

// TestQueryRetriesOverload: two overload rejections, then success —
// within the retry budget, the caller never sees the shed attempts.
func TestQueryRetriesOverload(t *testing.T) {
	st := startStub(t, 0, 2)
	c, err := Dial(st.ln.Addr().String(), ClientConfig{MaxRetries: 3, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(context.Background(), `restrict(r1, val < 10)`); err != nil {
		t.Fatalf("query failed despite retry budget: %v", err)
	}
	if n := st.queries.Load(); n != 3 {
		t.Fatalf("server saw %d query attempts, want 3", n)
	}
}

// TestQueryRetryDisabledByDefault: without MaxRetries the first
// overload rejection surfaces immediately.
func TestQueryRetryDisabledByDefault(t *testing.T) {
	st := startStub(t, 0, 1)
	c, err := Dial(st.ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(context.Background(), `restrict(r1, val < 10)`)
	if !overloaded(err) {
		t.Fatalf("got %v, want an overloaded RemoteError", err)
	}
	if n := st.queries.Load(); n != 1 {
		t.Fatalf("server saw %d query attempts, want 1 (retries disabled)", n)
	}
}

// TestQueryRetryBudgetExhausted: more rejections than retries — the
// final overload error comes back after exactly 1+MaxRetries attempts.
func TestQueryRetryBudgetExhausted(t *testing.T) {
	st := startStub(t, 0, 100)
	c, err := Dial(st.ln.Addr().String(), ClientConfig{MaxRetries: 2, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(context.Background(), `restrict(r1, val < 10)`)
	if !overloaded(err) {
		t.Fatalf("got %v, want an overloaded RemoteError", err)
	}
	if n := st.queries.Load(); n != 3 {
		t.Fatalf("server saw %d query attempts, want 3", n)
	}
}

// TestQueryRetryHonorsContext: with the context already cancelled, the
// backoff sleep aborts instead of burning the budget.
func TestQueryRetryHonorsContext(t *testing.T) {
	st := startStub(t, 0, 100)
	c, err := Dial(st.ln.Addr().String(), ClientConfig{MaxRetries: 50, RetryBase: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Query(ctx, `restrict(r1, val < 10)`)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled retry slept through its backoff")
	}
}

// TestDialRetriesSessionLimit: the server refuses the first two
// sessions as overloaded; the third dial attempt lands.
func TestDialRetriesSessionLimit(t *testing.T) {
	st := startStub(t, 2, 0)
	c, err := Dial(st.ln.Addr().String(), ClientConfig{MaxRetries: 3, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatalf("dial failed despite retry budget: %v", err)
	}
	defer c.Close()
	if n := st.dials.Load(); n != 3 {
		t.Fatalf("server saw %d dial attempts, want 3", n)
	}
}

// TestDialRetriesRefusedConnection: nothing listens at first; the
// listener appears while the client backs off.
func TestDialRetriesRefusedConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port: dials now get connection refused

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial below will just fail
		}
		defer ln2.Close()
		conn, err := ln2.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		f, err := wire.Read(br)
		if err != nil {
			return
		}
		h := f.(*wire.Hello)
		_ = wire.WriteVersion(conn, &wire.Hello{Min: h.Max, Max: h.Max, Engine: EngineCore, SessionID: 1}, h.Max)
	}()

	c, err := Dial(addr, ClientConfig{MaxRetries: 20, RetryBase: 20 * time.Millisecond})
	if err != nil {
		t.Skipf("port was not reacquired in time: %v", err)
	}
	c.Close()
	<-done
}

// TestDialPermanentErrorNotRetried: a protocol rejection of the
// handshake is not transient — the first attempt is the only one.
func TestDialPermanentErrorNotRetried(t *testing.T) {
	st := serveStub(t, &stubServer{rejectDials: 100, dialCode: wire.CodeProtocol})
	_, err := Dial(st.ln.Addr().String(), ClientConfig{MaxRetries: 5, RetryBase: time.Millisecond})
	if err == nil {
		t.Fatal("dial refused by the server succeeded")
	}
	if transientDial(err) {
		t.Fatalf("classified %v as transient", err)
	}
	if n := st.dials.Load(); n != 1 {
		t.Fatalf("server saw %d dial attempts, want 1", n)
	}
}
