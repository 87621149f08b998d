package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dfdbm/internal/relation"
	"dfdbm/internal/wire"
)

// ClientConfig parameterizes Dial.
type ClientConfig struct {
	// Name identifies the client in server logs and spans.
	Name string
	// Timeout bounds the dial, the handshake, and each Query's network
	// waits. Default 30 seconds.
	Timeout time.Duration
	// MaxRetries, when positive, retries transient failures up to this
	// many times with jittered exponential backoff: overload rejections
	// (the admission scheduler shed the query before it ran, so a
	// resend is safe even for writes) and transient dial failures
	// (refused, timed out, or a session-limit rejection). 0 — the
	// default — disables retries.
	MaxRetries int
	// RetryBase is the first backoff step (default 50ms); step n sleeps
	// base*2^n scaled by a random factor in [0.5, 1.5), capped at 2s.
	RetryBase time.Duration
}

// retryDelay returns the jittered exponential backoff before retry
// attempt n (0-based).
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << uint(min(attempt, 16))
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transientDial reports whether a Dial failure is worth retrying:
// network-level errors (refused, unreachable, timeout) and the
// server's own "come back later" rejections. Version mismatches,
// protocol violations, and other handshake failures are permanent.
func transientDial(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code == wire.CodeOverloaded
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// overloaded reports whether err is the server shedding load.
func overloaded(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == wire.CodeOverloaded
}

// RemoteError is an error frame received from the server.
type RemoteError struct {
	// Code is wire.CodeOverloaded, CodeDraining, CodeParse, CodeExec,
	// CodeProtocol or CodeVersion.
	Code string
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("server: %s: %s", e.Code, e.Msg) }

// QueryResult is one answered query.
type QueryResult struct {
	Relation *relation.Relation
	Stats    *wire.Stats
}

// Client is one session against a dfdbm server. Its methods are safe
// for concurrent use; queries within a session are serialized, which
// is also the wire protocol's per-session ordering model.
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	br        *bufio.Reader
	cfg       ClientConfig
	engine    string // negotiated
	ver       uint16 // negotiated protocol version
	sessionID uint64 // server-assigned
	nextID    uint32
	traceSeq  uint64
	closed    bool
}

// Dial connects to a dfdbm server and performs the version handshake.
// With cfg.MaxRetries set, transient failures — refused connections,
// timeouts, session-limit rejections — are retried with jittered
// exponential backoff.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	c, err := dialOnce(addr, cfg)
	for attempt := 0; err != nil && attempt < cfg.MaxRetries && transientDial(err); attempt++ {
		time.Sleep(retryDelay(cfg.RetryBase, attempt))
		c, err = dialOnce(addr, cfg)
	}
	return c, err
}

func dialOnce(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), cfg: cfg}
	_ = conn.SetDeadline(time.Now().Add(cfg.Timeout))
	if err := wire.Write(conn, &wire.Hello{Min: wire.MinVersion, Max: wire.Version, Name: cfg.Name}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake write: %w", err)
	}
	f, err := wire.Read(c.br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake read: %w", err)
	}
	switch f := f.(type) {
	case *wire.Hello:
		if f.Min != f.Max || f.Max < wire.MinVersion || f.Max > wire.Version {
			conn.Close()
			return nil, fmt.Errorf("client: handshake: server picked protocol versions %d-%d, want one of %d-%d", f.Min, f.Max, wire.MinVersion, wire.Version)
		}
		c.engine, c.sessionID, c.ver = f.Engine, f.SessionID, f.Max
	case *wire.Error:
		conn.Close()
		return nil, &RemoteError{Code: f.Code, Msg: f.Msg}
	default:
		conn.Close()
		return nil, fmt.Errorf("client: handshake: unexpected %s frame", f.Type())
	}
	_ = conn.SetDeadline(time.Time{})
	return c, nil
}

// Engine returns the engine the server assigned to this session.
func (c *Client) Engine() string { return c.engine }

// ProtocolVersion returns the negotiated wire protocol version.
func (c *Client) ProtocolVersion() uint16 { return c.ver }

// SessionID returns the server-assigned session identifier.
func (c *Client) SessionID() uint64 { return c.sessionID }

// Close ends the session.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// Query sends one query and reassembles the streamed result. The
// returned relation is rebuilt from the server's pages byte-for-byte.
// Server-side failures (overload, drain, parse, execution) come back
// as *RemoteError with the wire code preserved.
func (c *Client) Query(ctx context.Context, text string) (*QueryResult, error) {
	return c.QueryPriority(ctx, text, 1)
}

// QueryPriority is Query with an explicit admission priority
// (0 = high, 1 = normal, 2+ = low). With cfg.MaxRetries set, overload
// rejections are retried with jittered exponential backoff: the
// scheduler shed the query at admission, before any execution, so the
// resend cannot double-apply a write.
func (c *Client) QueryPriority(ctx context.Context, text string, priority uint8) (*QueryResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.queryLocked(ctx, text, priority)
	for attempt := 0; err != nil && attempt < c.cfg.MaxRetries && overloaded(err); attempt++ {
		if serr := sleepCtx(ctx, retryDelay(c.cfg.RetryBase, attempt)); serr != nil {
			return nil, serr
		}
		res, err = c.queryLocked(ctx, text, priority)
	}
	return res, err
}

// queryLocked performs one query exchange; c.mu must be held.
func (c *Client) queryLocked(ctx context.Context, text string, priority uint8) (*QueryResult, error) {
	if c.closed {
		return nil, fmt.Errorf("client: session closed")
	}
	id := c.nextID
	c.nextID++
	// Propose the end-to-end trace ID: the server-assigned session ID
	// in the high half keeps IDs from distinct sessions disjoint, so the
	// server can adopt ours verbatim.
	c.traceSeq++
	traceID := c.sessionID<<32 | c.traceSeq&0xFFFFFFFF

	// Let ctx cancellation tear the connection's deadlines down.
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(dl)
	} else {
		_ = c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	}
	stop := context.AfterFunc(ctx, func() {
		_ = c.conn.SetDeadline(time.Now()) // unblock reads/writes
	})
	defer stop()

	if err := wire.Write(c.conn, &wire.Query{ID: id, Priority: priority, Text: text, TraceID: traceID}); err != nil {
		return nil, fmt.Errorf("client: send query: %w", err)
	}

	var rel *relation.Relation
	var wantSeq uint32
	for {
		f, err := wire.Read(c.br)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("client: read result: %w", err)
		}
		switch f := f.(type) {
		case *wire.Error:
			return nil, &RemoteError{Code: f.Code, Msg: f.Msg}
		case *wire.ResultPage:
			if f.QueryID != id || f.Seq != wantSeq {
				return nil, fmt.Errorf("client: result stream out of order (query %d seq %d, want %d/%d)", f.QueryID, f.Seq, id, wantSeq)
			}
			wantSeq++
			if f.Seq == 0 {
				attrs := make([]relation.Attr, len(f.Schema))
				for i, a := range f.Schema {
					attrs[i] = relation.Attr{Name: a.Name, Type: relation.Type(a.Type), Width: int(a.Width)}
				}
				schema, err := relation.NewSchema(attrs...)
				if err != nil {
					return nil, fmt.Errorf("client: result schema: %w", err)
				}
				rel, err = relation.New(f.Name, schema, int(f.PageSize))
				if err != nil {
					return nil, fmt.Errorf("client: result relation: %w", err)
				}
			}
			if len(f.Page) > 0 {
				pg, err := relation.UnmarshalPage(f.Page)
				if err != nil {
					return nil, fmt.Errorf("client: result page %d: %w", f.Seq, err)
				}
				if err := rel.AppendPage(pg); err != nil {
					return nil, fmt.Errorf("client: result page %d: %w", f.Seq, err)
				}
			}
		case *wire.Stats:
			if f.QueryID != id {
				return nil, fmt.Errorf("client: stats for query %d, want %d", f.QueryID, id)
			}
			_ = c.conn.SetDeadline(time.Time{})
			return &QueryResult{Relation: rel, Stats: f}, nil
		default:
			return nil, fmt.Errorf("client: unexpected %s frame", f.Type())
		}
	}
}
