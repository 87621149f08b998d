package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"dfdbm/internal/relation"
	"dfdbm/internal/wire"
)

// session is the benchmark's own client session. It speaks the wire
// protocol directly and decodes result pages exactly as server.Client
// does (relation.UnmarshalPage + AppendPage), so one loop yields the
// round trip and the time to the first page of every op — which the
// public client does not expose.
type session struct {
	conn   net.Conn
	br     *bufio.Reader
	ver    uint16
	id     uint64 // server-assigned session ID
	nextID uint32
	seq    uint64
}

const sessionTimeout = 60 * time.Second

func dialSession(addr, name string) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, sessionTimeout)
	if err != nil {
		return nil, err
	}
	s := &session{conn: conn, br: bufio.NewReader(conn), ver: wire.Version}
	_ = conn.SetDeadline(time.Now().Add(sessionTimeout))
	if err := wire.WriteVersion(conn, &wire.Hello{Min: wire.MinVersion, Max: wire.Version, Name: name}, wire.Version); err != nil {
		conn.Close()
		return nil, fmt.Errorf("session: handshake write: %w", err)
	}
	f, err := wire.ReadVersion(s.br, wire.Version)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("session: handshake read: %w", err)
	}
	switch f := f.(type) {
	case *wire.Hello:
		if f.Min != f.Max || f.Max < wire.MinVersion || f.Max > wire.Version {
			conn.Close()
			return nil, fmt.Errorf("session: server offered versions %d-%d", f.Min, f.Max)
		}
		s.ver = f.Max
		s.id = f.SessionID
	case *wire.Error:
		conn.Close()
		return nil, fmt.Errorf("session: handshake refused: %s: %s", f.Code, f.Msg)
	default:
		conn.Close()
		return nil, fmt.Errorf("session: handshake: unexpected %s frame", f.Type())
	}
	_ = conn.SetDeadline(time.Time{})
	return s, nil
}

func (s *session) close() { s.conn.Close() }

// reply is one answered query as the session saw it. Times are
// offsets from sent, the instant before the Query frame was written.
type reply struct {
	sent time.Time
	// wrote is when the Query frame had left; firstByte when the first
	// byte of the answer was readable. Both are taken only when the
	// session is asked for the detail a span needs.
	wrote     time.Duration
	firstByte time.Duration
	// ttfp is when the first ResultPage frame had been decoded into a
	// page; rtt when the closing Stats frame had been read.
	ttfp  time.Duration
	rtt   time.Duration
	stats *wire.Stats
	rel   *relation.Relation
}

// query runs one query to completion. detail adds the two timestamps
// only spans use.
func (s *session) query(text string, detail bool) (*reply, error) {
	id := s.nextID
	s.nextID++
	s.seq++
	_ = s.conn.SetDeadline(time.Now().Add(sessionTimeout))
	q := &wire.Query{ID: id, Priority: 1, Text: text, TraceID: s.id<<32 | s.seq&0xFFFFFFFF}

	r := &reply{sent: time.Now()}
	if err := wire.WriteVersion(s.conn, q, s.ver); err != nil {
		return nil, fmt.Errorf("session: send query: %w", err)
	}
	if detail {
		r.wrote = time.Since(r.sent)
		if _, err := s.br.Peek(1); err != nil {
			return nil, fmt.Errorf("session: read result: %w", err)
		}
		r.firstByte = time.Since(r.sent)
	}
	var wantSeq uint32
	for {
		f, err := wire.ReadVersion(s.br, s.ver)
		if err != nil {
			return nil, fmt.Errorf("session: read result: %w", err)
		}
		switch f := f.(type) {
		case *wire.Error:
			return nil, fmt.Errorf("session: server error: %s: %s", f.Code, f.Msg)
		case *wire.ResultPage:
			if f.QueryID != id || f.Seq != wantSeq {
				return nil, fmt.Errorf("session: result stream out of order (query %d seq %d, want %d/%d)", f.QueryID, f.Seq, id, wantSeq)
			}
			wantSeq++
			if f.Seq == 0 {
				attrs := make([]relation.Attr, len(f.Schema))
				for i, a := range f.Schema {
					attrs[i] = relation.Attr{Name: a.Name, Type: relation.Type(a.Type), Width: int(a.Width)}
				}
				schema, err := relation.NewSchema(attrs...)
				if err != nil {
					return nil, fmt.Errorf("session: result schema: %w", err)
				}
				r.rel, err = relation.New(f.Name, schema, int(f.PageSize))
				if err != nil {
					return nil, fmt.Errorf("session: result relation: %w", err)
				}
			}
			if len(f.Page) > 0 {
				pg, err := relation.UnmarshalPage(f.Page)
				if err != nil {
					return nil, fmt.Errorf("session: result page %d: %w", f.Seq, err)
				}
				if err := r.rel.AppendPage(pg); err != nil {
					return nil, fmt.Errorf("session: result page %d: %w", f.Seq, err)
				}
			}
			if f.Seq == 0 {
				r.ttfp = time.Since(r.sent)
			}
		case *wire.Stats:
			if f.QueryID != id {
				return nil, fmt.Errorf("session: stats for query %d, want %d", f.QueryID, id)
			}
			r.rtt = time.Since(r.sent)
			r.stats = f
			_ = s.conn.SetDeadline(time.Time{})
			return r, nil
		default:
			return nil, fmt.Errorf("session: unexpected %s frame", f.Type())
		}
	}
}
