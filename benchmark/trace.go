package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names. An op span covers one query from the instant before its
// frame is written to the instant its Stats frame is read; its
// children are the layer boundaries visible from outside the program.
const (
	spanOp         = "op"
	spanSend       = "client.send"
	spanAdmitWait  = "sched.admit_wait"
	spanDispatch   = "sched.dispatch"
	spanExec       = "server.exec"
	spanStream     = "server.stream"
	spanRecvDecode = "client.recv_decode"
)

// span is one traced interval. Spans of one op share Op; Parent is 0
// for the op span itself. Times are nanoseconds since the run's epoch.
type span struct {
	ID     uint64
	Parent uint64
	Op     uint64
	Name   string
	Start  int64
	End    int64
	// Set on op spans only.
	Text     string
	Class    opClass
	Bytes    int64
	Deferred bool
	TTFP     int64 // ns from Start to the first decoded page
}

func (s span) dur() int64 { return s.End - s.Start }

// spansPerOp is the op span plus its six children.
const spansPerOp = 7

// appendOpSpans records one answered query. client.send and
// client.recv_decode are measured on the session's clock. The server's
// four stages arrive as durations in the Stats frame, measured on the
// server's clock inside the same process; they are laid back to back
// from the end of client.send, which is when the server could first
// have seen the query. What the children do not cover — frame parsing
// and job submission before admission, goroutine hand-offs between
// stages, loopback delivery — is the op's self time, reported as
// bench.span_gap_ratio.
func appendOpSpans(buf []span, epoch time.Time, opID uint64, o op, r *reply) []span {
	t0 := r.sent.Sub(epoch).Nanoseconds()
	root := span{ID: opID * 8, Op: opID, Name: spanOp, Start: t0, End: t0 + int64(r.rtt),
		Text: o.text, Class: o.class, Bytes: r.stats.ResultBytes, Deferred: r.stats.Deferred, TTFP: int64(r.ttfp)}
	buf = append(buf, root)
	at := t0
	child := func(k uint64, name string, d time.Duration) {
		buf = append(buf, span{ID: root.ID + k, Parent: root.ID, Op: opID, Name: name, Start: at, End: at + int64(d)})
		at += int64(d)
	}
	child(1, spanSend, r.wrote)
	child(2, spanAdmitWait, r.stats.AdmitWait)
	child(3, spanDispatch, r.stats.Sched)
	child(4, spanExec, r.stats.Exec)
	child(5, spanStream, r.stats.Stream)
	at = t0 + int64(r.firstByte)
	child(6, spanRecvDecode, r.rtt-r.firstByte)
	return buf
}

// selfTime is a span's duration minus the part of its interval that
// its children cover; overlapping children are counted once.
func selfTime(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered int64
	end := parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// opTrace is one op's spans, looked up by name.
type opTrace struct {
	root span
	kids []span
}

func (t opTrace) child(name string) span {
	for _, k := range t.kids {
		if k.Name == name {
			return k
		}
	}
	return span{}
}

// eachOp groups a session's span log back into ops.
func eachOp(spans []span, fn func(opTrace)) {
	for i := 0; i+spansPerOp <= len(spans); i += spansPerOp {
		fn(opTrace{root: spans[i], kids: spans[i+1 : i+spansPerOp]})
	}
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, logs ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, log := range logs {
		for _, s := range log {
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d`,
				s.ID, s.Parent, s.Op, s.Name, s.Start, s.End)
			if s.Parent == 0 {
				fmt.Fprintf(w, `,"text":%q,"bytes":%d,"deferred":%t,"ttfp_ns":%d`, s.Text, s.Bytes, s.Deferred, s.TTFP)
			}
			w.WriteString("}\n")
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
