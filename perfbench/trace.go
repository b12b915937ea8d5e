package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Each is recorded by the benchmark around one call into a
// layer's public API; a span's parent is the span that was open around it.
const (
	spTxn         = iota // one unit of closed-loop work (hint plus Run)
	spHint               // txengine.HintKeys
	spRun                // txengine.Tx.Run / RunRead
	spOp                 // one Map operation inside Run
	spClientGet          // server.Conn send to matching Recv, OpGet
	spClientWrite        // server.Conn send to matching Recv, OpPut / OpTxn
	spRungGet            // in-process Get on the serving engine
	spRungWrite          // in-process Put / transfer on the serving engine
	numSpans
)

var spanNames = [numSpans]string{"txn", "hint", "run", "op", "client.get", "client.write", "rung.get", "rung.write"}

// traceSample is the sampling period of traced work: one unit in this many
// is traced, which keeps the in-memory span buffers small on long runs.
const traceSample = 8

// maxSpans bounds one recorder's buffer; spans past it are dropped.
const maxSpans = 1 << 18

// epoch is the zero of every span timestamp.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

type span struct {
	trace      uint64
	parent     int32 // index in the recorder's buffer; -1 for a root span
	name       uint8
	start, end int64
}

// recorder holds one goroutine's spans in memory. A nil *recorder records
// nothing, so untraced code paths pass nil.
type recorder struct {
	spans []span
	trace uint64
}

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1024)} }

// newTrace starts a new trace id for the next root span.
func (r *recorder) newTrace() {
	if r != nil {
		r.trace++
	}
}

// begin opens a span and returns its handle (-1 when not recorded).
func (r *recorder) begin(name int, parent int32) int32 {
	if r == nil || len(r.spans) >= maxSpans {
		return -1
	}
	r.spans = append(r.spans, span{trace: r.trace, parent: parent, name: uint8(name), start: now()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].end = now()
	}
}

// add records an already timed span.
func (r *recorder) add(name int, start, end int64) {
	if r == nil || len(r.spans) >= maxSpans {
		return
	}
	r.trace++
	r.spans = append(r.spans, span{trace: r.trace, parent: -1, name: uint8(name), start: start, end: end})
}

// layerTimes collects the self time of every span by name: its duration
// minus the part of it that its child spans cover.
type layerTimes struct {
	self [numSpans][]float64
}

func selfTimes(recs []*recorder) *layerTimes {
	lt := &layerTimes{}
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			lt.self[s.name] = append(lt.self[s.name], float64(s.end-s.start-child[i]))
		}
	}
	return lt
}

// selfNs is the median self time of spans named name, in nanoseconds; the
// median keeps a rare preempted span from swamping the layer's figure.
func (lt *layerTimes) selfNs(name int) float64 { return median(lt.self[name]) }

// writeSpans dumps every recorder's spans as tab-separated lines:
// recorder, trace, index, parent, name, start_ns, end_ns.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "recorder\ttrace\tspan\tparent\tname\tstart_ns\tend_ns")
	for ri, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", ri, s.trace, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
