package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/format"
	"repro/internal/fs"
	"repro/internal/storage"
)

type dirEntry = format.DirEntry

// Span names. A root span is the op at the Session boundary
// (locus.<kind>); its children are the fs public calls the op is made
// of and the Quiesce that drains the network after it. A Settle tick
// is a root span of its own, belonging to no op.
const (
	spanOpen = uint8(numKinds) + iota
	spanCreate
	spanRead
	spanWrite
	spanClose
	spanStat
	spanReaddir
	spanUnlink
	spanRename
	spanDrain
	spanSettle
	numSpanNames
)

var spanNames = [numSpanNames]string{
	opRead: "locus.read", opWrite: "locus.write", opBuild: "locus.build",
	opStat: "locus.stat", opReaddir: "locus.readdir",
	spanOpen: "fs.open", spanCreate: "fs.create", spanRead: "fs.read", spanWrite: "fs.write",
	spanClose: "fs.close", spanStat: "fs.stat", spanReaddir: "fs.readdir",
	spanUnlink: "fs.unlink", spanRename: "fs.rename",
	spanDrain: "netsim.drain", spanSettle: "fs.settle",
}

// span is one timed interval. Its id is its index in the trace; op is
// the script index it belongs to (-1 for a Settle tick), parent the id
// of the span that caused it (-1 for a root).
type span struct {
	op, parent int32
	name       uint8
	start, end int64 // ns since the pass began
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in a preallocated slice; nothing is written out
// until the pass is over.
type tracer struct {
	t0    time.Time
	spans []span
	roots []int32 // op -> id of its root span
}

// spanWidth is the most spans one op of each kind records: the root,
// its fs calls (a write may fail to open and create instead) and the
// drain.
var spanWidth = [numKinds]int{opRead: 5, opWrite: 6, opBuild: 8, opStat: 3, opReaddir: 3}

func newTracer(script []op, settles int) *tracer {
	n := settles
	for i := range script {
		n += spanWidth[script[i].kind]
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, n), roots: make([]int32, len(script))}
}

func (t *tracer) begin(op, parent int32, name uint8) int32 {
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = int64(time.Since(t.t0)) }

// add records a span that was timed by the caller.
func (t *tracer) add(op, parent int32, name uint8, start time.Time, durNs int64) {
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: s, end: s + durNs})
}

// doTraced issues one op as the same fs calls Session.ReadFile and
// Session.WriteFile make (locus/session.go), each under its own span,
// and takes the per-op counter deltas.
func (e *env) doTraced(t *tracer, p *pass, i int, o *op) bool {
	s0 := e.c.Stats()
	c0 := e.nw.CostUs()
	root := t.begin(int32(i), -1, uint8(o.kind))
	t.roots[i] = root
	res, err := e.tracedCalls(t, root, o)
	d := t.begin(int32(i), root, spanDrain)
	e.nw.Quiesce()
	t.end(d)
	t.end(root)
	p.opWallNs[i] = t.spans[root].dur()
	p.opSimUs[i] = e.nw.CostUs() - c0
	p.opMsgs[i] = e.c.Stats().Msgs - s0.Msgs
	return err == nil && e.check(o, res)
}

func (e *env) tracedCalls(t *tracer, root int32, o *op) (opResult, error) {
	s := e.sess[o.sess]
	call := func(name uint8, f func() error) error {
		id := t.begin(t.spans[root].op, root, name)
		err := f()
		t.end(id)
		return err
	}
	writeFile := func(path string, data []byte) error {
		var f *fs.File
		err := call(spanOpen, func() (err error) { f, err = s.Open(path, fs.ModeModify); return })
		if err != nil {
			err = call(spanCreate, func() (err error) { f, err = s.Create(path, storage.TypeRegular); return })
			if err != nil {
				return err
			}
		}
		if err := call(spanWrite, func() error { return f.WriteAll(data) }); err != nil {
			_ = call(spanClose, f.Close) // abandoning after a failed write, as Session.WriteFile does
			return err
		}
		return call(spanClose, f.Close)
	}
	switch o.kind {
	case opRead:
		var f *fs.File
		err := call(spanOpen, func() (err error) { f, err = s.Open(e.paths[o.file], fs.ModeRead); return })
		if err != nil {
			return opResult{}, err
		}
		var data []byte
		err = call(spanRead, func() (err error) { data, err = f.ReadAll(); return })
		_ = call(spanClose, f.Close) // read-only handle: Session.ReadFile drops this error too
		return opResult{data: data}, err
	case opWrite:
		return opResult{}, writeFile(e.paths[o.file], e.payload(o.fill))
	case opBuild:
		tmp, target := e.tmps[o.sess], e.paths[o.file]
		if err := writeFile(tmp, e.payload(o.fill)); err != nil {
			return opResult{}, err
		}
		if err := call(spanUnlink, func() error { return s.Unlink(target) }); err != nil {
			return opResult{}, err
		}
		return opResult{}, call(spanRename, func() error { return s.Rename(tmp, target) })
	case opStat:
		var ino *storage.Inode
		err := call(spanStat, func() (err error) { ino, err = s.Stat(e.paths[o.file]); return })
		if err != nil {
			return opResult{}, err
		}
		return opResult{size: ino.Size}, nil
	default:
		var ents []dirEntry
		err := call(spanReaddir, func() (err error) { ents, err = s.ReadDir(dirPath); return })
		return opResult{ents: ents}, err
	}
}

// selfTimes returns, per span, its duration minus the part its child
// spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// checkTree verifies the trace is well formed: exactly one root per op,
// every child recorded after its parent, belonging to the same op and
// lying inside its parent's interval.
func checkTree(spans []span, ops int) error {
	roots := make([]int, ops)
	for i := range spans {
		s := &spans[i]
		if s.end < s.start {
			return fmt.Errorf("span %d ends before it starts", i)
		}
		if s.parent < 0 {
			if s.op >= 0 {
				roots[s.op]++
			}
			continue
		}
		if int(s.parent) >= i {
			return fmt.Errorf("span %d recorded before its parent %d", i, s.parent)
		}
		p := &spans[s.parent]
		if p.op != s.op {
			return fmt.Errorf("span %d of op %d has parent of op %d", i, s.op, p.op)
		}
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d [%d,%d] outside parent %d [%d,%d]", i, s.start, s.end, s.parent, p.start, p.end)
		}
	}
	for op, n := range roots {
		if n != 1 {
			return fmt.Errorf("op %d has %d root spans", op, n)
		}
	}
	return nil
}

// writeTrace writes one JSON object per span.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for i := range spans {
		s := &spans[i]
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"op":`...)
		b = strconv.AppendInt(b, int64(s.op), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.name]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		w.Write(b) // a failed write surfaces in Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
