package proc

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Named pipes with network-wide Unix semantics (§2.4.2): the pipe is
// named in the catalog (a TypePipe file created with Mkfifo); its byte
// stream lives at a server site — the lowest pack site of the pipe's
// filegroup in the partition — and readers/writers anywhere in the
// network exchange data through it with the same semantics as on a
// single machine. The server tracks which site each endpoint lives on
// so a partition or crash tears the endpoint down per the §5.6
// failure-action table: losing the last writer's site delivers EOF to
// readers (never a hang); losing the last reader's site breaks the pipe
// for writers (ErrPipeBroken, the network EPIPE).

// pipeState is the server-site buffer for one pipe.
type pipeState struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	// writerSites/readerSites count open endpoints per site so a lost
	// site retires exactly its own endpoints.
	writerSites map[SiteID]int
	readerSites map[SiteID]int
	writers     int
	readers     int
	// everReaders distinguishes "no reader yet" (writers may buffer
	// ahead) from "all readers gone" (pipe broken).
	everReaders bool
	// closed: all writers gone — drained reads return EOF.
	closed bool
	// broken: all readers gone — writes fail with ErrPipeBroken.
	broken bool
	// poisoned: the server site itself crashed and lost the buffer.
	poisoned bool
}

func newPipeState() *pipeState {
	ps := &pipeState{
		writerSites: make(map[SiteID]int),
		readerSites: make(map[SiteID]int),
	}
	ps.cond = sync.NewCond(&ps.mu)
	return ps
}

// dropSites retires every endpoint whose site left the partition
// (server side of the §5.6 pipe rows). Returns the number of endpoint
// registrations torn down. self is the server's own site, always kept.
func (ps *pipeState) dropSites(in map[SiteID]bool, self SiteID) int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	torn := 0
	for s, n := range ps.writerSites {
		if s != self && !in[s] {
			delete(ps.writerSites, s)
			ps.writers -= n
			torn += n
		}
	}
	for s, n := range ps.readerSites {
		if s != self && !in[s] {
			delete(ps.readerSites, s)
			ps.readers -= n
			torn += n
		}
	}
	if torn == 0 {
		return 0
	}
	if ps.writers <= 0 {
		ps.writers = 0
		ps.closed = true
	}
	if ps.readers <= 0 && ps.everReaders {
		ps.readers = 0
		ps.broken = true
	}
	ps.cond.Broadcast()
	return torn
}

// poison marks the buffer as lost with the server's crash; every
// blocked or future operation fails over to the catalog's surviving
// semantics (readers: EOF; writers: error).
func (ps *pipeState) poison() {
	ps.mu.Lock()
	ps.poisoned = true
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// PipeEnd is a process's handle on a named pipe.
type PipeEnd struct {
	m      *Manager
	id     storage.FileID
	server SiteID
	write  bool
	closed bool
}

// Server returns the site hosting the pipe's byte stream.
func (pe *PipeEnd) Server() SiteID { return pe.server }

// The pipe protocol, served at the pipe's server site. Every exchange
// changes the stream or its endpoint registry (a read consumes buffered
// bytes), so all are at-most-once.
var (
	mPipeOpen  = netsim.Method[pipeOpenMsg, netsim.Ack]{Name: "proc.pipeopen", AtMostOnce: true}
	mPipeRead  = netsim.Method[pipeReadReq, pipeReadResp]{Name: "proc.piperead", AtMostOnce: true}
	mPipeWrite = netsim.Method[pipeWriteReq, netsim.Ack]{Name: "proc.pipewrite", AtMostOnce: true}
	mPipeClose = netsim.Method[pipeCloseReq, netsim.Ack]{Name: "proc.pipeclose", AtMostOnce: true}
)

type pipeOpenMsg struct {
	ID    storage.FileID
	Write bool
}

type pipeReadReq struct {
	ID  storage.FileID
	Max int
}

type pipeReadResp struct {
	Data []byte
	EOF  bool
}

// WireSize charges the moved bytes.
func (r *pipeReadResp) WireSize() int { return len(r.Data) + 16 }

type pipeWriteReq struct {
	ID   storage.FileID
	Data []byte
}

// WireSize charges the moved bytes.
func (r *pipeWriteReq) WireSize() int { return len(r.Data) + 16 }

type pipeCloseReq struct {
	ID    storage.FileID
	Write bool
}

// OpenPipe opens a named pipe created with Kernel.Mkfifo for reading or
// writing. Both endpoint kinds register at the server site so the §5.6
// teardown knows which sites hold which ends.
func (m *Manager) OpenPipe(p *Process, path string, write bool) (*PipeEnd, error) {
	r, err := m.kernel.Resolve(p.cred, path)
	if err != nil {
		// Resolution can fail because the name's CSS or storage site is
		// gone — a §5.6 site failure, not a bad pathname.
		return nil, siteFailed(err)
	}
	if r.Type != storage.TypePipe {
		return nil, fmt.Errorf("proc: %s is not a pipe", path)
	}
	// The search just reached the filegroup's CSS, which serves the pipe.
	server, err := m.kernel.CSSOf(r.ID.FG)
	if err != nil {
		return nil, err
	}
	pe := &PipeEnd{m: m, id: r.ID, server: server, write: write}
	if _, err := netsim.CallAt(m.node, server, mPipeOpen, m.handlePipeOpen, &pipeOpenMsg{ID: r.ID, Write: write}); err != nil {
		return nil, siteFailed(err)
	}
	return pe, nil
}

func (m *Manager) pipe(id storage.FileID) *pipeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.pipes[id]
	if ps == nil {
		ps = newPipeState()
		m.pipes[id] = ps
	}
	return ps
}

// Read blocks until data is available or every writer has closed (then
// io.EOF), matching single-machine pipe semantics. If the server site
// failed, the error wraps ErrSiteFailed rather than hanging.
func (pe *PipeEnd) Read(max int) ([]byte, error) {
	if pe.closed {
		return nil, fs.ErrClosed
	}
	if pe.write {
		return nil, fmt.Errorf("proc: pipe opened for writing")
	}
	r, err := netsim.CallAt(pe.m.node, pe.server, mPipeRead, pe.m.handlePipeRead, &pipeReadReq{ID: pe.id, Max: max})
	if err != nil {
		return nil, siteFailed(err)
	}
	if r.EOF {
		return nil, io.EOF
	}
	return r.Data, nil
}

// Write appends to the pipe stream. A pipe whose readers are all gone
// (closed, or lost with their site) fails with ErrPipeBroken; a failed
// server site fails with ErrSiteFailed.
func (pe *PipeEnd) Write(data []byte) error {
	if pe.closed {
		return fs.ErrClosed
	}
	if !pe.write {
		return fmt.Errorf("proc: pipe opened for reading")
	}
	_, err := netsim.CallAt(pe.m.node, pe.server, mPipeWrite, pe.m.handlePipeWrite, &pipeWriteReq{ID: pe.id, Data: append([]byte(nil), data...)})
	return siteFailed(err)
}

// Close closes this end; the last writer's close delivers EOF to
// blocked readers, the last reader's close breaks the pipe for writers.
func (pe *PipeEnd) Close() error {
	if pe.closed {
		return nil
	}
	pe.closed = true
	_, err := netsim.CallAt(pe.m.node, pe.server, mPipeClose, pe.m.handlePipeClose, &pipeCloseReq{ID: pe.id, Write: pe.write})
	return siteFailed(err)
}

func (m *Manager) handlePipeOpen(from SiteID, msg *pipeOpenMsg) (*netsim.Ack, error) {
	ps := m.pipe(msg.ID)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.poisoned {
		// The server restarted after a crash; the catalog name survives,
		// so a fresh generation of endpoints starts clean.
		ps.poisoned = false
		ps.buf = nil
		ps.closed = false
		ps.broken = false
	}
	if msg.Write {
		ps.writers++
		ps.writerSites[from]++
		ps.closed = false
	} else {
		ps.readers++
		ps.readerSites[from]++
		ps.everReaders = true
		ps.broken = false
	}
	return nil, nil
}

func (m *Manager) handlePipeRead(from SiteID, req *pipeReadReq) (*pipeReadResp, error) {
	ps := m.pipe(req.ID)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for len(ps.buf) == 0 && !ps.closed && !ps.poisoned {
		// It is the reader's own goroutine that waits here, inside its
		// call: the transport fails a call only once its handler has
		// returned. §5.6 cleanup (dropSites) and a crash (poison) wake
		// it; a reader whose site has left the partition could never
		// receive the reply, so it gives up (§5.6: never hang).
		if from != m.site && !m.node.Network().Connected(m.site, from) {
			return nil, fmt.Errorf("%w: reader site %d unreachable from pipe server", ErrSiteFailed, from)
		}
		ps.cond.Wait()
	}
	if ps.poisoned {
		return &pipeReadResp{EOF: true}, nil
	}
	if len(ps.buf) == 0 && ps.closed {
		return &pipeReadResp{EOF: true}, nil
	}
	n := req.Max
	if n <= 0 || n > len(ps.buf) {
		n = len(ps.buf)
	}
	out := append([]byte(nil), ps.buf[:n]...)
	ps.buf = ps.buf[n:]
	return &pipeReadResp{Data: out}, nil
}

func (m *Manager) handlePipeWrite(_ SiteID, req *pipeWriteReq) (*netsim.Ack, error) {
	ps := m.pipe(req.ID)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.broken {
		return nil, fmt.Errorf("%w: %v", ErrPipeBroken, req.ID)
	}
	if ps.poisoned {
		return nil, fmt.Errorf("%w: pipe server crashed, buffer lost", ErrSiteFailed)
	}
	ps.buf = append(ps.buf, req.Data...)
	ps.cond.Broadcast()
	return nil, nil
}

func (m *Manager) handlePipeClose(from SiteID, req *pipeCloseReq) (*netsim.Ack, error) {
	ps := m.pipe(req.ID)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if req.Write {
		if ps.writers > 0 {
			ps.writers--
			if ps.writerSites[from] > 1 {
				ps.writerSites[from]--
			} else {
				delete(ps.writerSites, from)
			}
		}
		if ps.writers == 0 {
			ps.closed = true
			ps.cond.Broadcast()
		}
	} else {
		if ps.readers > 0 {
			ps.readers--
			if ps.readerSites[from] > 1 {
				ps.readerSites[from]--
			} else {
				delete(ps.readerSites, from)
			}
		}
		if ps.readers == 0 && ps.everReaders {
			ps.broken = true
			ps.cond.Broadcast()
		}
	}
	return nil, nil
}
