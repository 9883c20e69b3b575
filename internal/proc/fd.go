package proc

import (
	"fmt"
	"sync"

	"repro/internal/fs"
	"repro/internal/netsim"
)

// Shared open-file descriptors (§3.1 footnote): "To implement this
// functionality across the network we keep a file descriptor at each
// site, with only one valid at any time, using a token scheme to
// determine which file descriptor is currently valid."
//
// Every shared descriptor has a home site (where it was first opened).
// The home tracks which site currently holds the token; the token
// travels with the authoritative file offset. A site reads or writes
// through the descriptor only while holding the token (§3.2: "access
// to a resource requires the token").

// fdHome is the home site's record of a shared descriptor.
type fdHome struct {
	id     int
	holder SiteID
}

// fdState is the per-site state of a shared descriptor; processes on
// one site sharing the descriptor (fork) share one fdState.
type fdState struct {
	mu       sync.Mutex
	m        *Manager
	homeSite SiteID
	homeID   int
	file     *fs.File
	offset   int64
	hasToken bool
	refs     int
	closed   bool
}

// FD is a process's handle on a shared descriptor.
type FD struct {
	s *fdState
}

// The shared-offset token protocol (§3.2). Granting and yanking move
// the token, so both are at-most-once.
var (
	mFDToken = netsim.Method[fdTokenReq, fdTokenResp]{Name: "proc.fdtoken", AtMostOnce: true}
	mFDYank  = netsim.Method[fdYankReq, fdYankResp]{Name: "proc.fdyank", AtMostOnce: true}
)

type fdTokenReq struct {
	ID        int
	Requester SiteID
}

type fdTokenResp struct {
	Offset int64
}

type fdYankReq struct {
	ID int
}

type fdYankResp struct {
	Offset int64
}

// OpenShared opens path and wraps it in a shared-offset descriptor
// homed at this site. It is installed in the process's descriptor
// table.
func (m *Manager) OpenShared(p *Process, path string, mode fs.OpenMode) (*FD, int, error) {
	f, err := m.kernel.Open(p.cred, path, mode)
	if err != nil {
		// A lost CSS/storage site surfaces as a §5.6 site failure, not a
		// raw fs sentinel.
		return nil, 0, wrapFsSiteErr(err)
	}
	m.mu.Lock()
	m.nextFDID++
	id := m.nextFDID
	m.fdHomes[id] = &fdHome{id: id, holder: m.site}
	m.mu.Unlock()
	s := &fdState{
		m: m, homeSite: m.site, homeID: id,
		file: f, hasToken: true, refs: 1,
	}
	m.registerLocalState(s)
	fd := &FD{s: s}
	num := p.installFD(fd)
	return fd, num, nil
}

// AttachShared joins an existing shared descriptor from another site:
// this site opens its own file descriptor, valid only while it holds
// the token.
func (m *Manager) AttachShared(p *Process, homeSite SiteID, homeID int, path string, mode fs.OpenMode) (*FD, int, error) {
	f, err := m.kernel.Open(p.cred, path, mode)
	if err != nil {
		return nil, 0, wrapFsSiteErr(err)
	}
	s := &fdState{
		m: m, homeSite: homeSite, homeID: homeID,
		file: f, hasToken: false, refs: 1,
	}
	m.registerLocalState(s)
	fd := &FD{s: s}
	num := p.installFD(fd)
	return fd, num, nil
}

func (p *Process) installFD(fd *FD) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextFD++
	p.fds[p.nextFD] = fd
	return p.nextFD
}

// FD returns the process's descriptor by number.
func (p *Process) FD(num int) (*FD, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fd, ok := p.fds[num]
	return fd, ok
}

// HomeID returns the descriptor's home site and id (for AttachShared on
// another site).
func (fd *FD) HomeID() (SiteID, int) { return fd.s.homeSite, fd.s.homeID }

// share adds a reference (fork sharing on the same site).
func (fd *FD) share() *FD {
	fd.s.mu.Lock()
	fd.s.refs++
	fd.s.mu.Unlock()
	return &FD{s: fd.s}
}

// fetchToken obtains the token (and live offset) from the home site.
// Called without s.mu held — token negotiation crosses the network.
func (s *fdState) fetchToken() (int64, error) {
	m := s.m
	resp, err := netsim.CallAt(m.node, s.homeSite, mFDToken, m.handleFDToken, &fdTokenReq{ID: s.homeID, Requester: m.site})
	if err != nil {
		// Token negotiation failing because the home site is gone is the
		// §5.6 "site failed" row, not a raw transport error.
		return 0, wrapSiteErr(err, s.homeSite)
	}
	return resp.Offset, nil
}

// handleFDToken runs at the home site: yank the token from the current
// holder (retrieving the live offset) and grant it to the requester.
func (m *Manager) handleFDToken(_ SiteID, req *fdTokenReq) (*fdTokenResp, error) {
	m.mu.Lock()
	home := m.fdHomes[req.ID]
	m.mu.Unlock()
	if home == nil {
		return nil, fmt.Errorf("proc: no shared descriptor %d at site %d", req.ID, m.site)
	}
	var offset int64
	holder := home.holder
	switch holder {
	case req.Requester:
		// Already the holder (re-request after a local race).
		return &fdTokenResp{Offset: 0}, fmt.Errorf("proc: site %d already holds token %d", req.Requester, req.ID)
	case m.site:
		// We hold it locally: release from our fdState.
		offset = m.yankLocal(req.ID)
	default:
		resp, err := netsim.Call(m.node, holder, mFDYank, &fdYankReq{ID: req.ID})
		if err != nil {
			// Holder unreachable: the token is lost with it; regenerate
			// at the requester with the home's last-known offset (0 —
			// LOCUS regenerates tokens during cleanup).
			offset = 0
		} else {
			offset = resp.Offset
		}
	}
	home.holder = req.Requester
	return &fdTokenResp{Offset: offset}, nil
}

// yankLocal strips the token from whatever local fdState holds it.
// TryLock skips states busy in their own token negotiation (they
// cannot be holding the token).
func (m *Manager) yankLocal(id int) int64 {
	m.mu.Lock()
	states := m.localFDStates
	m.mu.Unlock()
	for _, s := range states {
		if s.homeID != id {
			continue
		}
		if !s.mu.TryLock() {
			continue
		}
		off := s.offset
		had := s.hasToken
		s.hasToken = false
		s.mu.Unlock()
		if had {
			return off
		}
	}
	return 0
}

func (m *Manager) handleFDYank(_ SiteID, req *fdYankReq) (*fdYankResp, error) {
	return &fdYankResp{Offset: m.yankLocal(req.ID)}, nil
}

// registerLocalState lets the manager find fdStates for token yanks.
func (m *Manager) registerLocalState(s *fdState) {
	m.mu.Lock()
	m.localFDStates = append(m.localFDStates, s)
	m.mu.Unlock()
}

// Read reads from the shared descriptor at the shared offset, advancing
// it. The token is acquired first; "in the worst case, performance is
// limited by the speed at which the tokens ... can be flipped back and
// forth" (§3.2).
func (fd *FD) Read(buf []byte) (int, error) {
	return fd.io(func(s *fdState) (int, error) {
		n, err := s.file.ReadAt(buf, s.offset)
		s.offset += int64(n)
		return n, err
	})
}

// Write writes at the shared offset, advancing it.
func (fd *FD) Write(data []byte) (int, error) {
	return fd.io(func(s *fdState) (int, error) {
		n, err := s.file.WriteAt(data, s.offset)
		s.offset += int64(n)
		return n, err
	})
}

// io performs one descriptor operation under the token.
func (fd *FD) io(op func(*fdState) (int, error)) (int, error) {
	s := fd.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fs.ErrClosed
	}
	if s.hasToken {
		defer s.mu.Unlock()
		return op(s)
	}
	s.mu.Unlock()
	// Token negotiation happens without the state lock (the home may
	// need to yank from another descriptor on this very site).
	off, err := s.fetchToken()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fs.ErrClosed
	}
	s.offset = off
	s.hasToken = true
	return op(s)
}

// Offset returns the descriptor's view of the shared offset (only
// authoritative while holding the token).
func (fd *FD) Offset() int64 {
	fd.s.mu.Lock()
	defer fd.s.mu.Unlock()
	return fd.s.offset
}

// Close drops a reference; the underlying file closes with the last
// one.
func (fd *FD) Close() error {
	s := fd.s
	s.mu.Lock()
	s.refs--
	last := s.refs == 0 && !s.closed
	if last {
		s.closed = true
	}
	s.mu.Unlock()
	if last {
		// The final close can cross the network (remote storage site);
		// classify its failure like every other proc-layer site error.
		return wrapFsSiteErr(s.file.Close())
	}
	return nil
}
