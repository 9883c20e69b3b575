package locus

import (
	"errors"

	"repro/internal/format"
	"repro/internal/fs"
	"repro/internal/proc"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Session is a logged-in user's handle on one site: the equivalent of
// a shell process, carrying the per-process inherited state (user,
// default replication factor, hidden-directory context) that LOCUS
// system calls consult.
type Session struct {
	site *Site
	cred *fs.Cred
	// shell is the session's root process (parent of Run children).
	shell *proc.Process
}

// Login opens a session for a user at this site. The hidden-directory
// context defaults to the site's machine type.
func (s *Site) Login(user string) *Session {
	cred := &fs.Cred{User: user, HiddenCtx: []string{s.Proc.MachineType()}}
	return &Session{site: s, cred: cred, shell: s.Proc.InitProcess(cred)}
}

// Site returns the session's site.
func (se *Session) Site() *Site { return se.site }

// Cred exposes the session credential (advanced use).
func (se *Session) Cred() *fs.Cred { return se.cred }

// Shell returns the session's root process.
func (se *Session) Shell() *proc.Process { return se.shell }

// SetNCopies sets the inherited default replication factor for files
// this session creates (§2.3.7's per-process number-of-copies
// variable). Zero restores "inherit from the parent directory".
func (se *Session) SetNCopies(n int) { se.cred.NCopies = n }

// SetHiddenContext replaces the session's hidden-directory context
// list.
func (se *Session) SetHiddenContext(ctx ...string) { se.cred.HiddenCtx = ctx }

// --- Filesystem calls (all fully location-transparent) ---

// Create creates a file open for modification.
func (se *Session) Create(path string, typ storage.FileType) (*fs.File, error) {
	return se.site.FS.Create(se.cred, path, typ, 0644)
}

// Open opens a file by pathname.
func (se *Session) Open(path string, mode fs.OpenMode) (*fs.File, error) {
	return se.site.FS.Open(se.cred, path, mode)
}

// WriteFile creates-or-replaces a file's content and commits it.
func (se *Session) WriteFile(path string, data []byte) error {
	f, err := se.site.FS.Open(se.cred, path, fs.ModeModify)
	if errors.Is(err, fs.ErrNotFound) {
		f, err = se.site.FS.Create(se.cred, path, storage.TypeRegular, 0644)
	}
	if err != nil {
		return err
	}
	if err := f.WriteAll(data); err != nil {
		f.Close() //locus:vet-allow uncheckedcall abandoning after failure
		return err
	}
	return f.Close() // closing a file commits it (§2.3.6)
}

// ReadFile reads a file's full content.
func (se *Session) ReadFile(path string) ([]byte, error) {
	f, err := se.site.FS.Open(se.cred, path, fs.ModeRead)
	if err != nil {
		return nil, err
	}
	defer f.Close() //locus:vet-allow uncheckedcall read-only
	return f.ReadAll()
}

// Mkdir creates a directory.
func (se *Session) Mkdir(path string) error {
	return se.site.FS.Mkdir(se.cred, path, 0755)
}

// ReadDir lists a directory.
func (se *Session) ReadDir(path string) ([]format.DirEntry, error) {
	return se.site.FS.ReadDir(se.cred, path)
}

// Unlink removes a name (and the file when its last link goes).
func (se *Session) Unlink(path string) error {
	return se.site.FS.Unlink(se.cred, path)
}

// Rename moves a name within a filegroup.
func (se *Session) Rename(oldPath, newPath string) error {
	return se.site.FS.Rename(se.cred, oldPath, newPath)
}

// Link creates a hard link.
func (se *Session) Link(oldPath, newPath string) error {
	return se.site.FS.Link(se.cred, oldPath, newPath)
}

// Stat returns a file's inode snapshot.
func (se *Session) Stat(path string) (*storage.Inode, error) {
	return se.site.FS.Stat(se.cred, path)
}

// SetReplication changes a file's storage-site list.
func (se *Session) SetReplication(path string, sites ...SiteID) error {
	return se.site.FS.SetReplication(se.cred, path, sites)
}

// Mkfifo creates a named pipe.
func (se *Session) Mkfifo(path string) error {
	return se.site.FS.Mkfifo(se.cred, path, 0644)
}

// Mknod creates a device special file served by a driver at host
// (§2.4.2 transparent remote devices).
func (se *Session) Mknod(path string, host SiteID, devName string) error {
	return se.site.FS.Mknod(se.cred, path, host, devName, 0666)
}

// OpenDevice opens a (possibly remote) device named in the catalog.
func (se *Session) OpenDevice(path string) (*proc.DeviceHandle, error) {
	return se.site.Proc.OpenDevice(se.shell, path)
}

// --- Processes ---

// SetExecSite sets the advice list so subsequent Run calls execute at
// the given site (§3.1: "one can dynamically, even just before process
// invocation, select the execution site").
func (se *Session) SetExecSite(sites ...SiteID) { se.shell.SetAdvice(sites...) }

// Run starts a program (the run call of §3.1: fork+exec without the
// image copy). The load module at path is resolved through hidden
// directories, so heterogeneous sites transparently run their own
// module.
func (se *Session) Run(path string, args ...string) (proc.PID, error) {
	return se.site.Proc.Run(se.shell, path, args)
}

// Wait blocks until the process exits.
func (se *Session) Wait(pid proc.PID) proc.ExitStatus {
	return se.site.Proc.Wait(se.shell, pid)
}

// Signal sends a signal to any process in the network.
func (se *Session) Signal(pid proc.PID, sig proc.Signal) error {
	return se.site.Proc.Signal(pid, sig)
}

// OpenPipe opens a named pipe end.
func (se *Session) OpenPipe(path string, write bool) (*proc.PipeEnd, error) {
	return se.site.Proc.OpenPipe(se.shell, path, write)
}

// --- Transactions ---

// Begin starts a top-level nested transaction.
func (se *Session) Begin() *txn.Txn {
	return se.site.Txn.Begin(se.cred)
}

// --- Mail ---

// ReadMail returns the session user's live mail.
func (se *Session) ReadMail() ([]format.Message, error) {
	return se.site.Recon.ReadMail(se.cred.User)
}

// SendMail delivers a message to another user's mailbox.
func (se *Session) SendMail(to, body string) error {
	return se.site.Recon.DeliverMail(to, se.cred.User, body)
}
