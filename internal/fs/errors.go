package fs

import "errors"

// Errors returned by filesystem system calls. They mirror the failure
// modes the paper calls out: synchronization refusals at the CSS, no
// reachable storage site, unresolved version conflicts, and plain Unix
// naming errors.
var (
	// ErrNotFound: no live entry by that name.
	ErrNotFound = errors.New("fs: no such file or directory")
	// ErrExists: create of a name that already exists.
	ErrExists = errors.New("fs: file exists")
	// ErrNotDir: a pathname component is not a directory.
	ErrNotDir = errors.New("fs: not a directory")
	// ErrIsDir: a user's modify open or create of a directory, whose
	// writes are the kernel's (Unix's EISDIR).
	ErrIsDir = errors.New("fs: is a directory")
	// ErrBusy: the CSS synchronization policy refused the open (a
	// second simultaneous open for modification).
	ErrBusy = errors.New("fs: file busy (synchronization policy refused open)")
	// ErrNoStorageSite: no reachable pack in this partition stores an
	// up-to-date copy.
	ErrNoStorageSite = errors.New("fs: no available storage site")
	// ErrNoCSS: no pack site of the filegroup is in this partition, so
	// no current synchronization site exists.
	ErrNoCSS = errors.New("fs: filegroup has no CSS in this partition")
	// ErrConflict: the copy is marked in version conflict; normal opens
	// fail until reconciled (§4.6).
	ErrConflict = errors.New("fs: file is in version conflict; reconcile first")
	// ErrStale: the served copy became unavailable and no substitute of
	// the same version could be found.
	ErrStale = errors.New("fs: open file lost its storage site")
	// ErrClosed: operation on a closed file handle.
	ErrClosed = errors.New("fs: file handle is closed")
	// ErrReadOnly: write through a read-mode handle.
	ErrReadOnly = errors.New("fs: file not open for modification")
	// ErrBadName: illegal pathname component.
	ErrBadName = errors.New("fs: invalid pathname")
	// ErrNotEmpty: removing a non-empty directory.
	ErrNotEmpty = errors.New("fs: directory not empty")
	// ErrCrossFilegroup: hard links must stay within one filegroup.
	ErrCrossFilegroup = errors.New("fs: link across filegroups")
	// ErrDeleted: operation on a file whose inode is a delete tombstone.
	ErrDeleted = errors.New("fs: file has been deleted")
)
