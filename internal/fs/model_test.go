package fs_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/fs"
	"repro/internal/storage"
)

// Model-based testing: drive a random sequence of system calls against
// the distributed filesystem (all sites fully connected, settling after
// each mutation) and against a trivial in-memory reference model. The
// distributed system must agree with the model at every step from every
// site — network transparency means the distribution is unobservable.

type modelFS struct {
	files map[string][]byte // path -> content (regular files)
	dirs  map[string]bool   // path -> exists
}

func newModelFS() *modelFS {
	return &modelFS{files: map[string][]byte{}, dirs: map[string]bool{"/": true}}
}

func parentOf(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

func (m *modelFS) create(p string, data []byte) error {
	if !m.dirs[parentOf(p)] {
		return fs.ErrNotFound
	}
	if m.dirs[p] || m.files[p] != nil {
		return fs.ErrExists
	}
	m.files[p] = append([]byte(nil), data...)
	return nil
}

func (m *modelFS) update(p string, data []byte) error {
	if m.files[p] == nil {
		return fs.ErrNotFound
	}
	m.files[p] = append([]byte(nil), data...)
	return nil
}

func (m *modelFS) mkdir(p string) error {
	if !m.dirs[parentOf(p)] {
		return fs.ErrNotFound
	}
	if m.dirs[p] || m.files[p] != nil {
		return fs.ErrExists
	}
	m.dirs[p] = true
	return nil
}

func (m *modelFS) unlink(p string) error {
	if m.files[p] != nil {
		delete(m.files, p)
		return nil
	}
	if m.dirs[p] {
		for q := range m.files {
			if parentOf(q) == p {
				return fs.ErrNotEmpty
			}
		}
		for q := range m.dirs {
			if q != p && parentOf(q) == p {
				return fs.ErrNotEmpty
			}
		}
		delete(m.dirs, p)
		return nil
	}
	return fs.ErrNotFound
}

func (m *modelFS) rename(old, new string) error {
	if !m.dirs[parentOf(new)] {
		return fs.ErrNotFound
	}
	if m.dirs[new] || m.files[new] != nil {
		return fs.ErrExists
	}
	if m.files[old] != nil {
		m.files[new] = m.files[old]
		delete(m.files, old)
		return nil
	}
	if m.dirs[old] {
		// Directory rename: move the subtree.
		m.dirs[new] = true
		delete(m.dirs, old)
		oldPrefix := old + "/"
		for q, v := range m.files {
			if len(q) > len(oldPrefix) && q[:len(oldPrefix)] == oldPrefix {
				m.files[new+q[len(old):]] = v
				delete(m.files, q)
			}
		}
		for q := range m.dirs {
			if len(q) > len(oldPrefix) && q[:len(oldPrefix)] == oldPrefix {
				m.dirs[new+q[len(old):]] = true
				delete(m.dirs, q)
			}
		}
		return nil
	}
	return fs.ErrNotFound
}

func (m *modelFS) list(p string) ([]string, error) {
	if !m.dirs[p] {
		return nil, fs.ErrNotFound
	}
	var out []string
	add := func(q string) {
		if parentOf(q) == p && q != "/" {
			out = append(out, q[len(p):])
		}
	}
	for q := range m.files {
		add(q)
	}
	for q := range m.dirs {
		add(q)
	}
	for i := range out {
		out[i] = trimSlash(out[i])
	}
	sort.Strings(out)
	return out, nil
}

func trimSlash(s string) string {
	if len(s) > 0 && s[0] == '/' {
		return s[1:]
	}
	return s
}

func sameErrClass(a, b error) bool {
	classes := []error{fs.ErrNotFound, fs.ErrExists, fs.ErrNotEmpty, fs.ErrBadName}
	for _, c := range classes {
		if errors.Is(a, c) || errors.Is(b, c) {
			return errors.Is(a, c) == errors.Is(b, c)
		}
	}
	return (a == nil) == (b == nil)
}

func TestModelBasedRandomOperations(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newCluster(t, 3)
		defer c.Net.Close()
		model := newModelFS()

		dirs := []string{"/"}
		var files []string
		pick := func(ss []string) string { return ss[r.Intn(len(ss))] }
		newName := func() string { return fmt.Sprintf("n%02d", r.Intn(20)) }
		join := func(dir, name string) string {
			if dir == "/" {
				return "/" + name
			}
			return dir + "/" + name
		}

		for step := 0; step < 30; step++ {
			k := c.K(fs.SiteID(1 + r.Intn(3)))
			switch r.Intn(6) {
			case 0: // create file
				p := join(pick(dirs), newName())
				data := []byte(fmt.Sprintf("content-%d", step))
				var realErr error
				if fh, err := k.Create(cred(), p, storage.TypeRegular, 0644); err != nil {
					realErr = err
				} else {
					if err := fh.WriteAll(data); err != nil {
						return false
					}
					if err := fh.Close(); err != nil {
						return false
					}
				}
				modelErr := model.create(p, data)
				if !sameErrClass(realErr, modelErr) {
					t.Logf("seed %d step %d create %s: real=%v model=%v", seed, step, p, realErr, modelErr)
					return false
				}
				if modelErr == nil {
					files = append(files, p)
				}
			case 1: // update file
				if len(files) == 0 {
					continue
				}
				p := pick(files)
				data := []byte(fmt.Sprintf("update-%d", step))
				var realErr error
				if fh, err := k.Open(cred(), p, fs.ModeModify); err != nil {
					realErr = err
				} else {
					if err := fh.WriteAll(data); err != nil {
						return false
					}
					if err := fh.Close(); err != nil {
						return false
					}
				}
				modelErr := model.update(p, data)
				if !sameErrClass(realErr, modelErr) {
					t.Logf("seed %d step %d update %s: real=%v model=%v", seed, step, p, realErr, modelErr)
					return false
				}
			case 2: // mkdir
				p := join(pick(dirs), newName())
				realErr := k.Mkdir(cred(), p, 0755)
				modelErr := model.mkdir(p)
				if !sameErrClass(realErr, modelErr) {
					t.Logf("seed %d step %d mkdir %s: real=%v model=%v", seed, step, p, realErr, modelErr)
					return false
				}
				if modelErr == nil {
					dirs = append(dirs, p)
				}
			case 3: // unlink
				var p string
				if len(files) > 0 && r.Intn(2) == 0 {
					p = pick(files)
				} else {
					p = join(pick(dirs), newName())
				}
				realErr := k.Unlink(cred(), p)
				modelErr := model.unlink(p)
				if !sameErrClass(realErr, modelErr) {
					t.Logf("seed %d step %d unlink %s: real=%v model=%v", seed, step, p, realErr, modelErr)
					return false
				}
			case 4: // rename a file
				if len(files) == 0 {
					continue
				}
				old := pick(files)
				new := join(pick(dirs), newName())
				realErr := k.Rename(cred(), old, new)
				modelErr := model.rename(old, new)
				if !sameErrClass(realErr, modelErr) {
					t.Logf("seed %d step %d rename %s->%s: real=%v model=%v", seed, step, old, new, realErr, modelErr)
					return false
				}
			case 5: // read everything and compare from a random site
				// handled by the verification below
			}
			c.Settle()

			// Verify all model files readable with identical content
			// from a random site.
			vk := c.K(fs.SiteID(1 + r.Intn(3)))
			for p, want := range model.files {
				fh, err := vk.Open(cred(), p, fs.ModeRead)
				if err != nil {
					t.Logf("seed %d step %d verify open %s: %v", seed, step, p, err)
					return false
				}
				got, err := fh.ReadAll()
				fh.Close() //nolint:errcheck
				if err != nil || !bytes.Equal(got, want) {
					t.Logf("seed %d step %d verify %s: got %q want %q (%v)", seed, step, p, got, want, err)
					return false
				}
			}
			// Verify a random directory listing.
			d := pick(dirs)
			wantList, err := model.list(d)
			if err == nil {
				ents, err := vk.ReadDir(cred(), d)
				if err != nil {
					t.Logf("seed %d step %d list %s: %v", seed, step, d, err)
					return false
				}
				var gotList []string
				for _, e := range ents {
					gotList = append(gotList, e.Name)
				}
				sort.Strings(gotList)
				if fmt.Sprint(gotList) != fmt.Sprint(wantList) {
					t.Logf("seed %d step %d list %s: got %v want %v", seed, step, d, gotList, wantList)
					return false
				}
			}

			// Refresh live name lists from the model.
			files = files[:0]
			for p := range model.files {
				files = append(files, p)
			}
			sort.Strings(files)
			dirs = dirs[:1]
			for p := range model.dirs {
				if p != "/" {
					dirs = append(dirs, p)
				}
			}
			sort.Strings(dirs[1:])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
