package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/lint/invariant"
	"repro/internal/vclock"
)

func newTestContainer() *Container {
	return MustContainer(1, 1, 1, 1000, nil, Costs{})
}

func TestAllocInodeSequentialAndBounded(t *testing.T) {
	c := MustContainer(1, 1, 10, 12, nil, Costs{})
	for want := InodeNum(10); want <= 12; want++ {
		n, err := c.AllocInode()
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("AllocInode = %d, want %d", n, want)
		}
	}
	if _, err := c.AllocInode(); !errors.Is(err, ErrInodeSpace) {
		t.Fatalf("err = %v, want ErrInodeSpace", err)
	}
}

func TestOwns(t *testing.T) {
	c := MustContainer(1, 1, 100, 199, nil, Costs{})
	if !c.Owns(100) || !c.Owns(199) {
		t.Fatal("range endpoints must be owned")
	}
	if c.Owns(99) || c.Owns(200) {
		t.Fatal("out-of-range inodes must not be owned")
	}
}

func TestCommitThenGetRoundTrip(t *testing.T) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	p, err := c.WritePage([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	ino := &Inode{Num: n, Type: TypeRegular, Size: 5, Pages: []PhysPage{p},
		VV: vclock.New().Bump(1), Owner: "alice", Mode: 0644, Nlink: 1}
	if err := c.CommitInode(ino); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetInode(n)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 5 || got.Owner != "alice" || got.Type != TypeRegular {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	data, err := c.ReadLogicalPage(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:5], []byte("hello")) {
		t.Fatalf("page data = %q", data[:5])
	}
}

// TestGetInodeSharesCommitted pins GetInode's contract: it hands out the
// committed inode itself, copying nothing, and an inode handed out
// earlier reads the same after a later commit of the same file.
func TestGetInodeSharesCommitted(t *testing.T) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	p, err := c.WritePage([]byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	v1 := &Inode{Num: n, Size: 2, Pages: []PhysPage{p}, VV: vclock.New().Bump(1),
		Sites: []vclock.SiteID{1, 2}, Annotations: map[string]string{"k": "v"}}
	if err := c.CommitInode(v1); err != nil {
		t.Fatal(err)
	}
	got, _ := c.GetInode(n)
	if again, _ := c.GetInode(n); again != got {
		t.Fatal("two GetInode calls returned different pointers: the committed inode is copied")
	}
	if got == v1 {
		t.Fatal("CommitInode installed the caller's inode, not a copy")
	}
	if !invariant.Enabled { // the twin check's reflect.DeepEqual may allocate
		if a := testing.AllocsPerRun(100, func() { sinkInode, _ = c.GetInode(n) }); a != 0 {
			t.Fatalf("GetInode allocates %v times, want 0", a)
		}
	}

	// The committer goes on changing its in-core inode and commits again.
	p2, err := c.WritePage([]byte("v2!"))
	if err != nil {
		t.Fatal(err)
	}
	v1.Size, v1.Pages[0], v1.VV, v1.Sites[1] = 3, p2, v1.VV.Bump(1), 9
	v1.Annotations["k"] = "w"
	if err := c.CommitInode(v1); err != nil {
		t.Fatal(err)
	}
	want := &Inode{Num: n, Size: 2, Pages: []PhysPage{p}, VV: vclock.New().Bump(1),
		Sites: []vclock.SiteID{1, 2}, Annotations: map[string]string{"k": "v"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("an inode handed out before the second commit changed under its holder:\n got %+v\nwant %+v", got, want)
	}
	if now, _ := c.GetInode(n); now == got || now.Size != 3 || now.Pages[0] != p2 {
		t.Fatalf("GetInode after the second commit = %+v", now)
	}
}

// TestSharedInodeWritePanics seeds the bug the locusinvariants twin
// exists for: a write through the committed inode panics at its next
// use.
func TestSharedInodeWritePanics(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("needs -tags locusinvariants")
	}
	for name, write := range map[string]func(*Inode){
		"field":      func(ino *Inode) { ino.Size = 999 },
		"page table": func(ino *Inode) { ino.Pages[0] = 77 },
		"site list":  func(ino *Inode) { ino.Sites[0] = 7 },
	} {
		t.Run(name, func(t *testing.T) {
			c := newTestContainer()
			n, _ := c.AllocInode()
			p, _ := c.WritePage([]byte("x"))
			if err := c.CommitInode(&Inode{Num: n, Size: 1, Pages: []PhysPage{p}, VV: vclock.New().Bump(1), Sites: []vclock.SiteID{1}}); err != nil {
				t.Fatal(err)
			}
			shared, _ := c.GetInode(n)
			write(shared)
			defer func() {
				if recover() == nil {
					t.Fatal("a write through the committed inode went unnoticed")
				}
			}()
			c.Version(n) // panics before it returns
		})
	}
}

func TestShadowPagesOldDataIntactUntilCommit(t *testing.T) {
	// §2.3.6: modifying a page allocates a new physical page; the old
	// information stays intact until commit.
	c := newTestContainer()
	n, _ := c.AllocInode()
	p0, _ := c.WritePage([]byte("version-1"))
	committed := &Inode{Num: n, Size: 9, Pages: []PhysPage{p0}, VV: vclock.New()}
	if err := c.CommitInode(committed); err != nil {
		t.Fatal(err)
	}

	// In-core modification: shadow page for logical page 0.
	incore := committed.Clone()
	shadow, _ := c.WritePage([]byte("version-2"))
	incore.Pages[0] = shadow

	// Old data still readable through the committed inode.
	data, _ := c.ReadLogicalPage(n, 0)
	if !bytes.Equal(data[:9], []byte("version-1")) {
		t.Fatalf("committed data changed before commit: %q", data[:9])
	}

	// Abort: free the shadow page; committed state untouched.
	c.FreePages(shadow)
	data, _ = c.ReadLogicalPage(n, 0)
	if !bytes.Equal(data[:9], []byte("version-1")) {
		t.Fatalf("abort damaged committed data: %q", data[:9])
	}
	if _, err := c.ReadPage(shadow); !errors.Is(err, ErrNoPage) {
		t.Fatalf("shadow page not freed: %v", err)
	}
}

func TestCommitReleasesSupersededPages(t *testing.T) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	p0, _ := c.WritePage([]byte("old"))
	if err := c.CommitInode(&Inode{Num: n, Size: 3, Pages: []PhysPage{p0}, VV: vclock.New()}); err != nil {
		t.Fatal(err)
	}
	shadow, _ := c.WritePage([]byte("new"))
	if err := c.CommitInode(&Inode{Num: n, Size: 3, Pages: []PhysPage{shadow}, VV: vclock.New()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadPage(p0); !errors.Is(err, ErrNoPage) {
		t.Fatalf("superseded page not released: %v", err)
	}
	data, _ := c.ReadLogicalPage(n, 0)
	if !bytes.Equal(data[:3], []byte("new")) {
		t.Fatalf("data = %q", data[:3])
	}
	if got := c.PageCount(); got != 1 {
		t.Fatalf("PageCount = %d, want 1", got)
	}
}

func TestHolesReadAsZeros(t *testing.T) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	p1, _ := c.WritePage([]byte("x"))
	ino := &Inode{Num: n, Size: PageSize + 1, Pages: []PhysPage{PhysPageNil, p1}, VV: vclock.New()}
	if err := c.CommitInode(ino); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadLogicalPage(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("hole must read as zeros")
		}
	}
}

func TestReadLogicalPageOutOfRange(t *testing.T) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	if err := c.CommitInode(&Inode{Num: n, VV: vclock.New()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadLogicalPage(n, 0); !errors.Is(err, ErrBadPageIndex) {
		t.Fatalf("err = %v, want ErrBadPageIndex", err)
	}
	if _, err := c.ReadLogicalPage(n, -1); !errors.Is(err, ErrBadPageIndex) {
		t.Fatalf("err = %v, want ErrBadPageIndex", err)
	}
}

func TestWritePageTooLarge(t *testing.T) {
	c := newTestContainer()
	if _, err := c.WritePage(make([]byte, PageSize+1)); err == nil {
		t.Fatal("expected error for oversized page")
	}
}

func TestDropInodeFreesEverything(t *testing.T) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	p, _ := c.WritePage([]byte("data"))
	if err := c.CommitInode(&Inode{Num: n, Size: 4, Pages: []PhysPage{p}, VV: vclock.New()}); err != nil {
		t.Fatal(err)
	}
	c.DropInode(n)
	if _, err := c.GetInode(n); !errors.Is(err, ErrNoInode) {
		t.Fatalf("err = %v, want ErrNoInode", err)
	}
	if c.PageCount() != 0 {
		t.Fatalf("PageCount = %d, want 0", c.PageCount())
	}
}

func TestListInodesSorted(t *testing.T) {
	c := newTestContainer()
	for i := 0; i < 5; i++ {
		n, _ := c.AllocInode()
		if err := c.CommitInode(&Inode{Num: n, VV: vclock.New()}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.ListInodes()
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestStoreContainerLookup(t *testing.T) {
	s := NewStore(3)
	c1 := MustContainer(1, 3, 1, 10, nil, Costs{})
	c2 := MustContainer(2, 3, 1, 10, nil, Costs{})
	s.AddContainer(c1)
	s.AddContainer(c2)
	if s.Container(1) != c1 || s.Container(2) != c2 {
		t.Fatal("container lookup failed")
	}
	if s.Container(9) != nil {
		t.Fatal("missing filegroup must return nil")
	}
	fgs := s.Filegroups()
	if len(fgs) != 2 || fgs[0] != 1 || fgs[1] != 2 {
		t.Fatalf("Filegroups = %v", fgs)
	}
}

// TestStoreLookupDuringAdd: Container reads the published map with no
// lock while AddContainer publishes new ones; run under -race. A
// container, once added, is found by every later lookup.
func TestStoreLookupDuringAdd(t *testing.T) {
	s := NewStore(1)
	const packs = 64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for seen < packs {
				seen = len(s.Filegroups())
				for fg := 1; fg <= seen; fg++ {
					if c := s.Container(FilegroupID(fg)); c == nil || c.FG() != FilegroupID(fg) {
						t.Errorf("filegroup %d of %d listed: lookup = %v", fg, seen, c)
						return
					}
				}
			}
		}()
	}
	for fg := 1; fg <= packs; fg++ {
		if err := s.AddContainer(MustContainer(FilegroupID(fg), 1, 1, 10, nil, Costs{})); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestStoreDuplicateContainerRejected(t *testing.T) {
	s := NewStore(3)
	if err := s.AddContainer(MustContainer(1, 3, 1, 10, nil, Costs{})); err != nil {
		t.Fatal(err)
	}
	err := s.AddContainer(MustContainer(1, 3, 11, 20, nil, Costs{}))
	if !errors.Is(err, ErrDupContainer) {
		t.Fatalf("duplicate AddContainer = %v, want ErrDupContainer", err)
	}
}

func TestNewContainerBadRange(t *testing.T) {
	if _, err := NewContainer(1, 1, 0, 10, nil, Costs{}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("lo=0 accepted: %v", err)
	}
	if _, err := NewContainer(1, 1, 10, 9, nil, Costs{}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("hi<lo accepted: %v", err)
	}
}

func TestInodeCloneIndependence(t *testing.T) {
	ino := &Inode{Num: 1, Pages: []PhysPage{1, 2}, VV: vclock.New().Bump(1),
		Annotations: map[string]string{"k": "v"}}
	c := ino.Clone()
	c.Pages[0] = 99
	c.VV = c.VV.Bump(2)
	c.Annotations["k"] = "w"
	if ino.Pages[0] != 1 || ino.VV.Get(2) != 0 || ino.Annotations["k"] != "v" {
		t.Fatal("Clone must be deep")
	}
}

var sinkInode *Inode

// TestInodeCloneAllocationPin: a clone of an inode without annotations
// whose page table and site list fit an inodeBlock is one allocation.
// The version vector is immutable and shared, so it costs nothing. The
// arrays are full, so growing the clone cannot write into the block's
// spare room or into the original; a larger inode falls back to one
// allocation per part.
func TestInodeCloneAllocationPin(t *testing.T) {
	ino := &Inode{Num: 1, Pages: []PhysPage{1, 2, 3, 4}, VV: vclock.New().Bump(1).Bump(2).Bump(3),
		Sites: []vclock.SiteID{1, 2, 3}, Owner: "alice", Nlink: 1}
	if got := testing.AllocsPerRun(100, func() { sinkInode = ino.Clone() }); got > 1 {
		t.Fatalf("Inode.Clone allocates %v times, want at most 1", got)
	}
	for _, np := range []int{0, 1, 2, 4, 5, 9} {
		ino.Pages = nil
		for i := 0; i < np; i++ {
			ino.Pages = append(ino.Pages, PhysPage(10+i))
		}
		c := ino.Clone()
		if !reflect.DeepEqual(c, ino) {
			t.Fatalf("%d pages: clone %+v differs from %+v", np, c, ino)
		}
		if cap(c.Pages) != len(c.Pages) || cap(c.Sites) != len(c.Sites) {
			t.Fatalf("%d pages: clone has spare capacity: pages %d/%d, sites %d/%d",
				np, len(c.Pages), cap(c.Pages), len(c.Sites), cap(c.Sites))
		}
		c.Pages = append(c.Pages, 99)
		c.Sites = append(c.Sites, 9)
		c.Pages[0], c.Sites[0] = 77, 7
		if d := ino.Clone(); len(d.Pages) != np || d.Sites[0] != 1 || (np > 0 && d.Pages[0] != 10) {
			t.Fatalf("%d pages: writing through a grown clone reached the original: %+v", np, d)
		}
	}
}

// TestVersionRead: Version is the vector, the two marks, the type and the
// site list of the stored copy, with no allocation, where GetInode clones
// the whole inode; a file the container does not store is reported as
// HasInode reports it. The site list is the committed inode's own, which
// no later commit changes in place.
func TestVersionRead(t *testing.T) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	if _, ok := c.Version(n); ok {
		t.Fatal("Version found a copy of a file that was never committed")
	}
	ino := &Inode{Num: n, Type: TypeDirectory, VV: vclock.New().Bump(1).Bump(3), Sites: []vclock.SiteID{1, 3}, Conflict: true}
	if err := c.CommitInode(ino); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Version(n)
	if !ok || got.VV.Compare(ino.VV) != vclock.Equal || got.Deleted || !got.Conflict ||
		got.Type != TypeDirectory || !reflect.DeepEqual(got.Sites, []vclock.SiteID{1, 3}) {
		t.Fatalf("Version = %+v, %v; want a directory at %v on sites [1 3] with Conflict set", got, ok, ino.VV)
	}
	ino.VV, ino.Deleted, ino.Conflict = ino.VV.Bump(1), true, false
	ino.Sites[1] = 2
	ino.Sites = append(ino.Sites, 3)
	if err := c.CommitInode(ino); err != nil {
		t.Fatal(err)
	}
	if now, _ := c.Version(n); !now.Deleted || now.Conflict || now.VV.Get(1) != 2 || !reflect.DeepEqual(now.Sites, []vclock.SiteID{1, 2, 3}) {
		t.Fatalf("Version after the next commit = %+v", now)
	}
	if got.VV.Get(1) != 1 || !got.Conflict || !reflect.DeepEqual(got.Sites, []vclock.SiteID{1, 3}) || cap(got.Sites) != 2 {
		t.Fatalf("an earlier Version changed under a commit (or its site list has room to append into): %+v", got)
	}
	if a := testing.AllocsPerRun(100, func() { sinkVersion, _ = c.Version(n) }); a != 0 {
		t.Fatalf("Version allocates %v times, want 0", a)
	}
}

var sinkVersion Version

// BenchmarkInodeRead sets the two reads of a stored inode side by side:
// GetInode's pointer and Version's five fields.
func BenchmarkInodeRead(b *testing.B) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	if err := c.CommitInode(&Inode{Num: n, Pages: []PhysPage{PhysPageNil, PhysPageNil, PhysPageNil, PhysPageNil},
		VV: vclock.New().Bump(1).Bump(2).Bump(3), Sites: []vclock.SiteID{1, 2, 3}, Owner: "alice", Nlink: 1}); err != nil {
		b.Fatal(err)
	}
	b.Run("GetInode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkInode, _ = c.GetInode(n)
		}
	})
	b.Run("Version", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkVersion, _ = c.Version(n)
		}
	})
}

// Property: partitioned inode ranges at different packs never collide.
func TestPropertyInodeRangesDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nPacks := 2 + r.Intn(4)
		const span = 100
		var containers []*Container
		for i := 0; i < nPacks; i++ {
			lo := InodeNum(i*span + 1)
			containers = append(containers, MustContainer(1, vclock.SiteID(i+1), lo, lo+span-1, nil, Costs{}))
		}
		seen := make(map[InodeNum]bool)
		for _, c := range containers {
			for j := 0; j < 1+r.Intn(20); j++ {
				n, err := c.AllocInode()
				if err != nil {
					return false
				}
				if seen[n] {
					return false // collision across packs
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: commit/abort never corrupts committed data (crash-consistency
// invariant behind §2.3.6: "one is always left with either the original
// file or a completely changed file but never with a partially made
// change").
func TestPropertyCommitAbortAtomicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newTestContainer()
		n, _ := c.AllocInode()
		content := byte('a')
		page := bytes.Repeat([]byte{content}, 64)
		p, _ := c.WritePage(page)
		if err := c.CommitInode(&Inode{Num: n, Size: 64, Pages: []PhysPage{p}, VV: vclock.New()}); err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			next := byte('a' + 1 + r.Intn(20))
			shadow, _ := c.WritePage(bytes.Repeat([]byte{next}, 64))
			if r.Intn(2) == 0 {
				// Commit: new content becomes visible.
				if err := c.CommitInode(&Inode{Num: n, Size: 64, Pages: []PhysPage{shadow}, VV: vclock.New()}); err != nil {
					return false
				}
				content = next
			} else {
				// Abort: shadow freed, old content intact.
				c.FreePages(shadow)
			}
			got, err := c.ReadLogicalPage(n, 0)
			if err != nil {
				return false
			}
			for _, b := range got[:64] {
				if b != content {
					return false
				}
			}
			if c.PageCount() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReadFilePageIsOneVersion is ReadFilePage's contract: the page,
// the size and the version vector it returns belong to one committed
// version of the inode whatever CommitInode does around the call. Every
// version v of the file is a page of byte(v), size v, vector {1: v}; a
// reader that resolved the inode first and read the page second (what
// fs.localPage used to do) meets a page the commit in between freed, or
// pairs one version's size with another's bytes.
func TestReadFilePageIsOneVersion(t *testing.T) {
	c := newTestContainer()
	n, _ := c.AllocInode()
	vv := vclock.New()
	commit := func(v int) {
		p, err := c.WritePage(bytes.Repeat([]byte{byte(v)}, 64))
		if err != nil {
			t.Error(err)
		}
		vv = vv.Bump(1)
		if err := c.CommitInode(&Inode{Num: n, Size: int64(v), Pages: []PhysPage{PhysPageNil, p}, VV: vv}); err != nil {
			t.Error(err)
		}
	}
	commit(1)

	const versions = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := 2; v <= versions; v++ {
			commit(v)
		}
	}()
	for i := 0; ; i++ {
		shared := i%2 == 1
		data, size, got, err := c.ReadFilePage(n, 1, shared)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v := got.Get(1); int64(v) != size || data[0] != byte(size) || data[63] != byte(size) {
			t.Fatalf("read %d mixes versions: vector %v, size %d, page of %d..%d", i, got, size, data[0], data[63])
		}
		if !shared {
			PutPageBuf(data)
		}
		if size == versions {
			break
		}
	}
	<-done
	if c.PageCount() != 1 {
		t.Fatalf("%d pages allocated after %d commits, want 1 (every superseded page freed)", c.PageCount(), versions)
	}

	// A hole, and a page past the page table, are nil data with the
	// inode's size and version and no error; a missing inode is
	// ErrNoInode.
	for _, pn := range []PageNo{0, 2, -1} {
		data, size, got, err := c.ReadFilePage(n, pn, false)
		if data != nil || err != nil || size != versions || got.Get(1) != versions {
			t.Fatalf("page %d: data=%v size=%d vv=%v err=%v, want nil data of version %d", pn, data != nil, size, got, err, versions)
		}
	}
	if _, _, _, err := c.ReadFilePage(n+1, 0, false); !errors.Is(err, ErrNoInode) {
		t.Fatalf("missing inode: err = %v, want ErrNoInode", err)
	}
}
