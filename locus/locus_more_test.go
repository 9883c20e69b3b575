package locus_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/storage"
	"repro/locus"
)

func TestClusterSpecValidation(t *testing.T) {
	// No sites.
	if _, err := locus.NewCluster(locus.ClusterSpec{}); err == nil {
		t.Fatal("empty spec should fail")
	}
	// No root filegroup.
	_, err := locus.NewCluster(locus.ClusterSpec{
		Sites:      []locus.SiteSpec{{ID: 1}},
		Filegroups: []locus.FilegroupSpec{{ID: 1, MountPath: "/x", Replicas: []locus.SiteID{1}}},
	})
	if err == nil || !strings.Contains(err.Error(), "mounted at /") {
		t.Fatalf("err = %v", err)
	}
	// Duplicate filegroup ids.
	_, err = locus.NewCluster(locus.ClusterSpec{
		Sites: []locus.SiteSpec{{ID: 1}},
		Filegroups: []locus.FilegroupSpec{
			{ID: 1, MountPath: "/", Replicas: []locus.SiteID{1}},
			{ID: 1, MountPath: "/x", Replicas: []locus.SiteID{1}},
		},
	})
	if err == nil {
		t.Fatal("duplicate filegroup should fail")
	}
}

func TestSessionNCopiesInheritance(t *testing.T) {
	c, err := locus.Simple(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Site(2).Login("u")
	s.SetNCopies(2)
	if err := s.WriteFile("/two", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ino, err := s.Stat("/two")
	if err != nil {
		t.Fatal(err)
	}
	if len(ino.Sites) != 2 || ino.Sites[0] != 2 {
		t.Fatalf("Sites = %v, want local-first pair", ino.Sites)
	}
	// Reset: inherit the parent directory's factor (all 4).
	s.SetNCopies(0)
	if err := s.WriteFile("/four", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ino, err = s.Stat("/four")
	if err != nil {
		t.Fatal(err)
	}
	if len(ino.Sites) != 4 {
		t.Fatalf("Sites = %v, want 4", ino.Sites)
	}
}

func TestErrorsAreExported(t *testing.T) {
	c, err := locus.Simple(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Site(1).Login("u")
	if _, err := s.ReadFile("/missing"); !errors.Is(err, locus.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := s.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/f", locus.TypeRegular); !errors.Is(err, locus.ErrExists) {
		t.Fatalf("err = %v", err)
	}
	f1, err := s.Open("/f", locus.Modify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("/f", locus.Modify); !errors.Is(err, locus.ErrBusy) {
		t.Fatalf("err = %v", err)
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileOntoDirectoryIsDir: a directory is written only by the
// kernel. A user's modify open or create of one is refused with ErrIsDir,
// as Unix's EISDIR, and leaves nothing behind; an attribute change of it
// is not refused. The directory stays readable and fsck-clean at every
// site.
func TestWriteFileOntoDirectoryIsDir(t *testing.T) {
	c, err := locus.Simple(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Site(2).Login("u")
	for _, dir := range []string{"/d", "/d/y"} {
		if err := s.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteFile("/d/y/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Settle()

	if err := s.WriteFile("/d/y", []byte("hello")); !errors.Is(err, locus.ErrIsDir) {
		t.Errorf("WriteFile onto a directory = %v, want ErrIsDir", err)
	}
	r, err := s.Site().FS.Resolve(s.Cred(), "/d/y")
	if err != nil {
		t.Fatal(err)
	}
	// A handle that should not have been granted is closed, or it would
	// hold the directory's writer slot for good.
	refused := func(what string, f *fs.File, err error) {
		t.Helper()
		if !errors.Is(err, locus.ErrIsDir) {
			t.Errorf("%s = %v, want ErrIsDir", what, err)
		}
		if f != nil {
			f.Close()
		}
	}
	f, err := s.Open("/d/y", locus.Modify)
	refused("Open of a directory for modification", f, err)
	f, err = s.Site().FS.OpenID(r.ID, locus.Modify)
	refused("OpenID of a directory for modification", f, err)
	f, err = s.Create("/d/z", storage.TypeDirectory)
	refused("Create of a directory", f, err)
	if _, err := s.Stat("/d/z"); !errors.Is(err, locus.ErrNotFound) {
		t.Errorf("the refused Create left /d/z: %v", err)
	}
	if err := s.Site().FS.Chmod(s.Cred(), "/d/y", 0700); err != nil {
		t.Errorf("Chmod of a directory = %v", err)
	}
	if err := s.SetReplication("/d/y", 1, 2); err != nil {
		t.Errorf("SetReplication of a directory = %v", err)
	}
	c.Settle()

	for _, id := range c.Sites() {
		ents, err := c.Site(id).Login("u").ReadDir("/d/y")
		if err != nil || len(ents) != 1 || ents[0].Name != "f" {
			t.Errorf("site %d lists /d/y as %v, %v; want [f]", id, ents, err)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Errorf("fsck: %v", findings)
	}
}

// TestWriteFileOfBusyFileIsBusy: WriteFile creates only where the open
// finds no file. A file whose writer slot another site holds is ErrBusy,
// not ErrExists from a create of a name that is there.
func TestWriteFileOfBusyFileIsBusy(t *testing.T) {
	c, err := locus.Simple(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Site(1).Login("u")
	if err := s.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	f, err := s.Open("/f", locus.Modify)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Site(2).Login("u").WriteFile("/f", []byte("y")); !errors.Is(err, locus.ErrBusy) {
		t.Errorf("WriteFile of a file open for modification at another site = %v, want ErrBusy", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMailBetweenUsers(t *testing.T) {
	c, err := locus.Simple(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	alice := c.Site(1).Login("alice")
	bob := c.Site(2).Login("bob")
	if err := alice.SendMail("bob", "lunch at noon?"); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	msgs, err := bob.ReadMail()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].From != "alice" || msgs[0].Body != "lunch at noon?" {
		t.Fatalf("mail = %+v", msgs)
	}
}

func TestHiddenContextOverride(t *testing.T) {
	c, err := locus.NewCluster(locus.ClusterSpec{
		Sites: []locus.SiteSpec{{ID: 1, MachineType: "vax"}},
		Filegroups: []locus.FilegroupSpec{
			{ID: 1, MountPath: "/", Replicas: []locus.SiteID{1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Site(1).Login("u")
	if err := c.Site(1).FS.MkHidden(s.Cred(), "/app", 0755); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/app@@/vax", []byte("for vax")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/app@@/experimental", []byte("for testers")); err != nil {
		t.Fatal(err)
	}
	// Default context: the site's machine type.
	d, err := s.ReadFile("/app")
	if err != nil || string(d) != "for vax" {
		t.Fatalf("%q %v", d, err)
	}
	// Per-process override, tried in order.
	s.SetHiddenContext("experimental", "vax")
	d, err = s.ReadFile("/app")
	if err != nil || string(d) != "for testers" {
		t.Fatalf("%q %v", d, err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, err := locus.Simple(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := c.Stats()
	s := c.Site(1).Login("u")
	if err := s.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	d := c.Stats().Sub(before)
	if d.Msgs == 0 || d.CPUUs == 0 || d.DiskUs == 0 {
		t.Fatalf("stats did not accumulate: %+v", d)
	}
}
